// Helpers of the repo benchmark that carry no measurement themselves:
// the declared metric table, exact percentiles over raw samples, seed
// derivation and the burst_onboard arrival schedule. Kept apart from the
// workloads so perfbench_selftest can check them without training a model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/loadgen.h"

namespace perfbench {

namespace runtime = itask::runtime;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric an untraced run prints (BENCHMARK.json `end_to_end`).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every metric a traced run prints (BENCHMARK.json `per_layer`).
const std::vector<MetricSpec>& per_layer_metrics();

/// Names: a letter or digit first, then letters, digits, '_', '.', '-';
/// at most 64 characters.
bool valid_metric_name(std::string_view name);
/// Units: letters, digits, '_', '/', '%', '.', '-'; 1 to 16 characters.
bool valid_unit(std::string_view unit);

/// An order statistic read straight from the raw samples.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;  // how many samples it was read from
  int64_t beyond = 0;   // samples strictly after it in sorted order
};

/// Nearest-rank percentile: the sample at 1-based rank ceil(q * n) of the
/// sorted samples (q in (0, 1]); no interpolation, no bucketing. Throws
/// std::invalid_argument on an empty sample or q outside (0, 1].
Percentile exact_percentile(std::vector<double> samples, double q);

/// Samples a reported percentile must leave beyond itself.
inline constexpr int64_t kMinBeyond = 10;

/// The median, over the sub-windows of a run, of each sub-window's exact
/// percentile.
struct WindowedPercentile {
  double value = 0.0;
  int64_t windows = 0;
  int64_t min_samples = 0;  // fewest samples in any sub-window
  int64_t min_beyond = 0;   // fewest samples beyond its percentile
};

/// The samples of one timed window, split by their time stamp t (seconds
/// from the start of the window) into `windows` equal sub-windows of
/// [0, span_s) and reduced as they arrive: each sub-window keeps the sum of
/// its values and its exact percentile at each quantile named at
/// construction, and only the sub-window still open keeps raw samples. The
/// benchmark's own bookkeeping then stays within one sub-window's samples
/// however long the run and however fast the system, so it does not move
/// peak_rss_mb. Reporting medians over sub-windows means a slow stretch of
/// a shared host moves one sub-window, not the reported figure.
class WindowedSamples {
 public:
  /// Throws std::invalid_argument on windows < 1, span_s <= 0 or a
  /// quantile outside (0, 1].
  WindowedSamples(double span_s, int64_t windows,
                  std::vector<double> quantiles = {});

  /// Percentiles take samples in order of t: a sample stamped before the
  /// open sub-window counts in it, and one at or after span_s counts in the
  /// last. Sums place each sample by its own t and ignore one outside
  /// [0, span_s), so a closed loop's drain does not count as throughput.
  void add(double t, double value);
  /// Reduces the open sub-window; call once every sample is in.
  void finish();

  /// The median over sub-windows of each one's exact percentile q, which
  /// must be one of the quantiles named at construction. Throws
  /// std::logic_error before finish() or for another q, and
  /// std::invalid_argument when a sub-window holds no sample.
  WindowedPercentile percentile(double q) const;
  /// The median over sub-windows of the sum of values per second.
  double rate() const;
  int64_t count() const { return count_; }
  /// Mean of every value added (0 without samples).
  double mean() const;

 private:
  void close_open();

  double span_s_;
  int64_t windows_;
  std::vector<double> quantiles_;
  std::vector<double> sums_;                      // per sub-window
  std::vector<std::vector<Percentile>> reduced_;  // per quantile, per window
  std::vector<double> open_;  // raw samples of sub-window open_window_
  int64_t open_window_ = 0;
  int64_t count_ = 0;
  double total_ = 0.0;
  bool finished_ = false;
};

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
uint64_t derive_seed(uint64_t seed, uint64_t stream);

/// The burst_onboard traffic: bursty arrivals at 1000 req/s mean
/// (burst_factor 4, duty 0.25), zipf 1.1 over `tasks` tasks with a
/// mission-switch storm every second, 20% K=3 group requests, `seconds`
/// worth of requests over `scenes` scenes. burst_schedule stretches the
/// generated arrivals so that the last one is due at exactly `seconds`.
std::vector<runtime::GeneratedRequest> burst_schedule(uint64_t seed,
                                                      double seconds,
                                                      int64_t tasks,
                                                      int64_t scenes);

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
/// `values` must hold exactly the names of `specs`; throws
/// std::logic_error otherwise, so a run can never print a partial set.
std::string result_json(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values);

}  // namespace perfbench
