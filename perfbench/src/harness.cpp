#include "perfbench/src/harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "tensor/rng.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_img_s", "img/s"},
      {"latency_p50_us", "us"},
      {"latency_p90_us", "us"},
      {"group_latency_p50_us", "us"},
      {"slo_attain_frac", "frac"},
      {"success_frac", "frac"},
      {"f1_task_specific", "f1"},
      {"f1_quantized", "f1"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"distill.pretrain_teacher_s", "s"},
      {"distill.prepare_task_specific_s", "s"},
      {"quant.prepare_quantized_s", "s"},
      {"core.publish_ms", "ms"},
      {"runtime.fleet_start_ms", "ms"},
      {"core.infer_raw_us_per_img.ts.b1", "us"},
      {"core.infer_raw_us_per_img.ts.b8", "us"},
      {"core.infer_raw_us_per_img.ts.b32", "us"},
      {"core.infer_raw_us_per_img.q8.b1", "us"},
      {"core.infer_raw_us_per_img.q8.b8", "us"},
      {"core.infer_raw_us_per_img.q8.b32", "us"},
      {"core.decode_batch_us_per_img.ts", "us"},
      {"core.decode_batch_us_per_img.q8", "us"},
      {"detect.decode_us_per_img", "us"},
      {"kg.match_us_per_img", "us"},
      {"detect.nms_us_per_img", "us"},
      {"tensor.gemm_pack_share", "frac"},
      {"tensor.gemm_kernel_share", "frac"},
      {"quant.int8_pack_share", "frac"},
      {"quant.int8_kernel_share", "frac"},
      {"quant.int8_quantize_share", "frac"},
      {"quant.int8_dequant_share", "frac"},
      {"core.infer_raw_unattributed_share", "frac"},
      {"vit.macs_per_img", "count"},
      {"vit.gmac_per_s.ts.b8", "GMAC/s"},
      {"vit.gmac_per_s.q8.b8", "GMAC/s"},
      {"runtime.queue_wait_us.p50", "us"},
      {"runtime.queue_wait_us.p99", "us"},
      {"runtime.batch_formation_us.p50", "us"},
      {"runtime.infer_us.p50", "us"},
      {"runtime.batch_size.mean", "img"},
      {"runtime.heap_allocs_per_req", "count"},
      {"runtime.rejected_frac", "frac"},
      {"runtime.fleet.failovers", "count"},
      {"runtime.fleet.shard_load_ratio", "ratio"},
      {"detect.fuse_views_us", "us"},
      {"runtime.group_fuse_us.p50", "us"},
      {"runtime.fleet.install_snapshot_ms", "ms"},
      {"runtime.snapshot_version_skew", "count"},
      {"latency_p99_us", "us"},
      {"loadgen.lag_p99_us", "us"},
      {"host.cpu_steal_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return specs;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

Percentile exact_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("exact_percentile: no samples");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("exact_percentile: q must be in (0, 1]");
  }
  const auto n = static_cast<int64_t>(samples.size());
  // ceil(q * n) computed on the rounded product, so q = 0.5, n = 10 gives
  // rank 5 rather than 6 from 5.000000000000001.
  const double product = q * static_cast<double>(n);
  auto rank = static_cast<int64_t>(std::ceil(product - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return Percentile{samples[static_cast<size_t>(rank - 1)], n, n - rank};
}

namespace {

int64_t window_of(double t, double span_s, int64_t windows) {
  const auto w = static_cast<int64_t>(t / span_s * static_cast<double>(windows));
  return std::clamp<int64_t>(w, 0, windows - 1);
}

double median_of(std::vector<double> v) {
  return exact_percentile(std::move(v), 0.5).value;
}

runtime::LoadGenOptions burst_load(double seconds, int64_t tasks,
                                   int64_t scenes) {
  runtime::LoadGenOptions load;
  load.rate_rps = 1000.0;
  load.requests = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(load.rate_rps * seconds)));
  load.arrivals = runtime::ArrivalProcess::kBursty;
  load.burst_factor = 4.0;
  load.burst_duty = 0.25;
  load.tasks = tasks;
  load.zipf_s = 1.1;
  load.scenes = scenes;
  load.storm_period_us = 1'000'000;
  load.group_fraction = 0.2;
  load.group_views = 3;
  return load;
}

}  // namespace

WindowedSamples::WindowedSamples(double span_s, int64_t windows,
                                 std::vector<double> quantiles)
    : span_s_(span_s), windows_(windows), quantiles_(std::move(quantiles)) {
  if (windows < 1 || !(span_s > 0.0)) {
    throw std::invalid_argument("WindowedSamples: bad windows or span");
  }
  for (const double q : quantiles_) {
    if (!(q > 0.0 && q <= 1.0)) {
      throw std::invalid_argument("WindowedSamples: q must be in (0, 1]");
    }
  }
  sums_.assign(static_cast<size_t>(windows), 0.0);
  reduced_.resize(quantiles_.size());
}

void WindowedSamples::add(double t, double value) {
  if (finished_) throw std::logic_error("WindowedSamples: add after finish");
  ++count_;
  total_ += value;
  if (t >= 0.0 && t < span_s_) {
    sums_[static_cast<size_t>(window_of(t, span_s_, windows_))] += value;
  }
  if (quantiles_.empty()) return;
  const int64_t w = window_of(t, span_s_, windows_);
  while (open_window_ < w) close_open();
  open_.push_back(value);
}

void WindowedSamples::finish() {
  if (finished_) return;
  if (!quantiles_.empty()) {
    while (open_window_ < windows_) close_open();
  }
  finished_ = true;
}

void WindowedSamples::close_open() {
  for (size_t k = 0; k < quantiles_.size(); ++k) {
    // An empty sub-window is recorded as 0 samples; percentile() refuses it.
    reduced_[k].push_back(open_.empty()
                              ? Percentile{}
                              : exact_percentile(open_, quantiles_[k]));
  }
  open_.clear();  // keeps its capacity: no allocation once warm
  ++open_window_;
}

WindowedPercentile WindowedSamples::percentile(double q) const {
  if (!finished_) {
    throw std::logic_error("WindowedSamples: percentile before finish");
  }
  const auto it = std::find(quantiles_.begin(), quantiles_.end(), q);
  if (it == quantiles_.end()) {
    throw std::logic_error("WindowedSamples: quantile was not tracked");
  }
  WindowedPercentile out;
  out.windows = windows_;
  out.min_samples = INT64_MAX;
  out.min_beyond = INT64_MAX;
  std::vector<double> per_window;
  for (const Percentile& p : reduced_[static_cast<size_t>(
           it - quantiles_.begin())]) {
    if (p.samples == 0) {
      throw std::invalid_argument("WindowedSamples: empty sub-window");
    }
    per_window.push_back(p.value);
    out.min_samples = std::min(out.min_samples, p.samples);
    out.min_beyond = std::min(out.min_beyond, p.beyond);
  }
  out.value = median_of(std::move(per_window));
  return out;
}

double WindowedSamples::rate() const {
  const double width = span_s_ / static_cast<double>(windows_);
  std::vector<double> per_second;
  for (const double sum : sums_) per_second.push_back(sum / width);
  return median_of(std::move(per_second));
}

double WindowedSamples::mean() const {
  return count_ == 0 ? 0.0 : total_ / static_cast<double>(count_);
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<runtime::GeneratedRequest> burst_schedule(uint64_t seed,
                                                      double seconds,
                                                      int64_t tasks,
                                                      int64_t scenes) {
  itask::Rng rng(derive_seed(seed, /*stream=*/3));
  auto schedule =
      runtime::generate_schedule(burst_load(seconds, tasks, scenes), rng);
  // The generator's realized mean rate drifts by a few percent from seed to
  // seed (its bursty rate is re-read once per arrival), which would move
  // throughput and tail latency with the seed rather than the system.
  // Stretch the arrivals so every seed offers exactly rate_rps: the last
  // request is due at `seconds`.
  const double span = static_cast<double>(schedule.back().arrival_us);
  if (span > 0.0) {
    const double scale = seconds * 1e6 / span;
    for (runtime::GeneratedRequest& r : schedule) {
      r.arrival_us = std::llround(static_cast<double>(r.arrival_us) * scale);
    }
  }
  return schedule;
}

std::string result_json(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::set<std::string> declared;
  for (const MetricSpec& s : specs) declared.insert(s.name);
  for (const auto& [name, value] : values) {
    if (!declared.contains(name)) {
      throw std::logic_error("result_json: undeclared metric " + name);
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                attempted, failed);
  out += buf;
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("result_json: metric ") + s.name +
                             " was not measured");
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error(std::string("result_json: metric ") + s.name +
                             " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", s.name, it->second, s.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
