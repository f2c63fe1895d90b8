// Deployment set-up, input generation, the three workload runners, the
// correctness gate and the per-layer probes of the repo benchmark. Every
// call into the system goes through its public API; the benchmark measures
// from outside and changes nothing under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/itask.h"
#include "core/snapshot.h"
#include "perfbench/src/harness.h"
#include "runtime/fleet.h"
#include "runtime/loadgen.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Dets = std::vector<itask::detect::Detection>;

struct SetupTimes {
  double pretrain_teacher_s = 0.0;
  double prepare_task_specific_s = 0.0;  // both students
  double prepare_quantized_s = 0.0;
  double publish_ms = 0.0;
  double fleet_start_ms = 0.0;  // 0 when no fleet was started
  double total_s = 0.0;         // Framework construction → ready to serve
};

/// A trained, published deployment and (for the serving workloads) the
/// fleet serving it.
struct Deployment {
  std::unique_ptr<itask::core::Framework> framework;
  std::vector<itask::core::TaskHandle> tasks;  // library tasks 1-4
  std::shared_ptr<const itask::core::DeploymentSnapshot> snapshot;
  std::unique_ptr<itask::runtime::InferenceFleet> fleet;
  SetupTimes times;
};

/// Trains and publishes the deployment; starts a fleet when `with_fleet`.
Deployment set_up(bool with_fleet);

/// Starts a fleet serving `snapshot`; returns the start time in ms.
double start_fleet(Deployment& d);

/// Inputs made before any timed window: traffic from the workload seed, the
/// F1 set from a fixed seed of its own.
struct Inputs {
  itask::data::Dataset pool;  // traffic scenes
  /// F1 scenes: one fixed held-out set, the same for every --seed, so F1
  /// compares code rather than scene draws.
  itask::data::Dataset eval;
  /// K=3 group inputs: jittered views of pool scenes.
  std::vector<std::vector<itask::Tensor>> group_views;
};

Inputs make_inputs(uint64_t seed, const itask::core::FrameworkOptions& o);

/// Sub-window length of a timed window: the reported figures are medians
/// over its sub-windows.
inline constexpr double kSubWindowS = 2.0;

/// What one timed window measured.
struct WindowStats {
  /// Sample series over `seconds`, split into sub-windows of about
  /// kSubWindowS (at least one).
  explicit WindowStats(double seconds);

  double elapsed_s = 0.0;
  int64_t images = 0;     // images completed (group views included)
  int64_t requests = 0;   // attempted (singles, groups, probes)
  int64_t rejected = 0;
  int64_t failed = 0;     // exceptions surfaced through futures
  int64_t slo_met = 0;    // requests done within kSloUs
  int64_t slo_offered = 0;
  // Latencies in µs, stamped with their completion time (closed loops,
  // which take results in completion order) or due time (open loop, which
  // takes them in schedule order); completions stamped with their time,
  // valued in images.
  WindowedSamples latency;        // singles (offline: per call)
  WindowedSamples group_latency;  // groups
  WindowedSamples completed;
  WindowedSamples lag_us;         // generator lateness
  // Runtime spans of served singles (InferenceResult).
  WindowedSamples queue_us, formation_us, infer_us, batch_size;
  WindowedSamples group_fuse_us;
  std::vector<double> install_ms;
  int64_t failovers = 0;
  double shard_load_ratio = 0.0;
  int64_t version_skew = 0;
  /// Served outputs that differ from serial inference; each workload runs
  /// its correctness gate after its timed window.
  int64_t mismatches = 0;
  double cpu_steal_frac = 0.0;  // /proc/stat delta over the window

  /// Reduces every series' open sub-window; runners call it at the end.
  void finish();

 private:
  WindowStats(double seconds, int64_t windows);
};

WindowStats run_offline(const Deployment& d, const Inputs& in, uint64_t seed,
                        double seconds);
WindowStats run_camera(Deployment& d, const Inputs& in, uint64_t seed,
                       double seconds);

/// burst_onboard traffic with its views built up front.
struct BurstInputs {
  std::vector<itask::runtime::GeneratedRequest> schedule;
  std::vector<std::vector<itask::Tensor>> views;  // per request; empty = single
};
BurstInputs make_burst_inputs(uint64_t seed, double seconds,
                              const Inputs& in);
WindowStats run_burst(Deployment& d, const Inputs& in, const BurstInputs& b,
                      double seconds);

/// One onboarding outside a timed window (define_task_from_text → publish →
/// InferenceFleet::install_snapshot, then a few requests for the new task,
/// checked against serial inference); for the workloads that do not onboard
/// in their own traffic.
void onboard_probe(Deployment& d, const Inputs& in, WindowStats& stats);

/// F1 of served outputs against ground truth, micro-averaged over tasks
/// 1-2 (task-specific) and 1-4 (quantized); `reproduced` is false when the
/// serial Framework::evaluate path disagrees in any count.
struct F1Result {
  double task_specific = 0.0;
  double quantized = 0.0;
  bool reproduced = true;
};
F1Result deployment_f1(const Deployment& d, const itask::data::Dataset& eval);

/// Per-layer probes: direct, single-threaded calls into each layer's public
/// functions, timed by the benchmark.
std::map<std::string, double> probe_layers(const Deployment& d,
                                           const Inputs& in);

}  // namespace perfbench
