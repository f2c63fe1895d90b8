// F7 — sharded serving fleet: goodput and tail latency of N InferenceServer
// shards behind the rendezvous task-affinity router (src/runtime/fleet),
// driven by the open-loop generator (src/runtime/loadgen). Sweeps shards ×
// replication under zipf task popularity, shows per-tenant quota fairness, a
// mission-switch storm, and the staged snapshot rollout with an injected
// mid-rollout shard failure + resume. All observability flows through the
// merged Prometheus scrape (per-shard registries + fleet registry).
//
// NOTE: F7, like F6, deliberately uses multiple cores — shard scaling is the
// subject. Everything else in the sweep stays on the single-core budget.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/exposition.h"
#include "runtime/fleet.h"
#include "runtime/loadgen.h"
#include "runtime/trace.h"
#include "tensor/format.h"

namespace itask {
namespace {

struct FleetLoad {
  double seconds = 0.0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t queue_full = 0;      // shed (open loop: no retry)
  int64_t quota_rejected = 0;  // shed by per-tenant admission quotas
  int64_t failovers = 0;       // replica rotations past a full shard
  int64_t shard_min = 0;       // lightest shard's admitted requests
  int64_t shard_max = 0;       // heaviest shard's admitted requests
  runtime::Histogram::Snapshot total_us;  // merged across all shards
  std::string prometheus;                 // merged fleet scrape
};

/// Replays an open-loop schedule against a fleet: each request is submitted
/// at its arrival time and NEVER retried — a rejection is lost goodput, the
/// honest overload picture. Latency comes from the merged shard histograms,
/// i.e. the same numbers a monitoring scrape would see.
FleetLoad drive_fleet(std::shared_ptr<const core::DeploymentSnapshot> snapshot,
                      const std::vector<core::TaskHandle>& tasks,
                      runtime::FleetOptions options,
                      const std::vector<runtime::GeneratedRequest>& schedule,
                      const data::Dataset& scenes) {
  runtime::InferenceFleet fleet(std::move(snapshot), std::move(options));
  std::vector<std::future<runtime::InferenceResult>> futures;
  futures.reserve(schedule.size());
  const auto start = std::chrono::steady_clock::now();
  for (const runtime::GeneratedRequest& req : schedule) {
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(req.arrival_us));
    auto r = fleet.try_submit(
        scenes.scene(req.scene % scenes.size()).image,
        tasks[static_cast<size_t>(req.task_index)].id,
        core::ConfigKind::kQuantizedMultiTask, req.tenant);
    if (r.admitted()) futures.push_back(std::move(*r.future));
  }
  for (auto& f : futures) f.get();
  const auto end = std::chrono::steady_clock::now();
  fleet.shutdown();

  const runtime::RegistrySnapshot merged = fleet.merged_metrics();
  const auto counter = [&merged](const char* name) -> int64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  FleetLoad r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.offered = static_cast<int64_t>(schedule.size());
  r.completed = counter("requests_completed");
  r.queue_full = counter("fleet_rejected_queue_full");
  r.quota_rejected = counter("fleet_quota_rejected");
  r.failovers = counter("fleet_failovers");
  for (const auto& [n, s] : merged.histograms) {
    if (n == runtime::stage_histogram_name(runtime::Stage::kTotal))
      r.total_us = s;
  }
  r.shard_min = INT64_MAX;
  for (int64_t s = 0; s < fleet.shard_count(); ++s) {
    const int64_t admitted =
        fleet.shard(s).metrics().counter("requests_submitted").value();
    r.shard_min = std::min(r.shard_min, admitted);
    r.shard_max = std::max(r.shard_max, admitted);
  }
  r.prometheus = runtime::to_prometheus(runtime::ExpositionData{merged, {}});
  return r;
}

}  // namespace
}  // namespace itask

int main() {
  using namespace itask;
  const bool fast = std::getenv("ITASK_BENCH_FAST") != nullptr;
  bench::print_header(
      "F7", "sharded fleet: goodput/latency vs shards × replication");

  core::Framework fw(bench::experiment_options(/*seed=*/43));
  std::printf("[setup] training deployment (quantized configuration, 4 "
              "missions)...\n");
  fw.pretrain_teacher();
  std::vector<core::TaskHandle> tasks;
  for (const int64_t library_task : {1, 2, 3, 4}) {
    tasks.push_back(fw.define_task(data::task_by_id(library_task)));
  }
  fw.prepare_quantized();
  const auto snapshot = fw.publish();
  const data::Dataset scenes =
      bench::make_eval_set(fw.options(), /*scenes=*/32, /*seed=*/2025);

  runtime::LoadGenOptions load;
  load.requests = fast ? 192 : 768;
  load.rate_rps = fast ? 800.0 : 1500.0;
  load.tasks = static_cast<int64_t>(tasks.size());
  load.zipf_s = 1.1;
  load.tenants = 4;
  load.scenes = scenes.size();

  const std::vector<int64_t> shard_sweep =
      fast ? std::vector<int64_t>{1, 2} : std::vector<int64_t>{1, 2, 4};
  const std::vector<int64_t> replication_sweep{1, 2};
  std::printf("\n%d requests open-loop at %.0f req/s (poisson, zipf %.1f "
              "over %d missions), workers/shard 2, %u hardware threads\n\n",
              static_cast<int>(load.requests), load.rate_rps, load.zipf_s,
              static_cast<int>(load.tasks),
              std::thread::hardware_concurrency());
  std::printf("shards  repl  goodput(req/s)  shed  p50(us)  p99(us)  "
              "failovers  shard-load(min..max)\n");
  FleetLoad last;
  for (const int64_t shards : shard_sweep) {
    for (const int64_t replication : replication_sweep) {
      runtime::FleetOptions fo;
      fo.shards = shards;
      fo.replication = replication;  // clamped to shards when it exceeds them
      fo.shard_options.workers = 2;
      fo.shard_options.max_batch = 4;
      fo.shard_options.max_wait_us = 300;
      fo.shard_options.queue_capacity = 64;
      // Identical offered traffic for every fleet geometry: same seed, same
      // options, same schedule.
      Rng rng(4242);
      const auto schedule = runtime::generate_schedule(load, rng);
      const FleetLoad r = drive_fleet(snapshot, tasks, fo, schedule, scenes);
      std::printf("%6d  %4d  %14.1f  %4d  %7.0f  %7.0f  %9d  %9s..%s\n",
                  static_cast<int>(shards), static_cast<int>(replication),
                  static_cast<double>(r.completed) / r.seconds,
                  static_cast<int>(r.offered - r.completed), r.total_us.p50,
                  r.total_us.p99, static_cast<int>(r.failovers),
                  fmt::i64(r.shard_min).c_str(), fmt::i64(r.shard_max).c_str());
      last = r;
    }
  }

  // Mission-switch storm (F4's scenario at fleet scale): the hottest task
  // rotates every storm period, so the zipf head slams a different shard's
  // affinity set each window.
  std::printf("\nmission-switch storm (shards %d, repl 1): hottest mission "
              "rotates every storm period\n\n",
              static_cast<int>(shard_sweep.back()));
  std::printf("storm-period(ms)  goodput(req/s)  shed  p99(us)\n");
  for (const int64_t storm_ms : {int64_t{0}, int64_t{100}}) {
    runtime::LoadGenOptions storm = load;
    storm.zipf_s = 1.5;
    storm.storm_period_us = storm_ms * 1000;
    runtime::FleetOptions fo;
    fo.shards = shard_sweep.back();
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    fo.shard_options.queue_capacity = 64;
    Rng rng(4242);
    const auto schedule = runtime::generate_schedule(storm, rng);
    const FleetLoad r = drive_fleet(snapshot, tasks, fo, schedule, scenes);
    std::printf("%16s  %14.1f  %4d  %7.0f\n",
                storm_ms == 0 ? "off" : fmt::i64(storm_ms).c_str(),
                static_cast<double>(r.completed) / r.seconds,
                static_cast<int>(r.offered - r.completed), r.total_us.p99);
  }

  // Per-tenant admission quotas: tenant 0 floods (8 attempts per round),
  // tenants 1 and 2 trickle (1 each). With quotas off the flood takes the
  // whole admission share; with tenant_quota 3 per 10-attempt window the
  // flood is capped and light tenants land every attempt.
  std::printf("\nper-tenant quota fairness (shards 2): 10 rounds of "
              "[t0 x8, t1, t2] per window\n\n");
  std::printf("quota  tenant  attempts  admitted  quota-rejected\n");
  for (const int64_t quota : {int64_t{0}, int64_t{3}}) {
    runtime::FleetOptions fo;
    fo.shards = 2;
    fo.tenant_quota = quota;
    fo.quota_window = 10;
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    fo.shard_options.queue_capacity = 256;  // isolate quota from backpressure
    runtime::InferenceFleet fleet(snapshot, fo);
    std::vector<int64_t> attempts(3, 0), admitted(3, 0), rejected(3, 0);
    std::vector<std::future<runtime::InferenceResult>> futures;
    for (int64_t round = 0; round < 10; ++round) {
      std::vector<int64_t> round_tenants(8, 0);
      round_tenants.push_back(1);
      round_tenants.push_back(2);
      for (const int64_t tenant : round_tenants) {
        ++attempts[static_cast<size_t>(tenant)];
        auto r = fleet.try_submit(
            scenes.scene(round % scenes.size()).image,
            tasks[static_cast<size_t>(round % 4)].id,
            core::ConfigKind::kQuantizedMultiTask, tenant);
        if (r.admitted()) {
          ++admitted[static_cast<size_t>(tenant)];
          futures.push_back(std::move(*r.future));
        } else if (r.reject == runtime::RejectReason::kTenantQuota) {
          ++rejected[static_cast<size_t>(tenant)];
        }
      }
    }
    for (auto& f : futures) f.get();
    fleet.shutdown();
    for (int64_t tenant = 0; tenant < 3; ++tenant) {
      std::printf("%5s  %6d  %8d  %8d  %14d\n",
                  quota == 0 ? "off" : fmt::i64(quota).c_str(),
                  static_cast<int>(tenant),
                  static_cast<int>(attempts[static_cast<size_t>(tenant)]),
                  static_cast<int>(admitted[static_cast<size_t>(tenant)]),
                  static_cast<int>(rejected[static_cast<size_t>(tenant)]));
    }
  }

  // Staged rollout with an injected mid-rollout shard failure: onboarding a
  // fifth mission publishes v2; the rollout stops at the failing shard
  // (earlier shards keep v2, later shards keep serving v1 — the version-skew
  // tolerance contract makes the mixed state safe), and a retry of the same
  // snapshot resumes at the failed shard.
  std::printf("\nstaged rollout (shards 3): injected install failure on "
              "shard 1, then resume\n\n");
  {
    runtime::FleetOptions fo;
    fo.shards = 3;
    fo.shard_options.workers = 1;
    int64_t injected = 0;
    fo.rollout_hook = [&injected](int64_t shard, int64_t /*version*/) {
      if (shard == 1 && injected++ == 0) {
        throw std::runtime_error("F7 injected shard install failure");
      }
    };
    runtime::InferenceFleet fleet(snapshot, fo);
    const core::TaskHandle onboarded = fw.define_task(data::task_by_id(5));
    const auto next = fw.publish();
    const auto print_versions = [&fleet] {
      std::printf("  shard versions:");
      for (const int64_t v : fleet.shard_versions()) {
        std::printf(" v%s", fmt::i64(v).c_str());
      }
      std::printf("\n");
    };
    const runtime::RolloutResult first = fleet.install_snapshot(next);
    std::printf("  pass 1: installed %s shard(s), failed at shard %s (%s)\n",
                fmt::i64(first.installed).c_str(),
                fmt::i64(first.failed_shard).c_str(), first.error.c_str());
    print_versions();
    // Mid-rollout, mixed versions keep serving: old missions everywhere,
    // the onboarded one wherever its replica already took v2.
    auto old_mission = fleet.try_submit(
        scenes.scene(0).image, tasks[0].id,
        core::ConfigKind::kQuantizedMultiTask);
    old_mission.future->get();
    std::printf("  mid-rollout: mission 1 served on mixed versions, "
                "onboarded mission routable on %s\n",
                fleet.router().replicas(onboarded.id)[0] <= first.installed - 1
                    ? "its updated replica"
                    : "no replica yet (admission refuses it)");
    const runtime::RolloutResult second = fleet.install_snapshot(next);
    std::printf("  pass 2 (retry): skipped %s current shard(s), installed "
                "%s, complete=%s\n",
                fmt::i64(second.already_current).c_str(),
                fmt::i64(second.installed).c_str(),
                second.complete() ? "yes" : "no");
    print_versions();
    auto now_served = fleet.try_submit(
        scenes.scene(0).image, onboarded.id,
        core::ConfigKind::kQuantizedMultiTask);
    std::printf("  onboarded mission [%s] serves on snapshot v%s\n",
                onboarded.spec.name.c_str(),
                fmt::i64(now_served.future->get().snapshot_version).c_str());
    fleet.shutdown();
  }

  // One scrape for the whole fleet: the merged registry (fleet_ counters +
  // summed shard counters + bucket-merged histograms) through the existing
  // Prometheus exposition (bucket series elided for brevity).
  std::printf("\nmerged prometheus exposition sample (last sweep point, "
              "_bucket series elided)\n\n");
  {
    size_t pos = 0;
    while (pos < last.prometheus.size()) {
      size_t nl = last.prometheus.find('\n', pos);
      if (nl == std::string::npos) nl = last.prometheus.size();
      const std::string line = last.prometheus.substr(pos, nl - pos);
      if (line.find("_bucket{") == std::string::npos) {
        std::printf("  %s\n", line.c_str());
      }
      pos = nl + 1;
    }
  }

  bench::print_footer_note(
      "shape: goodput tracks the offered rate whenever the fleet has "
      "headroom; the 1-shard row is the most queue-bound point — highest "
      "p99, and the first to shed (fleet_rejected_queue_full > 0) once the "
      "offered rate exceeds single-shard capacity (on a single-core host "
      "these tiny models keep up, so shed stays 0 and only p99 shows the "
      "pressure). Replication 2 narrows the shard-load spread under zipf "
      "popularity (the hot mission's traffic splits across two replicas) and "
      "absorbs bursts via failover, at the cost of a colder per-shard cache "
      "— on these tiny models that cost is invisible, so goodput/p99 stays "
      "comparable to replication 1. The storm row leaves goodput and p99 "
      "essentially unchanged: rendezvous placement moves each mission's "
      "traffic wholesale to its replica set, so a rotating hot mission "
      "changes WHICH shard is busy, not how busy the fleet is. Quota "
      "table: with quotas off the flooding "
      "tenant takes every admission slot it asks for; with tenant_quota 3 "
      "per 10-attempt window its admissions cap at ~3 per window while the "
      "light tenants' attempts all land (quota-rejected counts the flood's "
      "excess only). Rollout: pass 1 reports the injected failure with "
      "earlier shards already on v2 and later shards still on v1 — serving "
      "never pauses, detections stay element-wise identical on both versions "
      "(test_runtime asserts this) — and pass 2 skips current shards and "
      "completes. Fleet detections are element-wise identical to the serial "
      "pipeline at every geometry (determinism contract; asserted in "
      "test_runtime, not timed here). F7, like F6, is the multi-core "
      "exception to the single-core bench budget — shard scaling is the "
      "subject.");
  return 0;
}
