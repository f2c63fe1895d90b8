// F6 — batched inference runtime: throughput and latency of the
// multi-threaded serving engine (src/runtime) over the deployed quantized
// configuration, swept across worker count × micro-batch size, plus the
// batching-delay/latency trade-off (p99 vs max_wait).
//
// NOTE: F6 is the one experiment that deliberately uses multiple cores —
// worker scaling is the subject. Everything else in the sweep stays on the
// single-core budget.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <string>

#include "bench/bench_util.h"
#include "runtime/exposition.h"
#include "runtime/server.h"
#include "runtime/trace.h"
#include "tensor/format.h"
#include "tensor/profile.h"

namespace itask {
namespace {

struct LoadResult {
  double seconds = 0.0;
  int64_t completed = 0;
  int64_t rejected = 0;   // queue-full backpressure (producers retried)
  int64_t failed = 0;     // futures carrying an injected inference fault
  int64_t expired = 0;    // futures shed with DeadlineExceeded
  int64_t arena_overflows = 0;  // allocations that missed a worker's arena
  runtime::Histogram::Snapshot total_us;
  runtime::Histogram::Snapshot arena_used;  // per-group arena footprint
  // Per-stage latency breakdown from the stage timeline histograms.
  runtime::Histogram::Snapshot queue_wait_us;
  runtime::Histogram::Snapshot batch_formation_us;
  runtime::Histogram::Snapshot infer_us;
  std::string prometheus;  // exposition render of the run's final registry
};

/// Drives `requests` submissions from `producers` threads, retrying on
/// backpressure so every request eventually lands, and waits for all results
/// (a future may carry an exception on the degradation paths — counted, not
/// fatal). Scrapes go through the server's const metrics view — the same
/// read-only path a monitoring sidecar would use.
LoadResult drive_load(std::shared_ptr<const core::DeploymentSnapshot> snapshot,
                      kg::TaskId task, runtime::RuntimeOptions opts,
                      int64_t requests, int64_t producers,
                      const data::Dataset& scenes) {
  runtime::InferenceServer server(std::move(snapshot), opts);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<std::future<runtime::InferenceResult>>> futures(
      static_cast<size_t>(producers));
  std::vector<std::thread> threads;
  const int64_t per_producer = requests / producers;
  for (int64_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int64_t i = 0; i < per_producer; ++i) {
        const int64_t scene = (p * per_producer + i) % scenes.size();
        while (true) {
          auto f = server.try_submit(scenes.scene(scene).image, task,
                                     core::ConfigKind::kQuantizedMultiTask);
          if (f.admitted()) {
            futures[static_cast<size_t>(p)].push_back(std::move(*f.future));
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& per : futures) {
    for (auto& f : per) {
      try {
        f.get();
      } catch (const std::exception&) {
        // failed/expired — tallied from the server counters below.
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  server.shutdown();

  const runtime::MetricsRegistry& metrics =
      static_cast<const runtime::InferenceServer&>(server).metrics();
  const runtime::RegistrySnapshot scrape = metrics.snapshot();
  const auto counter = [&scrape](const char* name) -> int64_t {
    for (const auto& [n, v] : scrape.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  const auto histogram =
      [&scrape](const std::string& name) -> runtime::Histogram::Snapshot {
    for (const auto& [n, s] : scrape.histograms) {
      if (n == name) return s;
    }
    return {};
  };
  LoadResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.completed = counter("requests_completed");
  r.rejected = counter("rejected_queue_full");
  r.failed = counter("requests_failed");
  r.expired = counter("requests_expired");
  r.arena_overflows = counter("arena_overflow_allocs");
  using runtime::Stage;
  using runtime::stage_histogram_name;
  r.total_us = histogram(stage_histogram_name(Stage::kTotal));
  r.arena_used = histogram("arena_used_bytes");
  r.queue_wait_us = histogram(stage_histogram_name(Stage::kQueueWait));
  r.batch_formation_us =
      histogram(stage_histogram_name(Stage::kBatchFormation));
  r.infer_us = histogram(stage_histogram_name(Stage::kInfer));
  r.prometheus = runtime::to_prometheus(runtime::collect(metrics));
  return r;
}

/// Exact percentile of a sample set (sorts a copy; bench-side only, unlike
/// the streaming bucketed quantiles the server reports).
double exact_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace
}  // namespace itask

int main() {
  using namespace itask;
  const bool fast = std::getenv("ITASK_BENCH_FAST") != nullptr;
  bench::print_header(
      "F6", "inference runtime: throughput/latency vs workers × batch size");

  core::Framework fw(bench::experiment_options(/*seed=*/42));
  std::printf("[setup] training deployment (quantized configuration)...\n");
  fw.pretrain_teacher();
  const core::TaskHandle task = fw.define_task(data::task_by_id(1));
  fw.prepare_quantized();
  const auto snapshot = fw.publish();
  const data::Dataset scenes =
      bench::make_eval_set(fw.options(), /*scenes=*/32, /*seed=*/2024);

  const int64_t requests = fast ? 192 : 1024;
  const int64_t producers = 4;
  const std::vector<int64_t> worker_sweep =
      fast ? std::vector<int64_t>{1, 2, 4} : std::vector<int64_t>{1, 2, 4, 8};
  const std::vector<int64_t> batch_sweep =
      fast ? std::vector<int64_t>{1, 8} : std::vector<int64_t>{1, 4, 8};

  std::printf("\n%d requests, %d producer threads, quantized config, "
              "max_wait 500 us, %u hardware threads\n\n",
              static_cast<int>(requests), static_cast<int>(producers),
              std::thread::hardware_concurrency());
  struct SweepRow {
    int64_t workers = 0;
    int64_t max_batch = 0;
    LoadResult r;
  };
  std::vector<SweepRow> sweep_rows;
  std::printf("workers  max_batch  throughput(req/s)  p50(us)  p99(us)  rejected-retries\n");
  for (const int64_t workers : worker_sweep) {
    for (const int64_t max_batch : batch_sweep) {
      runtime::RuntimeOptions opts;
      opts.workers = workers;
      opts.max_batch = max_batch;
      opts.max_wait_us = 500;
      opts.queue_capacity = 64;
      LoadResult r =
          drive_load(snapshot, task.id, opts, requests, producers, scenes);
      std::printf("%7d  %9d  %17.1f  %7.0f  %7.0f  %16d\n",
                  static_cast<int>(workers), static_cast<int>(max_batch),
                  static_cast<double>(r.completed) / r.seconds, r.total_us.p50,
                  r.total_us.p99, static_cast<int>(r.rejected));
      sweep_rows.push_back({workers, max_batch, std::move(r)});
    }
  }

  std::printf("\nper-stage latency breakdown (same runs; stage timeline "
              "histograms)\n\n");
  std::printf("workers  max_batch  queue-wait p50/p99(us)  batch-form "
              "p50/p99(us)  infer p50/p99(us)\n");
  for (const SweepRow& row : sweep_rows) {
    std::printf("%7d  %9d  %11.0f / %7.0f  %11.0f / %7.0f  %7.0f / %7.0f\n",
                static_cast<int>(row.workers), static_cast<int>(row.max_batch),
                row.r.queue_wait_us.p50, row.r.queue_wait_us.p99,
                row.r.batch_formation_us.p50, row.r.batch_formation_us.p99,
                row.r.infer_us.p50, row.r.infer_us.p99);
  }

  std::printf("\nbatching delay trade-off (workers 2, max_batch 8): p99 vs "
              "max_wait\n\n");
  std::printf("max_wait(us)  throughput(req/s)  p50(us)  p99(us)\n");
  const std::vector<int64_t> wait_sweep =
      fast ? std::vector<int64_t>{0, 5000} : std::vector<int64_t>{0, 1000, 5000, 20000};
  for (const int64_t max_wait : wait_sweep) {
    runtime::RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 8;
    opts.max_wait_us = max_wait;
    opts.queue_capacity = 64;
    const LoadResult r =
        drive_load(snapshot, task.id, opts, requests, producers, scenes);
    std::printf("%12d  %17.1f  %7.0f  %7.0f\n", static_cast<int>(max_wait),
                static_cast<double>(r.completed) / r.seconds, r.total_us.p50,
                r.total_us.p99);
  }

  // Allocation-free steady state: per-worker bump arenas sized by
  // DeploymentSnapshot::plan_workspace() absorb every hot-path intermediate.
  // The high-water column reports the largest per-group arena footprint
  // actually observed against the planned capacity (overflows must be 0 —
  // the plan covers the peak by construction).
  std::printf("\narena footprint (workers 2): high-water vs plan\n\n");
  std::printf("max_batch  throughput(req/s)  p50(us)  p99(us)  "
              "high-water(KiB)  planned(KiB)  overflows\n");
  for (const int64_t max_batch : {int64_t{1}, int64_t{8}}) {
    runtime::RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = max_batch;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    const LoadResult r =
        drive_load(snapshot, task.id, opts, requests, producers, scenes);
    const double planned_kib =
        static_cast<double>(snapshot->plan_workspace(max_batch)) / 1024.0;
    std::printf("%9d  %17.1f  %7.0f  %7.0f  %15.1f  %12.1f  %9d\n",
                static_cast<int>(max_batch),
                static_cast<double>(r.completed) / r.seconds, r.total_us.p50,
                r.total_us.p99, r.arena_used.max / 1024.0, planned_kib,
                static_cast<int>(r.arena_overflows));
  }

  std::printf("\ngraceful degradation (workers 2, max_batch 4): seeded fault "
              "injection and per-request deadlines\n\n");
  std::printf("fault-period  deadline(us)  completed  failed  expired  p99(us)\n");
  struct DegradationCase {
    int64_t fault_period;  // fail every Nth group (0 = no faults)
    int64_t deadline_us;   // 0 = no deadline
  };
  const std::vector<DegradationCase> degradation_cases{
      {0, 0}, {16, 0}, {0, 4000}, {16, 4000}};
  for (const DegradationCase& c : degradation_cases) {
    runtime::RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    opts.deadline_us = c.deadline_us;
    if (c.fault_period > 0) {
      // Deterministic (keyed to submission order, not scheduling): a group
      // faults when its request-id range covers a multiple of the period, so
      // ~1/period of the traffic hits a fault however batches form.
      const int64_t period = c.fault_period;
      opts.fault_injector = [period](const runtime::FaultSite& site) {
        const int64_t next_multiple =
            ((site.first_request_id + period - 1) / period) * period;
        if (next_multiple < site.first_request_id + site.group_size) {
          throw std::runtime_error("F6 injected inference fault");
        }
      };
    }
    const LoadResult r =
        drive_load(snapshot, task.id, opts, requests, producers, scenes);
    std::printf("%12d  %12d  %9d  %6d  %7d  %7.0f\n",
                static_cast<int>(c.fault_period),
                static_cast<int>(c.deadline_us), static_cast<int>(r.completed),
                static_cast<int>(r.failed), static_cast<int>(r.expired),
                r.total_us.p99);
  }

  // Kernel attribution: the same tensor/profile.h hooks bench_k0 uses, here
  // under real serving load — where the wall time inside infer goes
  // (pack / micro-kernel / quantize / dequantize).
  std::printf("\nkernel profile attribution (workers 2, max_batch 8, "
              "profiling hooks enabled)\n\n");
  {
    profile::reset();
    profile::set_enabled(true);
    runtime::RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 8;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    const LoadResult r =
        drive_load(snapshot, task.id, opts, requests, producers, scenes);
    profile::set_enabled(false);
    const std::vector<profile::SectionStats> sections = profile::snapshot();
    int64_t total_ns = 0;
    for (const profile::SectionStats& s : sections) total_ns += s.total_ns;
    std::printf("%-16s %12s %12s %7s\n", "section", "calls", "ms", "share%");
    for (const profile::SectionStats& s : sections) {
      std::printf("%-16s %12s %12.2f %7.1f\n", s.name,
                  fmt::i64(s.calls).c_str(),
                  static_cast<double>(s.total_ns) * 1e-6,
                  total_ns > 0
                      ? 100.0 * static_cast<double>(s.total_ns) /
                            static_cast<double>(total_ns)
                      : 0.0);
    }
    std::printf("throughput with hooks on: %.1f req/s\n",
                static_cast<double>(r.completed) / r.seconds);
    profile::reset();
  }

  // Live onboarding: a client streams requests for the already-deployed
  // task while two new tasks are onboarded end to end (define → distil →
  // publish → install). The phase-tagged latency table shows the swap
  // itself is free: zero requests fail, each new task serves the moment
  // its snapshot lands, and latency recovers to steady state right after
  // the install (the "during" rows are elevated only because distillation
  // shares the CPU with the workers, not because of the snapshot swap).
  std::printf("\nlive onboarding (workers 2, max_batch 4): latency "
              "before/during/after each publish\n\n");
  {
    runtime::RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    runtime::InferenceServer server(fw.publish(), opts);

    static constexpr const char* kPhaseNames[] = {
        "steady (v_base)",     "during onboard #1", "after install #1",
        "during onboard #2",   "after install #2"};
    constexpr int kPhases = 5;
    std::atomic<int> phase{0};
    std::atomic<bool> stop{false};
    struct Tagged {
      std::future<runtime::InferenceResult> future;
      int phase = 0;
    };
    std::vector<Tagged> tagged;
    // The streaming client touches only the server; the Framework trains on
    // this thread concurrently.
    std::thread streamer([&] {
      int64_t i = 0;
      while (!stop.load()) {
        auto f = server.try_submit(scenes.scene(i % scenes.size()).image,
                                   task.id,
                                   core::ConfigKind::kQuantizedMultiTask);
        if (f.admitted()) {
          tagged.push_back(Tagged{std::move(*f.future), phase.load()});
        } else {
          std::this_thread::yield();
        }
        ++i;
      }
    });

    const auto steady_window = std::chrono::milliseconds(fast ? 150 : 400);
    std::this_thread::sleep_for(steady_window);
    for (const int64_t library_task : {2, 3}) {
      phase.fetch_add(1);  // during onboard
      core::TaskHandle onboarding = fw.define_task(data::task_by_id(library_task));
      fw.prepare_task_specific(onboarding);
      server.install_snapshot(fw.publish());
      // New task serves immediately — first request right after install.
      // (Retry on queue-full only: the streamer keeps the queue busy;
      // admission accepts the new task from the very first attempt.)
      auto f = server.try_submit(scenes.scene(0).image, onboarding.id,
                                 core::ConfigKind::kTaskSpecific);
      while (!f.admitted()) {
        std::this_thread::yield();
        f = server.try_submit(scenes.scene(0).image, onboarding.id,
                              core::ConfigKind::kTaskSpecific);
      }
      const int64_t first_version = f.future->get().snapshot_version;
      std::printf("  [%s] immediately servable on snapshot v%s\n",
                  onboarding.spec.name.c_str(),
                  fmt::i64(first_version).c_str());
      phase.fetch_add(1);  // after install
      std::this_thread::sleep_for(steady_window);
    }
    stop.store(true);
    streamer.join();
    server.shutdown();

    std::vector<std::vector<double>> per_phase(kPhases);
    int64_t stream_failures = 0;
    for (Tagged& t : tagged) {
      try {
        const runtime::InferenceResult r = t.future.get();
        per_phase[static_cast<size_t>(t.phase)].push_back(r.total_us);
      } catch (const std::exception&) {
        ++stream_failures;
      }
    }
    std::printf("\n%-20s %9s %9s %9s\n", "phase", "requests", "p50(us)",
                "p99(us)");
    for (int p = 0; p < kPhases; ++p) {
      const auto& samples = per_phase[static_cast<size_t>(p)];
      std::printf("%-20s %9s %9.0f %9.0f\n", kPhaseNames[p],
                  fmt::i64(static_cast<int64_t>(samples.size())).c_str(),
                  exact_percentile(samples, 0.50),
                  exact_percentile(samples, 0.99));
    }
    const runtime::RegistrySnapshot scrape =
        static_cast<const runtime::InferenceServer&>(server)
            .metrics()
            .snapshot();
    const auto counter = [&scrape](const char* name) -> int64_t {
      for (const auto& [n, v] : scrape.counters) {
        if (n == name) return v;
      }
      return 0;
    };
    std::printf("\nstream futures carrying exceptions: %s (must be 0)\n",
                fmt::i64(stream_failures).c_str());
    std::printf("snapshots_published %s, tasks_onboarded %s, "
                "requests_failed %s, requests_invalid %s\n",
                fmt::i64(counter("snapshots_published")).c_str(),
                fmt::i64(counter("tasks_onboarded")).c_str(),
                fmt::i64(counter("requests_failed")).c_str(),
                fmt::i64(counter("requests_invalid")).c_str());
  }

  // Exposition sample: what a scrape of the serving registry looks like
  // (bucket series elided for brevity — the quantile/count/sum lines carry
  // the table above in machine-readable form).
  std::printf("\nprometheus exposition sample (last sweep point, "
              "_bucket series elided)\n\n");
  {
    const std::string& text = sweep_rows.back().r.prometheus;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      const std::string line = text.substr(pos, nl - pos);
      if (line.find("_bucket{") == std::string::npos) {
        std::printf("  %s\n", line.c_str());
      }
      pos = nl + 1;
    }
  }

  bench::print_footer_note(
      "shape: throughput rises from 1 worker to the core count, then "
      "flattens; p99 grows with max_wait (requests idle while a batch stays "
      "open). Per-stage breakdown: queue-wait dominates total latency when "
      "workers are scarce and shrinks as workers grow; batch-formation stays "
      "small (stacking only); infer grows mildly with max_batch. Degradation "
      "table: completed + failed + expired == admitted requests (no request "
      "lost or hung); injected faults surface on the affected futures only, "
      "and a deadline converts queue-growth overload into bounded-latency "
      "shedding. Kernel attribution: the int8 activation pack and "
      "micro-kernel hold the largest shares; the vectorized activation "
      "quantize and the dequantize are minorities. Live onboarding: zero "
      "stream failures across both publishes, each onboarded task serves "
      "from the first post-install request, and p50/p99 return to "
      "steady-state level in the after-install phases — the 'during' rows "
      "run hot only because distillation shares the CPU with the workers "
      "(the snapshot swap itself is one pointer move). Arena footprint: "
      "high-water <= planned capacity, and overflows are exactly 0 — the "
      "plan_workspace measurement covers the serving peak. F6 is the "
      "multi-core exception to the single-core bench budget — worker "
      "scaling is the subject.");
  return 0;
}
