#include "runtime/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "tensor/arena.h"
#include "tensor/format.h"

namespace itask::runtime {

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kTenantQuota: return "tenant_quota";
  }
  return "unknown";
}

InferenceServer::InferenceServer(
    std::shared_ptr<const core::DeploymentSnapshot> snapshot,
    RuntimeOptions options)
    : options_(options),
      clock_(options_.clock_us ? options_.clock_us : ClockFn(steady_clock_us)),
      queue_(options.queue_capacity),
      stages_(metrics_),
      requests_submitted_(metrics_.counter("requests_submitted")),
      requests_invalid_(metrics_.counter("requests_invalid")),
      rejected_queue_full_(metrics_.counter("rejected_queue_full")),
      rejected_shutdown_(metrics_.counter("rejected_shutdown")),
      snapshots_published_(metrics_.counter("snapshots_published")),
      tasks_onboarded_(metrics_.counter("tasks_onboarded")),
      snapshot_version_skew_(metrics_.counter("snapshot_version_skew")),
      groups_submitted_(metrics_.counter("groups_submitted")),
      groups_completed_(metrics_.counter("groups_completed")),
      groups_failed_(metrics_.counter("groups_failed")),
      group_fuse_h_(metrics_.histogram("group_fuse_us")),
      snapshot_(std::move(snapshot)) {
  ITASK_CHECK(snapshot_ != nullptr,
              "InferenceServer: snapshot must not be null");
  ITASK_CHECK(options_.workers >= 1, "InferenceServer: workers must be >= 1");
  ITASK_CHECK(options_.max_batch >= 1,
              "InferenceServer: max_batch must be >= 1");
  ITASK_CHECK(options_.max_wait_us >= 0,
              "InferenceServer: max_wait_us must be >= 0");
  ITASK_CHECK(options_.deadline_us >= 0,
              "InferenceServer: deadline_us must be >= 0");
  // The initial snapshot counts as one publish; its tasks were never
  // *onboarded* live.
  snapshots_published_.increment();
  // Size the per-worker arenas before any worker exists: the snapshot
  // measures its own peak workspace (stacked batch + every inference
  // intermediate) for the largest micro-batch this server forms.
  workspace_bytes_.store(snapshot_->plan_workspace(options_.max_batch),
                         std::memory_order_relaxed);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int64_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::install_snapshot(
    std::shared_ptr<const core::DeploymentSnapshot> snapshot) {
  ITASK_CHECK(snapshot != nullptr,
              "install_snapshot: snapshot must not be null");
  // Re-plan the per-worker workspace for the incoming snapshot before taking
  // the lock (the probe runs real inference). The published bound only ever
  // grows: in-flight batches may still serve the old snapshot, and workers
  // grow their arenas lazily at the next micro-batch boundary.
  const int64_t bytes = snapshot->plan_workspace(options_.max_batch);
  int64_t cur = workspace_bytes_.load(std::memory_order_relaxed);
  while (bytes > cur && !workspace_bytes_.compare_exchange_weak(
                            cur, bytes, std::memory_order_relaxed)) {
  }
  int64_t onboarded = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    ITASK_CHECK(snapshot->version() > snapshot_->version(),
                "install_snapshot: version " + fmt::i64(snapshot->version()) +
                    " does not increase over installed v" +
                    fmt::i64(snapshot_->version()));
    ITASK_CHECK(
        snapshot->expected_input_shape() == snapshot_->expected_input_shape(),
        "install_snapshot: expected input shape changed — the admission "
        "contract must stay stable across snapshots");
    onboarded = std::max<int64_t>(
        0, snapshot->task_count() - snapshot_->task_count());
    snapshot_ = std::move(snapshot);
    // The old snapshot_ value drops here; workers mid-batch still hold their
    // acquired reference, so it retires only when the last of them finishes.
  }
  snapshots_published_.increment();
  if (onboarded > 0) {
    tasks_onboarded_.increment(onboarded);
  }
}

std::shared_ptr<const core::DeploymentSnapshot>
InferenceServer::current_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

template <class R>
BasicSubmitResult<R> InferenceServer::admit(
    std::span<Pending> members, std::promise<R>& promise,
    const std::shared_ptr<GroupGather>& gather, kg::TaskId task,
    core::ConfigKind config, std::optional<int64_t> deadline_us) {
  const char* entry = gather ? "try_submit_group" : "try_submit";
  const int64_t k = static_cast<int64_t>(members.size());
  ITASK_CHECK(k >= 1, std::string(entry) + ": need at least one view");
  // A group larger than the queue could never be admitted whole; that is a
  // configuration error, not transient backpressure.
  ITASK_CHECK(k <= options_.queue_capacity,
              std::string(entry) + ": " + fmt::i64(k) +
                  " views can never fit the admission queue (capacity " +
                  fmt::i64(options_.queue_capacity) + ")");
  // Admission-time validation against ONE acquisition of the *current*
  // snapshot, before anything is queued: malformed requests fail fast at
  // the edge with a clear message (a malformed view rejects the whole
  // logical request), so a worker never sees an image it cannot stack or
  // score, or a task no snapshot it acquires could serve (task tables only
  // grow across versions).
  const std::shared_ptr<const core::DeploymentSnapshot> snapshot =
      current_snapshot();
  const Shape& expected = snapshot->expected_input_shape();
  const auto subject = [&](int64_t v) {
    return std::string(entry) +
           (gather ? ": view " + fmt::i64(v) : std::string(": image"));
  };
  for (int64_t v = 0; v < k; ++v) {
    const Tensor& image = members[static_cast<size_t>(v)].image;
    if (image.shape() != expected) {
      requests_invalid_.increment();
      ITASK_CHECK(false, subject(v) + " shape " +
                             shape_to_string(image.shape()) +
                             " does not match the deployment's expected "
                             "[C, H, W] shape " +
                             shape_to_string(expected));
    }
    if (std::ranges::any_of(image.data(),
                            [](float x) { return !std::isfinite(x); })) {
      requests_invalid_.increment();
      ITASK_CHECK(false, subject(v) + " has a non-finite pixel (NaN or inf)");
    }
  }
  if (!snapshot->servable(task, config)) {
    requests_invalid_.increment();
    ITASK_CHECK(false,
                std::string(entry) + ": configuration " +
                    core::config_kind_name(config) + " cannot serve " +
                    kg::task_id_to_string(task) + " from snapshot v" +
                    fmt::i64(snapshot->version()) +
                    " (publish and install a snapshot containing it first)");
  }
  const int64_t budget_us = deadline_us.value_or(options_.deadline_us);
  ITASK_CHECK(budget_us >= 0,
              std::string(entry) + ": deadline_us must be >= 0");

  const int64_t admitted_us = clock_();
  // Absolute deadline, saturating: a budget past the end of the clock
  // clamps to INT64_MAX, which no pick-up time reaches ("never expires").
  int64_t deadline_at_us = 0;  // none
  if (budget_us > 0 &&
      __builtin_add_overflow(admitted_us, budget_us, &deadline_at_us)) {
    deadline_at_us = std::numeric_limits<int64_t>::max();
  }
  if (gather) {
    gather->group_id = next_group_id_.fetch_add(1, std::memory_order_relaxed);
    gather->admitted_us = admitted_us;
    gather->fusion = options_.fusion;
    gather->views.resize(static_cast<size_t>(k));
    gather->remaining = k;
  }
  for (int64_t v = 0; v < k; ++v) {
    Pending& pending = members[static_cast<size_t>(v)];
    pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    pending.task = task;
    pending.config = config;
    pending.admitted_us = admitted_us;
    pending.deadline_us = deadline_at_us;
    pending.admitted_version = snapshot->version();
    pending.group = gather;
    pending.view_index = v;
  }
  // Taken before the push: from then on a worker may already fulfil it.
  std::future<R> future = promise.get_future();
  // All-or-nothing: either every member is queued contiguously under one
  // lock or none is — a partially admitted group (siblings rejected, gather
  // never completable) cannot exist.
  switch (queue_.push_all(members)) {
    case PushResult::kFull:
      rejected_queue_full_.increment();
      return {std::nullopt, RejectReason::kQueueFull};
    case PushResult::kClosed:
      rejected_shutdown_.increment();
      return {std::nullopt, RejectReason::kShuttingDown};
    case PushResult::kOk:
      break;
  }
  if (gather) groups_submitted_.increment();
  requests_submitted_.increment(k);
  return {std::move(future)};
}

SubmitResult InferenceServer::try_submit(Tensor image, TaskRef task,
                                         core::ConfigKind config,
                                         std::optional<int64_t> deadline_us) {
  Pending pending;
  pending.image = std::move(image);
  return admit({&pending, 1}, pending.promise, nullptr, task.id, config,
               deadline_us);
}

GroupSubmitResult InferenceServer::try_submit_group(
    std::vector<Tensor> views, TaskRef task, core::ConfigKind config,
    std::optional<int64_t> deadline_us) {
  // Each view becomes an ordinary Pending riding the ordinary hot path; the
  // gather pointer is the only thing marking it as a group member.
  std::vector<Pending> members(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    members[v].image = std::move(views[v]);
  }
  auto gather = std::make_shared<GroupGather>();
  return admit(members, gather->promise, gather, task.id, config,
               deadline_us);
}

void InferenceServer::deliver(Pending& pending, InferenceResult&& result) {
  if (!pending.group) {
    pending.promise.set_value(std::move(result));
    return;
  }
  const std::shared_ptr<GroupGather> gather = pending.group;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(gather->mu);
    gather->views[static_cast<size_t>(pending.view_index)] = std::move(result);
    last = --gather->remaining == 0;
  }
  if (last) finish_group(gather);
}

void InferenceServer::deliver_error(Pending& pending,
                                    const std::exception_ptr& error,
                                    const std::string& what) {
  if (!pending.group) {
    pending.promise.set_exception(error);
    return;
  }
  const std::shared_ptr<GroupGather> gather = pending.group;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(gather->mu);
    ++gather->failed_views;
    // The *lowest* failed view index wins the headline, not whichever
    // failure arrived first — keeps the reported fault deterministic under
    // any worker interleaving.
    if (gather->first_failed_view < 0 ||
        pending.view_index < gather->first_failed_view) {
      gather->first_failed_view = pending.view_index;
      gather->first_error = what;
    }
    last = --gather->remaining == 0;
  }
  if (last) finish_group(gather);
}

void InferenceServer::finish_group(
    const std::shared_ptr<GroupGather>& gather) {
  // Sole owner of the finish: remaining hit 0 under gather->mu, so every
  // sibling's deposit happened-before this read and no lock is needed.
  const int64_t k = static_cast<int64_t>(gather->views.size());
  if (gather->failed_views > 0) {
    groups_failed_.increment();
    gather->promise.set_exception(std::make_exception_ptr(GroupViewFault(
        "group " + fmt::i64(gather->group_id) + ": " +
            fmt::i64(gather->failed_views) + " of " + fmt::i64(k) +
            " views failed (first: view " +
            fmt::i64(gather->first_failed_view) + ": " + gather->first_error +
            ")",
        gather->first_failed_view, gather->failed_views)));
    return;
  }
  // Fusion runs here, on the worker that delivered the last view — after
  // that worker's arena epilogue and with no ArenaScope bound, so the fused
  // Detections are heap-backed and the allocation-free hot-path contract is
  // untouched by group traffic.
  const int64_t fuse_start_us = clock_();
  std::vector<std::vector<detect::Detection>> per_view;
  per_view.reserve(static_cast<size_t>(k));
  for (const InferenceResult& r : gather->views) {
    per_view.push_back(r.detections);
  }
  GroupInferenceResult out;
  out.group_id = gather->group_id;
  out.fused = detect::fuse_views(per_view, gather->fusion);
  out.view_count = k;
  const int64_t fuse_end_us = clock_();
  out.fuse_us = span_us(fuse_start_us, fuse_end_us);
  out.total_us = span_us(gather->admitted_us, fuse_end_us);
  out.views = std::move(gather->views);
  groups_completed_.increment();
  group_fuse_h_.record(out.fuse_us);
  gather->promise.set_value(std::move(out));
}

void InferenceServer::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();  // admission stops; workers drain what was accepted
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void InferenceServer::worker_loop(int64_t worker_index) {
  Counter& completed = metrics_.counter("requests_completed");
  Counter& failed = metrics_.counter("requests_failed");
  Counter& expired = metrics_.counter("requests_expired");
  Counter& batches = metrics_.counter("batches");
  Counter& hot_allocs = metrics_.counter("hot_path_allocs");
  Counter& arena_overflow = metrics_.counter("arena_overflow_allocs");
  Histogram& batch_h = metrics_.histogram("batch_size");
  Histogram& arena_used_h = metrics_.histogram("arena_used_bytes");

  // This worker's whole steady state lives in storage hoisted out of the
  // loop: the micro-batch vector and done/group scratch reuse their heap
  // capacity forever, and the arena serves the per-group hot region.
  Arena arena(workspace_bytes_.load(std::memory_order_relaxed));
  int64_t overflow_seen = 0;
  std::vector<Pending> batch;
  std::vector<char> done;
  std::vector<size_t> group;

  while (true) {
    queue_.pop_batch(options_.max_batch,
                     std::chrono::microseconds(options_.max_wait_us), batch);
    if (batch.empty()) return;  // closed and drained
    // One snapshot acquisition per micro-batch (RCU read-side critical
    // section): every group in this batch serves from the same immutable
    // version, however many installs happen while it runs.
    const std::shared_ptr<const core::DeploymentSnapshot> snapshot =
        current_snapshot();
    // A newly installed snapshot may have published a larger workspace
    // bound; the arena is empty between groups, so growing here (outside
    // the measured hot region) is legal and rare.
    const int64_t want = workspace_bytes_.load(std::memory_order_relaxed);
    if (want > arena.capacity()) arena.grow(want);
    const int64_t picked_us = clock_();
    batches.increment();
    batch_h.record(static_cast<double>(batch.size()));

    done.assign(batch.size(), 0);
    // Deadline shedding at batch-formation time: a request that already
    // missed its deadline gets DeadlineExceeded instead of inference time,
    // so under overload latency degrades boundedly rather than the queue
    // serving ever-staler work.
    for (size_t i = 0; i < batch.size(); ++i) {
      Pending& p = batch[i];
      if (p.deadline_us == 0 || picked_us < p.deadline_us) continue;
      expired.increment();
      // The wait is reported as what the queue-wait stage records: the
      // non-negative integer-µs span (no double→int truncation, no
      // negative value if clock readings ever raced).
      const int64_t waited_us = std::max<int64_t>(0, picked_us - p.admitted_us);
      const std::string what = "request " + std::to_string(p.id) +
                               " expired after " + fmt::i64(waited_us) +
                               " us in queue";
      deliver_error(p,
                    std::make_exception_ptr(DeadlineExceeded(what)), what);
      // Expired requests never reach inference: account their queue-wait
      // stage (the only real span), not a garbage end-to-end latency.
      StageTimeline t;
      t.admitted_us = p.admitted_us;
      t.picked_us = picked_us;
      t.snapshot_version = snapshot->version();
      stages_.expired(t);
      done[i] = 1;
    }

    // Admitted-vs-served version skew: try_submit validated each request
    // against the snapshot current at admission, but this batch serves from
    // whatever was installed by pick-up time. Safe by contract (task tables
    // only grow, weights for existing tasks are identical), but counted so
    // staged rollouts are observable rather than silent.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      if (batch[i].admitted_version != snapshot->version()) {
        snapshot_version_skew_.increment();
      }
    }

    // A micro-batch may mix configurations and tasks; each (config, task)
    // group becomes one stacked [B, C, H, W] forward. Submission order is
    // preserved within a group, so results stay deterministic.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      group.clear();
      for (size_t j = i; j < batch.size(); ++j) {
        if (!done[j] && batch[j].config == batch[i].config &&
            batch[j].task == batch[i].task) {
          group.push_back(j);
        }
      }

      // Fault isolation: a throw anywhere in this group's inference (stack,
      // fault_injector, infer_raw, decode_batch) fails exactly this group's
      // futures; the worker keeps draining, other groups and later batches
      // are untouched. Admission validated against an earlier snapshot and
      // tables only grow, so the not-servable throw is unreachable in
      // practice — but if it ever fires it lands here, on this group only.
      std::vector<std::vector<detect::Detection>> detections;
      int64_t infer_start_us = 0;
      int64_t infer_end_us = 0;
      bool group_failed = false;
      try {
        if (options_.fault_injector) {
          FaultSite site;
          site.worker = worker_index;
          site.first_request_id = batch[group.front()].id;
          site.group_size = static_cast<int64_t>(group.size());
          site.config = batch[i].config;
          site.task = batch[i].task;
          site.snapshot_version = snapshot->version();
          options_.fault_injector(site);
        }
        // The arena-scoped hot region: stacking plus the full model forward.
        // The raw outputs stay arena-resident; the scope must end before
        // decode so the Detections escaping into results are heap-backed,
        // and the arena resets only after decode finished reading them.
        vit::VitOutput raw;
        const int64_t allocs_before = allocdebug::thread_alloc_count();
        {
          const ArenaScope scope(arena);
          const Shape& img = batch[i].image.shape();
          Tensor stacked(
              {static_cast<int64_t>(group.size()), img[0], img[1], img[2]});
          for (size_t g = 0; g < group.size(); ++g) {
            stacked.set_index(static_cast<int64_t>(g), batch[group[g]].image);
          }
          infer_start_us = clock_();
          raw = snapshot->infer_raw(stacked, batch[i].task, batch[i].config);
        }
        // Nonzero only in binaries that interpose operator new onto
        // allocdebug — the zero-steady-state-allocation contract's meter.
        const int64_t allocs_delta =
            allocdebug::thread_alloc_count() - allocs_before;
        if (allocs_delta > 0) hot_allocs.increment(allocs_delta);
        detections = snapshot->decode_batch(raw, batch[i].task,
                                            batch[i].config);
        infer_end_us = clock_();
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        std::string what = "unknown error";
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        for (const size_t member : group) {
          Pending& p = batch[member];
          deliver_error(p, error, what);
          failed.increment();
          // The fault hit somewhere in batch formation or inference, so the
          // queue-wait span is the only one known to be real.
          StageTimeline t;
          t.admitted_us = p.admitted_us;
          t.picked_us = picked_us;
          t.snapshot_version = snapshot->version();
          stages_.failed(t);
          done[member] = 1;
        }
        group_failed = true;
      }
      // Per-group arena epilogue, on success and failure alike: record the
      // footprint, surface any undersized-arena overflows, and reset —
      // `raw` is gone, so nothing references arena memory past this point.
      arena_used_h.record(static_cast<double>(arena.used()));
      const int64_t overflows = arena.overflow_allocs();
      if (overflows > overflow_seen) {
        arena_overflow.increment(overflows - overflow_seen);
        overflow_seen = overflows;
      }
      arena.reset();
      if (group_failed) continue;

      for (size_t g = 0; g < group.size(); ++g) {
        Pending& p = batch[group[g]];
        StageTimeline t;
        t.admitted_us = p.admitted_us;
        t.picked_us = picked_us;
        t.infer_start_us = infer_start_us;
        t.infer_end_us = infer_end_us;
        t.snapshot_version = snapshot->version();
        InferenceResult result;
        result.request_id = p.id;
        result.detections = std::move(detections[g]);
        result.batch_size = static_cast<int64_t>(batch.size());
        result.worker = worker_index;
        result.snapshot_version = snapshot->version();
        result.queue_us = span_us(t.admitted_us, t.picked_us);
        result.batch_formation_us = span_us(t.picked_us, t.infer_start_us);
        result.infer_us = span_us(t.infer_start_us, t.infer_end_us);
        result.total_us = span_us(t.admitted_us, t.infer_end_us);
        result.timeline = t;
        stages_.completed(t);
        completed.increment();
        // Group views gather here instead of resolving their own future; the
        // last view's deliver runs fusion — after the arena epilogue above.
        deliver(p, std::move(result));
        done[group[g]] = 1;
      }
    }
  }
}

}  // namespace itask::runtime
