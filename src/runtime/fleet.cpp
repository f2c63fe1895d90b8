#include "runtime/fleet.h"

#include <algorithm>
#include <utility>

#include "tensor/format.h"

namespace itask::runtime {

FleetRouter::FleetRouter(int64_t shards, int64_t replication)
    : shards_(shards) {
  // Validate before clamping: [1, shards] is only a range for shards >= 1.
  ITASK_CHECK(shards >= 1, "FleetRouter: shards must be >= 1");
  ITASK_CHECK(replication >= 1, "FleetRouter: replication must be >= 1");
  replication_ = std::min(replication, shards);
}

std::vector<int64_t> FleetRouter::replicas(kg::TaskId task) const {
  // Rendezvous ranking: every shard hashes the task against its own salt
  // (the shard index); sort descending. Ties are impossible in practice
  // (64-bit hashes) but break toward the lower shard index for a total
  // deterministic order regardless.
  std::vector<int64_t> order(static_cast<size_t>(shards_));
  for (int64_t s = 0; s < shards_; ++s) order[static_cast<size_t>(s)] = s;
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const uint64_t ha = kg::task_route_hash(task, static_cast<uint64_t>(a));
    const uint64_t hb = kg::task_route_hash(task, static_cast<uint64_t>(b));
    if (ha != hb) return ha > hb;
    return a < b;
  });
  order.resize(static_cast<size_t>(replication_));
  return order;
}

int64_t FleetRouter::route(kg::TaskId task, int64_t sequence) const {
  ITASK_CHECK(sequence >= 0, "FleetRouter::route: sequence must be >= 0");
  return replicas(task)[static_cast<size_t>(sequence % replication_)];
}

InferenceFleet::InferenceFleet(
    std::shared_ptr<const core::DeploymentSnapshot> snapshot,
    FleetOptions options)
    : options_(std::move(options)),
      router_(options_.shards, options_.replication),
      submitted_(metrics_.counter("fleet_submitted")),
      admitted_(metrics_.counter("fleet_admitted")),
      quota_rejected_(metrics_.counter("fleet_quota_rejected")),
      queue_full_rejected_(metrics_.counter("fleet_rejected_queue_full")),
      shutdown_rejected_(metrics_.counter("fleet_rejected_shutdown")),
      failovers_(metrics_.counter("fleet_failovers")),
      invalid_(metrics_.counter("fleet_requests_invalid")),
      window_resets_(metrics_.counter("fleet_fairness_window_resets")),
      rollouts_started_(metrics_.counter("fleet_rollouts_started")),
      rollouts_completed_(metrics_.counter("fleet_rollouts_completed")),
      rollouts_failed_(metrics_.counter("fleet_rollouts_failed")),
      shard_installs_(metrics_.counter("fleet_shard_installs")) {
  ITASK_CHECK(snapshot != nullptr, "InferenceFleet: snapshot must not be null");
  ITASK_CHECK(options_.tenant_quota >= 0,
              "InferenceFleet: tenant_quota must be >= 0");
  ITASK_CHECK(options_.quota_window >= 1,
              "InferenceFleet: quota_window must be >= 1");
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int64_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(
        std::make_unique<InferenceServer>(snapshot, options_.shard_options));
  }
}

InferenceFleet::~InferenceFleet() { shutdown(); }

InferenceServer& InferenceFleet::shard(int64_t index) {
  ITASK_CHECK(index >= 0 && index < shard_count(),
              "InferenceFleet::shard: index " + fmt::i64(index) +
                  " out of range [0, " + fmt::i64(shard_count()) + ")");
  return *shards_[static_cast<size_t>(index)];
}

std::vector<int64_t> InferenceFleet::shard_versions() const {
  std::vector<int64_t> versions;
  versions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    versions.push_back(shard->current_snapshot()->version());
  }
  return versions;
}

template <class R, class ShardSubmit>
BasicSubmitResult<R> InferenceFleet::place(kg::TaskId task,
                                           core::ConfigKind config,
                                           int64_t tenant, const char* entry,
                                           ShardSubmit&& submit) {
  std::lock_guard<std::mutex> lock(mu_);
  submitted_.increment();
  if (stopped_) {
    shutdown_rejected_.increment();
    return {std::nullopt, RejectReason::kShuttingDown};
  }
  // Fairness window: every attempt advances it (so a saturated tenant's
  // rejected attempts still roll the window toward its next grant), and the
  // per-tenant fairness counters reset when it wraps. A group is ONE
  // logical request: it advances the window and consumes quota once,
  // regardless of K — a tenant cannot stretch its bounded share by
  // inflating view counts into admission concurrency.
  if (options_.tenant_quota > 0) {
    if (++window_attempts_ > options_.quota_window) {
      window_attempts_ = 1;
      window_admissions_.clear();
      window_resets_.increment();
    }
    if (window_admissions_[tenant] >= options_.tenant_quota) {
      quota_rejected_.increment();
      return {std::nullopt, RejectReason::kTenantQuota};
    }
  }
  // Replica rotation with failover: start at the slot this task's
  // submission sequence selects, then walk the rest of the replica set past
  // full (or, mid-rollout, not-yet-servable) shards. A group moves as a
  // unit: its views share one scene, so splitting them across shards would
  // buy nothing and cost a cross-registry gather.
  const std::vector<int64_t> replicas = router_.replicas(task);
  const int64_t seq = route_seq_[task]++;
  const int64_t r = static_cast<int64_t>(replicas.size());
  bool any_servable = false;
  for (int64_t k = 0; k < r; ++k) {
    const int64_t shard_index = replicas[static_cast<size_t>((seq + k) % r)];
    InferenceServer& server = *shards_[static_cast<size_t>(shard_index)];
    if (!server.current_snapshot()->servable(task, config)) {
      // Version skew between shards: this replica has not seen the snapshot
      // that defines the task yet. Skip it — another replica may have.
      failovers_.increment();
      continue;
    }
    any_servable = true;
    // A rejected shard submit consumes the payload it was handed, so only
    // the last candidate replica may take it by move — earlier attempts get
    // a copy to keep failover possible. (Single-replica fleets, the default,
    // never copy.)
    BasicSubmitResult<R> attempt = submit(server, k + 1 == r);
    if (attempt.admitted()) {
      if (options_.tenant_quota > 0) ++window_admissions_[tenant];
      admitted_.increment();
      attempt.shard = shard_index;
      return attempt;
    }
    failovers_.increment();
    if (attempt.reject == RejectReason::kShuttingDown) {
      shutdown_rejected_.increment();
      return {std::nullopt, RejectReason::kShuttingDown};
    }
  }
  if (!any_servable) {
    invalid_.increment();
    ITASK_CHECK(false, std::string("InferenceFleet::") + entry +
                           ": configuration " +
                           core::config_kind_name(config) + " cannot serve " +
                           kg::task_id_to_string(task) +
                           " on any of its replica shards (publish and roll "
                           "out a snapshot containing it first)");
  }
  queue_full_rejected_.increment();
  return {std::nullopt, RejectReason::kQueueFull};
}

SubmitResult InferenceFleet::try_submit(Tensor image, TaskRef task,
                                        core::ConfigKind config, int64_t tenant,
                                        std::optional<int64_t> deadline_us) {
  return place<InferenceResult>(
      task.id, config, tenant, "try_submit",
      [&](InferenceServer& server, bool last_candidate) {
        return server.try_submit(
            last_candidate ? std::move(image) : Tensor(image), task, config,
            deadline_us);
      });
}

GroupSubmitResult InferenceFleet::try_submit_group(
    std::vector<Tensor> views, TaskRef task, core::ConfigKind config,
    int64_t tenant, std::optional<int64_t> deadline_us) {
  ITASK_CHECK(!views.empty(),
              "InferenceFleet::try_submit_group: need at least one view");
  return place<GroupInferenceResult>(
      task.id, config, tenant, "try_submit_group",
      [&](InferenceServer& server, bool last_candidate) {
        return server.try_submit_group(
            last_candidate ? std::move(views) : std::vector<Tensor>(views),
            task, config, deadline_us);
      });
}

RolloutResult InferenceFleet::install_snapshot(
    std::shared_ptr<const core::DeploymentSnapshot> snapshot) {
  ITASK_CHECK(snapshot != nullptr,
              "InferenceFleet::install_snapshot: snapshot must not be null");
  std::lock_guard<std::mutex> rollout_lock(rollout_mu_);
  RolloutResult result;
  result.version = snapshot->version();
  // Version-skew tolerance contract, asserted before ANY shard changes:
  // every task any shard currently serves must exist in the new snapshot
  // (task tables only grow), otherwise the mixed-version state a staged
  // rollout passes through could strand admitted requests.
  for (const auto& shard : shards_) {
    const auto current = shard->current_snapshot();
    const std::optional<kg::TaskId> missing =
        snapshot->first_missing_task(*current);
    ITASK_CHECK(!missing.has_value(),
                "InferenceFleet::install_snapshot: snapshot v" +
                    fmt::i64(snapshot->version()) + " drops " +
                    kg::task_id_to_string(*missing) + " still served by v" +
                    fmt::i64(current->version()) +
                    " — task tables must only grow across versions");
  }
  rollouts_started_.increment();
  for (int64_t s = 0; s < shard_count(); ++s) {
    InferenceServer& server = *shards_[static_cast<size_t>(s)];
    if (server.current_snapshot()->version() >= snapshot->version()) {
      // Already rolled (a retry after a mid-rollout failure resumes here).
      ++result.already_current;
      continue;
    }
    try {
      if (options_.rollout_hook) {
        options_.rollout_hook(s, snapshot->version());
      }
      server.install_snapshot(snapshot);
    } catch (const std::exception& e) {
      // The rollback path: stop the stage here. Versions are monotone, so
      // shards 0..s-1 keep the new snapshot, s.. keep the old — a state the
      // skew contract makes safe — and a retry resumes at this shard.
      rollouts_failed_.increment();
      result.failed_shard = s;
      result.error = e.what();
      return result;
    }
    shard_installs_.increment();
    ++result.installed;
  }
  rollouts_completed_.increment();
  return result;
}

RegistrySnapshot InferenceFleet::merged_metrics() const {
  std::vector<RegistrySnapshot> parts;
  parts.reserve(shards_.size() + 1);
  parts.push_back(metrics_.snapshot());
  for (const auto& shard : shards_) {
    parts.push_back(shard->metrics().snapshot());
  }
  return merge_snapshots(parts);
}

int64_t InferenceFleet::tenant_window_admissions(int64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = window_admissions_.find(tenant);
  return it == window_admissions_.end() ? 0 : it->second;
}

void InferenceFleet::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  for (const auto& shard : shards_) {
    shard->shutdown();
  }
}

}  // namespace itask::runtime
