#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <tuple>

#include "detect/fusion.h"
#include "detect/metrics.h"
#include "kg/matcher.h"
#include "perfbench/src/harness.h"
#include "tensor/profile.h"
#include "vit/workload.h"

namespace perfbench {

using itask::Tensor;
using itask::core::ConfigKind;
namespace core = itask::core;
namespace data = itask::data;
namespace detect = itask::detect;
namespace runtime = itask::runtime;

namespace {

constexpr int64_t kPoolScenes = 256;
constexpr int64_t kEvalScenes = 512;
constexpr uint64_t kEvalSeed = 8675309;
constexpr int64_t kGroupViews = 3;
constexpr int64_t kGroupInputs = 64;
constexpr float kViewSigma = 0.05f;
constexpr double kSloUs = 10'000.0;

/// Requests for library tasks 1-2 (task index 0-1) use the task-specific
/// fp32 students; tasks 3-4 and every task onboarded from text use the
/// quantized INT8 model.
ConfigKind config_of(int64_t task_index) {
  return task_index < 2 ? ConfigKind::kTaskSpecific
                        : ConfigKind::kQuantizedMultiTask;
}

/// Reduced training budgets; the student architecture stays the full-size
/// d40, so per-image compute equals a full-budget deployment's.
core::FrameworkOptions deployment_options() {
  core::FrameworkOptions o;
  o.seed = 42;
  o.corpus_size = 256;
  o.task_corpus_size = 96;
  o.multitask_corpus_size = 96;
  o.teacher_training.epochs = 12;
  o.distillation.epochs = 12;
  // At 12 epochs the INT8 multi-task student detects nothing (F1 0), so
  // the knowledge-graph decode path would only ever see empty candidate
  // lists; 30 (the library default) keeps it a working detector.
  o.multitask_distillation.epochs = 30;
  return o;
}

runtime::FleetOptions fleet_options() {
  runtime::FleetOptions f;
  f.shards = 2;
  f.replication = 2;
  f.shard_options.workers = 1;
  f.shard_options.max_batch = 8;
  f.shard_options.max_wait_us = 500;
  // Deep enough that burst_onboard's bursts never fill it: the workloads
  // are chosen so that no request is rejected.
  f.shard_options.queue_capacity = 1024;
  return f;
}

/// The K views of one group request, pure in (scene image, view_seed).
std::vector<Tensor> group_views(const Tensor& image, uint64_t view_seed) {
  return detect::jittered_views(image, kGroupViews, kViewSigma, view_seed);
}

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream f("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(f >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(f >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time the hypervisor stole between two readings (0 when
/// /proc/stat is unreadable).
double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t clock_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

/// [N, C, H, W] from per-image [C, H, W] tensors.
Tensor stack(const std::vector<const Tensor*>& images) {
  itask::Shape shape = images.front()->shape();
  shape.insert(shape.begin(), static_cast<int64_t>(images.size()));
  Tensor out(shape);
  float* dst = out.data().data();
  for (const Tensor* image : images) {
    const auto src = image->data();
    std::memcpy(dst, src.data(), src.size() * sizeof(float));
    dst += src.size();
  }
  return out;
}

/// Digest of a detection list over the bits of every field, in order: two
/// lists with equal digests are element-wise identical (up to a 2^-64
/// collision). Served outputs are reduced to digests inside the timed
/// window, so the window frees them as a real client would instead of
/// growing the heap with every result it keeps for the correctness gate.
class Digest {
 public:
  void add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; bytes >= 4; bytes -= 4, p += 4) {
      uint32_t w = 0;
      std::memcpy(&w, p, 4);
      mix(w);
    }
    for (; bytes > 0; --bytes, ++p) mix(*p);
  }
  template <typename T>
  void add_value(T v) {
    add(&v, sizeof v);
  }
  void add_tensor(const Tensor& t) {
    add_value(t.numel());
    for (const int64_t dim : t.shape()) add_value(dim);
    const auto x = t.data();
    add(x.data(), x.size() * sizeof(float));
  }
  uint64_t value() const {
    uint64_t z = h_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  void mix(uint32_t w) { h_ = (h_ ^ w) * 0x100000001B3ULL; }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

uint64_t digest(const Dets& dets) {
  Digest h;
  h.add_value(dets.size());
  for (const detect::Detection& x : dets) {
    h.add_value(x.cell);
    h.add_value(x.predicted_class);
    h.add_value(x.objectness);
    h.add_value(x.task_score);
    h.add_value(x.confidence);
    h.add_value(x.box.cx);
    h.add_value(x.box.cy);
    h.add_value(x.box.w);
    h.add_value(x.box.h);
    h.add_tensor(x.attr_probs);
    h.add_tensor(x.class_probs);
  }
  return h.value();
}

/// Digests of serial reference outputs of one snapshot, computed on first
/// use: DeploymentSnapshot::infer_batch on one image at a time, and for
/// groups per-view serial inference followed by detect::fuse_views.
class Reference {
 public:
  explicit Reference(std::shared_ptr<const core::DeploymentSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  uint64_t single(const Tensor& image, itask::kg::TaskId id,
                  ConfigKind config) {
    return digest(serial(image, id, config));
  }

  uint64_t fused(const std::vector<Tensor>& views, itask::kg::TaskId id,
                 ConfigKind config) {
    const auto k = std::make_tuple(static_cast<const void*>(&views), id,
                                   config);
    auto it = fused_.find(k);
    if (it == fused_.end()) {
      std::vector<Dets> per_view;
      for (const Tensor& v : views) per_view.push_back(serial(v, id, config));
      it = fused_.emplace(k, digest(detect::fuse_views(per_view, fusion_)))
               .first;
    }
    return it->second;
  }

 private:
  using Key = std::tuple<const void*, itask::kg::TaskId, ConfigKind>;

  const Dets& serial(const Tensor& image, itask::kg::TaskId id,
                     ConfigKind config) {
    const auto k = std::make_tuple(static_cast<const void*>(&image), id,
                                   config);
    auto it = singles_.find(k);
    if (it == singles_.end()) {
      auto out = snapshot_->infer_batch(stack({&image}), id, config);
      it = singles_.emplace(k, std::move(out.front())).first;
    }
    return it->second;
  }

  std::shared_ptr<const core::DeploymentSnapshot> snapshot_;
  detect::FusionOptions fusion_ = fleet_options().shard_options.fusion;
  std::map<Key, Dets> singles_;  // keyed by the input's address
  std::map<Key, uint64_t> fused_;
};

/// One served single request (a pool scene) or group request (a view set),
/// reduced to what the correctness gate needs.
struct SingleRecord {
  const Tensor* image = nullptr;
  itask::kg::TaskId task;
  ConfigKind config = ConfigKind::kTaskSpecific;
  int64_t version = 0;
  uint64_t digest = 0;
  friend auto operator<=>(const SingleRecord&, const SingleRecord&) = default;
};
struct GroupRecord {
  const std::vector<Tensor>* views = nullptr;
  itask::kg::TaskId task;
  ConfigKind config = ConfigKind::kTaskSpecific;
  std::vector<int64_t> view_versions;
  std::vector<uint64_t> view_digests;
  uint64_t fused_digest = 0;
  friend auto operator<=>(const GroupRecord&, const GroupRecord&) = default;
};

SingleRecord record_of(const Tensor* image, itask::kg::TaskId task,
                       ConfigKind config,
                       const runtime::InferenceResult& r) {
  return SingleRecord{image, task, config, r.snapshot_version,
                      digest(r.detections)};
}

GroupRecord record_of(const std::vector<Tensor>* views,
                      itask::kg::TaskId task, ConfigKind config,
                      const runtime::GroupInferenceResult& r) {
  GroupRecord g{views, task, config, {}, {}, digest(r.fused)};
  for (const runtime::InferenceResult& v : r.views) {
    g.view_versions.push_back(v.snapshot_version);
    g.view_digests.push_back(digest(v.detections));
  }
  return g;
}

using Versions =
    std::map<int64_t, std::shared_ptr<const core::DeploymentSnapshot>>;

/// Every snapshot the fleet's shards serve right now, by version.
Versions serving_versions(runtime::InferenceFleet& fleet) {
  Versions v;
  for (int64_t i = 0; i < fleet.shard_count(); ++i) {
    const auto snap = fleet.shard(i).current_snapshot();
    v.emplace(snap->version(), snap);
  }
  return v;
}

/// Every output a window served, as a count per distinct record. Inputs,
/// tasks and versions are few, so this holds a few thousand entries however
/// many requests the host lets a window serve, and the benchmark's own
/// memory does not track throughput.
class ServedOutputs {
 public:
  void add(const SingleRecord& r) { ++singles_[r]; }
  void add(GroupRecord g) { ++groups_[std::move(g)]; }
  void add(const ServedOutputs& other) {
    for (const auto& [r, n] : other.singles_) singles_[r] += n;
    for (const auto& [g, n] : other.groups_) groups_[g] += n;
  }

  /// The correctness gate: how many served outputs differ from serial
  /// inference on the snapshot version that served them. Every served list
  /// (and every view of every group) must equal serial inference; every
  /// fused group must equal serial per-view inference + fuse_views.
  int64_t verify(const Versions& versions) const;

 private:
  std::map<SingleRecord, int64_t> singles_;
  std::map<GroupRecord, int64_t> groups_;
};

int64_t ServedOutputs::verify(const Versions& versions) const {
  std::map<int64_t, Reference> refs;
  const auto ref_for = [&](int64_t version) -> Reference* {
    auto it = refs.find(version);
    if (it == refs.end()) {
      const auto v = versions.find(version);
      if (v == versions.end()) return nullptr;
      it = refs.emplace(version, Reference(v->second)).first;
    }
    return &it->second;
  };
  int64_t mismatches = 0;
  for (const auto& [r, n] : singles_) {
    Reference* ref = ref_for(r.version);
    if (ref == nullptr ||
        r.digest != ref->single(*r.image, r.task, r.config)) {
      mismatches += n;
    }
  }
  for (const auto& [g, n] : groups_) {
    bool ok = g.view_digests.size() == g.views->size();
    for (size_t v = 0; ok && v < g.views->size(); ++v) {
      Reference* ref = ref_for(g.view_versions[v]);
      ok = ref != nullptr &&
           g.view_digests[v] == ref->single((*g.views)[v], g.task, g.config);
    }
    if (ok) {
      ok = g.fused_digest ==
           ref_for(g.view_versions.front())->fused(*g.views, g.task, g.config);
    }
    if (!ok) mismatches += n;
  }
  return mismatches;
}

void record_spans(const runtime::InferenceResult& r, double t,
                  WindowStats& s) {
  s.queue_us.add(t, r.queue_us);
  s.formation_us.add(t, r.batch_formation_us);
  s.infer_us.add(t, r.infer_us);
  s.batch_size.add(t, static_cast<double>(r.batch_size));
}

void read_fleet_counters(runtime::InferenceFleet& fleet, WindowStats& s) {
  s.failovers = fleet.metrics().counter("fleet_failovers").value();
  int64_t lo = INT64_MAX;
  int64_t hi = 0;
  s.version_skew = 0;
  for (int64_t i = 0; i < fleet.shard_count(); ++i) {
    auto& m = fleet.shard(i).metrics();
    const int64_t admitted = m.counter("requests_submitted").value();
    lo = std::min(lo, admitted);
    hi = std::max(hi, admitted);
    s.version_skew += m.counter("snapshot_version_skew").value();
  }
  s.shard_load_ratio =
      static_cast<double>(hi) / static_cast<double>(std::max<int64_t>(lo, 1));
}

const char* const kOnboardTexts[] = {
    "Find fragile items near the packing station that need careful "
    "handling.",
    "Track moving entities crossing the secured perimeter.",
    "Locate sharp metallic tools left on the work surface.",
    "Spot round containers that could roll off the conveyor.",
};

/// One onboarding: define_task_from_text → publish → install_snapshot on
/// the fleet, then `probes` requests for the new task (quantized config,
/// the only one a text-defined task can use without distillation).
struct Onboarded {
  double install_ms = 0.0;
  std::shared_ptr<const core::DeploymentSnapshot> snapshot;
  ServedOutputs probes;
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
};

Onboarded onboard(Deployment& d, const Inputs& in, int64_t ordinal,
                  int64_t probes) {
  Onboarded out;
  const core::TaskHandle task = d.framework->define_task_from_text(
      kOnboardTexts[ordinal % std::size(kOnboardTexts)]);
  out.snapshot = d.framework->publish();
  const auto t0 = Clock::now();
  const runtime::RolloutResult rollout = d.fleet->install_snapshot(
      out.snapshot);
  out.install_ms = ms_since(t0);
  if (!rollout.complete()) {
    throw std::runtime_error("onboarding rollout failed: " + rollout.error);
  }
  std::vector<std::pair<int64_t, std::future<runtime::InferenceResult>>>
      futures;
  for (int64_t i = 0; i < probes; ++i) {
    const int64_t scene = (ordinal * 31 + i * 7) % in.pool.size();
    ++out.attempted;
    auto r = d.fleet->try_submit(in.pool.scene(scene).image, task.id,
                                 ConfigKind::kQuantizedMultiTask);
    if (!r.admitted()) {
      ++out.rejected;
      continue;
    }
    futures.emplace_back(scene, std::move(*r.future));
  }
  for (auto& [scene, f] : futures) {
    try {
      out.probes.add(record_of(&in.pool.scene(scene).image, task.id,
                               ConfigKind::kQuantizedMultiTask, f.get()));
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  return out;
}

void absorb(const Onboarded& o, WindowStats& s) {
  s.install_ms.push_back(o.install_ms);
  s.requests += o.attempted;
  s.rejected += o.rejected;
  s.failed += o.failed;
}

constexpr int64_t kOnboardProbes = 8;

}  // namespace

WindowStats::WindowStats(double seconds)
    : WindowStats(seconds,
                  std::max<int64_t>(1, std::llround(seconds / kSubWindowS))) {}

WindowStats::WindowStats(double seconds, int64_t windows)
    : latency(seconds, windows, {0.50, 0.90, 0.99}),
      group_latency(seconds, windows, {0.50}),
      completed(seconds, windows),
      lag_us(seconds, windows, {0.99}),
      queue_us(seconds, windows, {0.50, 0.99}),
      formation_us(seconds, windows, {0.50}),
      infer_us(seconds, windows, {0.50}),
      batch_size(seconds, windows),
      group_fuse_us(seconds, windows, {0.50}) {}

void WindowStats::finish() {
  for (WindowedSamples* series :
       {&latency, &group_latency, &completed, &lag_us, &queue_us,
        &formation_us, &infer_us, &batch_size, &group_fuse_us}) {
    series->finish();
  }
}

double start_fleet(Deployment& d) {
  const auto t0 = Clock::now();
  d.fleet = std::make_unique<runtime::InferenceFleet>(d.snapshot,
                                                      fleet_options());
  return ms_since(t0);
}

Deployment set_up(bool with_fleet) {
  Deployment d;
  const auto t0 = Clock::now();
  d.framework = std::make_unique<core::Framework>(deployment_options());
  auto t = Clock::now();
  d.framework->pretrain_teacher();
  d.times.pretrain_teacher_s = ms_since(t) / 1e3;
  for (const int64_t id : {1, 2, 3, 4}) {
    d.tasks.push_back(d.framework->define_task(data::task_by_id(id)));
  }
  t = Clock::now();
  d.framework->prepare_task_specific(d.tasks[0]);
  d.framework->prepare_task_specific(d.tasks[1]);
  d.times.prepare_task_specific_s = ms_since(t) / 1e3;
  t = Clock::now();
  d.framework->prepare_quantized();
  d.times.prepare_quantized_s = ms_since(t) / 1e3;
  t = Clock::now();
  d.snapshot = d.framework->publish();
  d.times.publish_ms = ms_since(t);
  if (with_fleet) d.times.fleet_start_ms = start_fleet(d);
  d.times.total_s = ms_since(t0) / 1e3;
  return d;
}

Inputs make_inputs(uint64_t seed, const core::FrameworkOptions& o) {
  Inputs in;
  const data::SceneGenerator generator(o.generator);
  itask::Rng pool_rng(derive_seed(seed, 1));
  in.pool = data::Dataset::generate(generator, kPoolScenes, pool_rng);
  itask::Rng eval_rng(kEvalSeed);
  in.eval = data::Dataset::generate(generator, kEvalScenes, eval_rng);
  itask::Rng group_rng(derive_seed(seed, 4));
  for (int64_t g = 0; g < kGroupInputs; ++g) {
    const int64_t scene = group_rng.randint(0, kPoolScenes - 1);
    const auto view_seed = static_cast<uint64_t>(
        group_rng.randint(0, INT32_MAX));
    in.group_views.push_back(
        group_views(in.pool.scene(scene).image, view_seed));
  }
  return in;
}

// ---------------------------------------------------------------------------
// offline_batch: one thread, DeploymentSnapshot::infer_batch only.

WindowStats run_offline(const Deployment& d, const Inputs& in, uint64_t seed,
                        double seconds) {
  struct Input {
    Tensor batch;
    std::vector<const Tensor*> images;           // per row
    const std::vector<Tensor>* views = nullptr;  // group input
  };
  struct Cell {
    ConfigKind config;
    int64_t calls_per_cycle;
    std::vector<Input> inputs;
    size_t cursor = 0;
  };
  itask::Rng rng(derive_seed(seed, 6));
  std::vector<int64_t> order(static_cast<size_t>(kPoolScenes));
  for (int64_t i = 0; i < kPoolScenes; ++i) order[static_cast<size_t>(i)] = i;
  rng.shuffle(order);
  const auto batches_of = [&](int64_t b) {
    std::vector<Input> out;
    for (int64_t start = 0; start + b <= kPoolScenes; start += b) {
      Input x;
      for (int64_t j = 0; j < b; ++j) {
        x.images.push_back(
            &in.pool.scene(order[static_cast<size_t>(start + j)]).image);
      }
      x.batch = stack(x.images);
      out.push_back(std::move(x));
    }
    return out;
  };
  std::vector<Input> group_inputs;
  for (const auto& views : in.group_views) {
    Input x;
    for (const Tensor& v : views) x.images.push_back(&v);
    x.batch = stack(x.images);
    x.views = &views;
    group_inputs.push_back(std::move(x));
  }
  // Equal image counts per (config, batch size) cell: 32 images each per
  // cycle. Group cells (K=3 stacked views + fuse_views) ride along.
  std::vector<Cell> cells;
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    cells.push_back(Cell{config, 32, batches_of(1)});
    cells.push_back(Cell{config, 4, batches_of(8)});
    cells.push_back(Cell{config, 1, batches_of(32)});
    cells.push_back(Cell{config, 4, group_inputs});
  }
  const detect::FusionOptions fusion = fleet_options().shard_options.fusion;

  ServedOutputs served;
  WindowStats s(seconds);
  const int64_t version = d.snapshot->version();
  const CpuTimes cpu0 = read_cpu_times();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  auto prev_end = start;
  int64_t call_index = 0;
  while (Clock::now() < deadline) {
    for (Cell& cell : cells) {
      for (int64_t c = 0; c < cell.calls_per_cycle; ++c, ++call_index) {
        const Input& x = cell.inputs[cell.cursor++ % cell.inputs.size()];
        const int64_t task_index =
            (cell.config == ConfigKind::kTaskSpecific ? 0 : 2) +
            call_index % 2;
        const itask::kg::TaskId id =
            d.tasks[static_cast<size_t>(task_index)].id;
        const auto t0 = Clock::now();
        s.lag_us.add(s_between(start, t0), us_between(prev_end, t0));
        const std::vector<Dets> out =
            d.snapshot->infer_batch(x.batch, id, cell.config);
        Dets fused;
        if (x.views != nullptr) fused = detect::fuse_views(out, fusion);
        prev_end = Clock::now();
        const double us = us_between(t0, prev_end);
        const double done_s = s_between(start, prev_end);
        ++s.requests;
        ++s.slo_offered;
        if (us <= kSloUs) ++s.slo_met;
        s.images += static_cast<int64_t>(x.images.size());
        s.completed.add(done_s, static_cast<double>(x.images.size()));
        if (x.views != nullptr) {
          s.group_latency.add(done_s, us);
          GroupRecord g{x.views, id, cell.config, {}, {}, digest(fused)};
          for (const Dets& view : out) {
            g.view_versions.push_back(version);
            g.view_digests.push_back(digest(view));
          }
          served.add(std::move(g));
        } else {
          s.latency.add(done_s, us);
          for (size_t i = 0; i < out.size() && i < x.images.size(); ++i) {
            served.add(SingleRecord{x.images[i], id, cell.config, version,
                                    digest(out[i])});
          }
          // A short output list shows up as missing rows.
          s.mismatches += static_cast<int64_t>(x.images.size()) -
                          static_cast<int64_t>(std::min(out.size(),
                                                        x.images.size()));
        }
      }
    }
  }
  s.elapsed_s = std::chrono::duration<double>(prev_end - start).count();
  s.cpu_steal_frac = steal_frac(cpu0, read_cpu_times());
  s.finish();

  // Correctness gate: each row against batch-1 serial inference, each
  // group against serial per-view inference + fuse_views.
  s.mismatches += served.verify({{version, d.snapshot}});
  return s;
}

// ---------------------------------------------------------------------------
// camera_streams: 16 closed-loop streams polled by one thread.

WindowStats run_camera(Deployment& d, const Inputs& in, uint64_t seed,
                       double seconds) {
  constexpr int64_t kStreams = 16;
  constexpr int64_t kGroupEvery = 8;  // every 8th frame is a K=3 group
  struct Stream {
    int64_t task = 0;
    std::vector<int64_t> scenes;
    std::vector<int64_t> groups;
    int64_t frame = 0;
    bool busy = false;
    bool group = false;
    int64_t item = 0;
    Clock::time_point sent;
    std::future<runtime::InferenceResult> single;
    std::future<runtime::GroupInferenceResult> fused;
  };
  itask::Rng rng(derive_seed(seed, 5));
  std::vector<Stream> streams(static_cast<size_t>(kStreams));
  for (int64_t i = 0; i < kStreams; ++i) {
    Stream& st = streams[static_cast<size_t>(i)];
    // Half the streams on each configuration, two tasks per configuration.
    st.task = (i % 2 == 0 ? 0 : 2) + (i / 2) % 2;
    for (int64_t k = 0; k < kPoolScenes; ++k) st.scenes.push_back(k);
    rng.shuffle(st.scenes);
    for (int64_t k = 0; k < 32; ++k) {
      st.groups.push_back(rng.randint(0, kGroupInputs - 1));
    }
  }

  WindowStats s(seconds);
  ServedOutputs served;
  runtime::InferenceFleet& fleet = *d.fleet;
  const auto submit = [&](Stream& st) {
    const auto& handle = d.tasks[static_cast<size_t>(st.task)];
    const ConfigKind config = config_of(st.task);
    st.group = st.frame % kGroupEvery == kGroupEvery - 1;
    ++s.requests;
    ++s.slo_offered;
    st.sent = Clock::now();
    if (st.group) {
      st.item = st.groups[static_cast<size_t>(st.frame / kGroupEvery) %
                          st.groups.size()];
      auto r = fleet.try_submit_group(
          in.group_views[static_cast<size_t>(st.item)], handle.id, config);
      st.busy = r.admitted();
      if (st.busy) st.fused = std::move(*r.future);
    } else {
      st.item = st.scenes[static_cast<size_t>(st.frame) % st.scenes.size()];
      auto r = fleet.try_submit(in.pool.scene(st.item).image, handle.id,
                                config);
      st.busy = r.admitted();
      if (st.busy) st.single = std::move(*r.future);
    }
    if (!st.busy) ++s.rejected;
    ++st.frame;
  };

  const CpuTimes cpu0 = read_cpu_times();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (Stream& st : streams) submit(st);
  auto last_done = start;
  for (bool any = true; any;) {
    any = false;
    for (Stream& st : streams) {
      if (!st.busy) {
        if (Clock::now() < deadline) submit(st);
        any = any || st.busy;
        continue;
      }
      const bool ready =
          st.group ? st.fused.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready
                   : st.single.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (!ready) {
        any = true;
        continue;
      }
      const auto now = Clock::now();
      last_done = now;
      st.busy = false;
      const double us = us_between(st.sent, now);
      const double done_s = s_between(start, now);
      const auto& handle = d.tasks[static_cast<size_t>(st.task)];
      try {
        if (st.group) {
          const runtime::GroupInferenceResult r = st.fused.get();
          s.group_latency.add(done_s, us);
          s.completed.add(done_s, kGroupViews);
          s.group_fuse_us.add(done_s, r.fuse_us);
          s.images += kGroupViews;
          served.add(record_of(&in.group_views[static_cast<size_t>(st.item)],
                               handle.id, config_of(st.task), r));
        } else {
          const runtime::InferenceResult r = st.single.get();
          s.latency.add(done_s, us);
          s.completed.add(done_s, 1.0);
          // How late the polling thread noticed the result.
          s.lag_us.add(done_s,
                       std::max<double>(
                           0.0, static_cast<double>(clock_us(now) -
                                                    r.timeline.infer_end_us)));
          record_spans(r, done_s, s);
          s.images += 1;
          served.add(record_of(&in.pool.scene(st.item).image, handle.id,
                               config_of(st.task), r));
        }
        if (us <= kSloUs) ++s.slo_met;
      } catch (const std::exception&) {
        ++s.failed;
      }
      if (now < deadline) submit(st);
      any = any || st.busy;
    }
  }
  s.elapsed_s = std::chrono::duration<double>(last_done - start).count();
  s.cpu_steal_frac = steal_frac(cpu0, read_cpu_times());
  s.finish();
  read_fleet_counters(fleet, s);
  s.mismatches = served.verify(serving_versions(fleet));
  return s;
}

// ---------------------------------------------------------------------------
// burst_onboard: open loop from runtime::generate_schedule, two live
// onboardings on a side thread.

BurstInputs make_burst_inputs(uint64_t seed, double seconds,
                              const Inputs& in) {
  BurstInputs b;
  b.schedule = burst_schedule(seed, seconds, /*tasks=*/4, kPoolScenes);
  b.views.resize(b.schedule.size());
  for (size_t i = 0; i < b.schedule.size(); ++i) {
    const runtime::GeneratedRequest& r = b.schedule[i];
    if (r.views > 1) {
      b.views[i] = group_views(in.pool.scene(r.scene).image, r.view_seed);
    }
  }
  return b;
}

WindowStats run_burst(Deployment& d, const Inputs& in, const BurstInputs& b,
                      double seconds) {
  runtime::InferenceFleet& fleet = *d.fleet;
  WindowStats s(seconds);
  struct Pending {
    size_t index;
    int64_t due_us;
    std::future<runtime::InferenceResult> single;
    std::future<runtime::GroupInferenceResult> fused;
  };
  std::vector<Pending> pending;
  pending.reserve(b.schedule.size());

  Versions versions = serving_versions(fleet);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double fraction) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds * fraction));
  };
  // The side thread owns the Framework while the window runs; the generator
  // touches only the fleet and inputs built beforehand.
  std::vector<Onboarded> onboarded;
  std::exception_ptr side_error;
  std::thread side([&] {
    try {
      for (int64_t k = 1; k <= 2; ++k) {
        std::this_thread::sleep_until(at(static_cast<double>(k) / 3.0));
        onboarded.push_back(onboard(d, in, k, kOnboardProbes));
      }
    } catch (...) {
      side_error = std::current_exception();
    }
  });

  const CpuTimes cpu0 = read_cpu_times();
  for (size_t i = 0; i < b.schedule.size(); ++i) {
    const runtime::GeneratedRequest& r = b.schedule[i];
    const auto due = start + std::chrono::microseconds(r.arrival_us);
    // Spin rather than sleep: sleep_until wakes up to milliseconds late,
    // which would be charged to the system as queueing delay.
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    s.lag_us.add(static_cast<double>(r.arrival_us) / 1e6,
                 us_between(due, now));
    const auto& handle = d.tasks[static_cast<size_t>(r.task_index)];
    const ConfigKind config = config_of(r.task_index);
    ++s.requests;
    ++s.slo_offered;
    Pending p{i, clock_us(due), {}, {}};
    if (r.views > 1) {
      auto g = fleet.try_submit_group(b.views[i], handle.id, config);
      if (!g.admitted()) {
        ++s.rejected;
        continue;
      }
      p.fused = std::move(*g.future);
    } else {
      auto g = fleet.try_submit(in.pool.scene(r.scene).image, handle.id,
                                config);
      if (!g.admitted()) {
        ++s.rejected;
        continue;
      }
      p.single = std::move(*g.future);
    }
    pending.push_back(std::move(p));
  }
  side.join();
  if (side_error) std::rethrow_exception(side_error);

  ServedOutputs served;
  const int64_t start_us = clock_us(start);
  int64_t last_us = start_us;
  for (Pending& p : pending) {
    const runtime::GeneratedRequest& r = b.schedule[p.index];
    const auto& handle = d.tasks[static_cast<size_t>(r.task_index)];
    const double due_s = static_cast<double>(r.arrival_us) / 1e6;
    try {
      double done_us = 0.0;
      if (r.views > 1) {
        const runtime::GroupInferenceResult g = p.fused.get();
        done_us =
            static_cast<double>(g.views.front().timeline.admitted_us) +
            g.total_us;
        s.group_latency.add(due_s, done_us - static_cast<double>(p.due_us));
        s.completed.add((done_us - static_cast<double>(start_us)) / 1e6,
                        kGroupViews);
        s.group_fuse_us.add(due_s, g.fuse_us);
        s.images += kGroupViews;
        served.add(record_of(&b.views[p.index], handle.id,
                             config_of(r.task_index), g));
      } else {
        const runtime::InferenceResult one = p.single.get();
        done_us = static_cast<double>(one.timeline.infer_end_us);
        s.latency.add(due_s, done_us - static_cast<double>(p.due_us));
        s.completed.add((done_us - static_cast<double>(start_us)) / 1e6, 1.0);
        record_spans(one, due_s, s);
        s.images += 1;
        served.add(record_of(&in.pool.scene(r.scene).image, handle.id,
                             config_of(r.task_index), one));
      }
      if (done_us - static_cast<double>(p.due_us) <= kSloUs) ++s.slo_met;
      last_us = std::max(last_us, static_cast<int64_t>(done_us));
    } catch (const std::exception&) {
      ++s.failed;
    }
  }
  s.elapsed_s = static_cast<double>(last_us - start_us) / 1e6;
  s.cpu_steal_frac = steal_frac(cpu0, read_cpu_times());
  s.finish();
  read_fleet_counters(fleet, s);

  for (const Onboarded& o : onboarded) {
    absorb(o, s);
    versions.emplace(o.snapshot->version(), o.snapshot);
    served.add(o.probes);
  }
  s.mismatches = served.verify(versions);
  return s;
}

void onboard_probe(Deployment& d, const Inputs& in, WindowStats& s) {
  Onboarded o = onboard(d, in, 0, kOnboardProbes);
  absorb(o, s);
  s.mismatches += o.probes.verify({{o.snapshot->version(), o.snapshot}});
}

// ---------------------------------------------------------------------------
// Quality: F1 of served outputs, reproduced through the serial path.

F1Result deployment_f1(const Deployment& d, const data::Dataset& eval) {
  F1Result out;
  const float iou = d.framework->options().eval_iou;
  const auto f1_over = [&](std::initializer_list<int64_t> task_indices,
                           ConfigKind config) {
    int64_t tp = 0;
    int64_t fp = 0;
    int64_t fn = 0;
    for (const int64_t t : task_indices) {
      const core::TaskHandle& task = d.tasks[static_cast<size_t>(t)];
      std::vector<Dets> served;
      const auto indices = eval.all_indices();
      for (int64_t b = 0; b < eval.size(); b += 16) {
        const int64_t e = std::min(eval.size(), b + 16);
        const data::Batch batch = eval.make_batch(std::span<const int64_t>(
            indices.data() + b, static_cast<size_t>(e - b)));
        for (auto& dets :
             d.snapshot->infer_batch(batch.images, task.id, config)) {
          served.push_back(std::move(dets));
        }
      }
      const detect::EvalResult r = detect::evaluate(
          served, core::Framework::ground_truth(eval, task.spec), iou);
      const detect::EvalResult serial =
          d.framework->evaluate(eval, task, config);
      out.reproduced = out.reproduced &&
                       r.true_positives == serial.true_positives &&
                       r.false_positives == serial.false_positives &&
                       r.false_negatives == serial.false_negatives;
      tp += r.true_positives;
      fp += r.false_positives;
      fn += r.false_negatives;
    }
    std::printf("  f1 %s: tp %" PRId64 ", fp %" PRId64 ", fn %" PRId64 "\n",
                config == ConfigKind::kTaskSpecific ? "task-specific"
                                                    : "quantized",
                tp, fp, fn);
    const int64_t denom = 2 * tp + fp + fn;
    return denom == 0 ? 0.0
                      : 2.0 * static_cast<double>(tp) /
                            static_cast<double>(denom);
  };
  out.task_specific = f1_over({0, 1}, ConfigKind::kTaskSpecific);
  out.quantized = f1_over({0, 1, 2, 3}, ConfigKind::kQuantizedMultiTask);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer probes.

namespace {

/// Median per-repetition cost of `fn`, run repeatedly for ~`budget_ms`
/// after two warm-up calls.
template <typename Fn>
double median_us(Fn&& fn, double budget_ms, int64_t min_reps = 5) {
  fn();
  fn();
  std::vector<double> reps;
  const auto t_end = Clock::now() + std::chrono::microseconds(
                                        static_cast<int64_t>(budget_ms * 1e3));
  while (static_cast<int64_t>(reps.size()) < min_reps || Clock::now() < t_end) {
    const auto t0 = Clock::now();
    fn();
    reps.push_back(us_between(t0, Clock::now()));
  }
  return exact_percentile(reps, 0.5).value;
}

}  // namespace

std::map<std::string, double> probe_layers(const Deployment& d,
                                           const Inputs& in) {
  std::map<std::string, double> m;
  const core::DeploymentSnapshot& snap = *d.snapshot;
  const core::FrameworkOptions& opts = d.framework->options();
  const auto batch_of = [&](int64_t b) {
    std::vector<const Tensor*> images;
    for (int64_t i = 0; i < b; ++i) images.push_back(&in.pool.scene(i).image);
    return stack(images);
  };
  struct ConfigProbe {
    const char* tag;
    ConfigKind config;
    itask::kg::TaskId id;
  };
  const ConfigProbe configs[] = {
      {"ts", ConfigKind::kTaskSpecific, d.tasks[0].id},
      {"q8", ConfigKind::kQuantizedMultiTask, d.tasks[2].id}};
  const int64_t sizes[] = {1, 8, 32};

  // infer_raw per image at each (config, batch) cell, profiling off.
  itask::profile::set_enabled(false);
  for (const ConfigProbe& c : configs) {
    for (const int64_t b : sizes) {
      const Tensor batch = batch_of(b);
      const double us = median_us(
          [&] { (void)snap.infer_raw(batch, c.id, c.config); }, 150.0);
      m[std::string("core.infer_raw_us_per_img.") + c.tag + ".b" +
        std::to_string(b)] = us / static_cast<double>(b);
    }
  }
  const int64_t macs = itask::vit::build_workload(opts.student_config, 1)
                           .total_macs();
  m["vit.macs_per_img"] = static_cast<double>(macs);
  for (const ConfigProbe& c : configs) {
    const double us = m[std::string("core.infer_raw_us_per_img.") + c.tag +
                        ".b8"];
    m[std::string("vit.gmac_per_s.") + c.tag + ".b8"] =
        static_cast<double>(macs) / (us * 1e3);
  }

  // Shares of infer_raw wall time from the profile:: sections.
  double wall_ns[2] = {0.0, 0.0};
  itask::profile::reset();
  itask::profile::set_enabled(true);
  for (int ci = 0; ci < 2; ++ci) {
    for (const int64_t b : sizes) {
      const Tensor batch = batch_of(b);
      for (int64_t rep = 0; rep < 64 / b + 4; ++rep) {
        const auto t0 = Clock::now();
        (void)snap.infer_raw(batch, configs[ci].id, configs[ci].config);
        wall_ns[ci] += us_between(t0, Clock::now()) * 1e3;
      }
    }
  }
  itask::profile::set_enabled(false);
  std::map<std::string, double> section_ns;
  double attributed = 0.0;
  for (const auto& sec : itask::profile::snapshot()) {
    section_ns[sec.name] = static_cast<double>(sec.total_ns);
    attributed += static_cast<double>(sec.total_ns);
  }
  itask::profile::reset();
  const double all_ns = wall_ns[0] + wall_ns[1];
  const auto share = [&](itask::profile::Section sec, double base) {
    const auto it = section_ns.find(itask::profile::section_name(sec));
    return it == section_ns.end() ? 0.0 : it->second / base;
  };
  using itask::profile::Section;
  m["tensor.gemm_pack_share"] = share(Section::kGemmPack, all_ns);
  m["tensor.gemm_kernel_share"] = share(Section::kGemmKernel, all_ns);
  m["quant.int8_pack_share"] = share(Section::kInt8Pack, wall_ns[1]);
  m["quant.int8_kernel_share"] = share(Section::kInt8Kernel, wall_ns[1]);
  m["quant.int8_quantize_share"] = share(Section::kInt8Quantize, wall_ns[1]);
  m["quant.int8_dequant_share"] = share(Section::kInt8Dequant, wall_ns[1]);
  m["core.infer_raw_unattributed_share"] = 1.0 - attributed / all_ns;

  // Decode: the snapshot's decode_batch per config, then its stages on the
  // quantized (knowledge-graph) path: decode, KG matching, NMS.
  const Tensor b8 = batch_of(8);
  for (const ConfigProbe& c : configs) {
    const itask::vit::VitOutput raw = snap.infer_raw(b8, c.id, c.config);
    m[std::string("core.decode_batch_us_per_img.") + c.tag] =
        median_us([&] { (void)snap.decode_batch(raw, c.id, c.config); },
                  50.0) /
        8.0;
  }
  const itask::vit::VitOutput raw =
      snap.infer_raw(b8, configs[1].id, configs[1].config);
  m["detect.decode_us_per_img"] =
      median_us([&] { (void)detect::decode(raw, opts.decoder); }, 50.0) / 8.0;
  const itask::kg::TaskMatcher matcher(d.tasks[2].compiled, opts.matcher);
  const auto candidates = detect::decode(raw, opts.decoder);
  // The matcher's part of decode_and_match: score, relevance test and
  // ranking confidence for every candidate.
  float sink = 0.0f;
  m["kg.match_us_per_img"] =
      median_us(
          [&] {
            for (const Dets& per_image : candidates) {
              for (const detect::Detection& c : per_image) {
                const float score =
                    matcher.score(c.attr_probs, c.class_probs);
                if (!matcher.relevant(c.attr_probs, c.class_probs)) continue;
                sink += score + c.objectness * matcher.confidence(
                                                   c.attr_probs,
                                                   c.class_probs);
              }
            }
          },
          50.0) /
      8.0;
  const volatile float keep = sink;
  (void)keep;
  // Task-relevant objects are rare, so the lists the pipeline hands NMS
  // are mostly empty; NMS is timed over every decoded candidate instead,
  // the most it can be given per image. nms takes its list by value, so
  // the copies are made before the clock starts.
  std::vector<std::vector<Dets>> nms_inputs(201, candidates);
  std::vector<double> nms_reps;
  for (std::vector<Dets>& lists : nms_inputs) {
    const auto t0 = Clock::now();
    for (Dets& c : lists) (void)detect::nms(std::move(c), opts.nms_iou);
    nms_reps.push_back(us_between(t0, Clock::now()));
  }
  m["detect.nms_us_per_img"] = exact_percentile(nms_reps, 0.5).value / 8.0;

  // fuse_views over 16 K=3 view sets. As for NMS, the served per-view
  // lists are mostly empty, so each view contributes all of its decoded,
  // NMS-ed candidates.
  std::vector<std::vector<Dets>> per_view;
  for (int64_t g = 0; g < 16; ++g) {
    const auto& views = in.group_views[static_cast<size_t>(g)];
    const itask::vit::VitOutput out =
        snap.infer_raw(stack({&views[0], &views[1], &views[2]}),
                       configs[1].id, configs[1].config);
    std::vector<Dets> lists;
    for (Dets& c : detect::decode(out, opts.decoder)) {
      lists.push_back(detect::nms(std::move(c), opts.nms_iou));
    }
    per_view.push_back(std::move(lists));
  }
  const detect::FusionOptions fusion = fleet_options().shard_options.fusion;
  m["detect.fuse_views_us"] =
      median_us(
          [&] {
            for (const auto& v : per_view) (void)detect::fuse_views(v, fusion);
          },
          50.0) /
      static_cast<double>(per_view.size());
  return m;
}

}  // namespace perfbench
