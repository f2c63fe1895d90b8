// The iTask framework facade — the paper's system in one object.
//
// Lifecycle:
//   Framework fw(options);
//   fw.pretrain_teacher();                       // task-agnostic corpus
//   TaskHandle t = fw.define_task(spec);         // LLM-oracle → KG → matcher
//   fw.prepare_task_specific(t);                 // distilled student
//   fw.prepare_quantized();                      // INT8 multi-task model
//   auto dets = fw.detect_batch(images, t, ConfigKind::kTaskSpecific);
//   auto snap = fw.publish();                    // immutable serving bundle
//   // ...hand `snap` to runtime::InferenceServer; keep defining/preparing
//   // and publish() again — serving swaps snapshots with zero downtime.
//
// The two inference paths embody the paper's dual configuration:
//  * task-specific: per-task distilled student; relevance comes from its
//    dedicated relevance head (trained for exactly this mission);
//  * quantized: one INT8 model for all tasks; relevance comes from
//    knowledge-graph matching of predicted attributes/classes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/policy.h"
#include "core/snapshot.h"
#include "data/dataset.h"
#include "detect/decoder.h"
#include "detect/metrics.h"
#include "detect/nms.h"
#include "distill/distiller.h"
#include "distill/trainer.h"
#include "kg/matcher.h"
#include "kg/task_table.h"
#include "llm/oracle.h"
#include "quant/qvit.h"
#include "vit/model.h"

namespace itask::core {

struct FrameworkOptions {
  vit::ViTConfig teacher_config = vit::ViTConfig::teacher();
  vit::ViTConfig student_config = vit::ViTConfig::student();
  data::GeneratorOptions generator;
  int64_t corpus_size = 960;          // task-agnostic pretraining scenes
  int64_t task_corpus_size = 192;     // scenes for per-task distillation
  int64_t calibration_scenes = 24;    // PTQ calibration set
  distill::TrainerOptions teacher_training{.epochs = 30, .seed = 7};
  distill::DistillOptions distillation{.epochs = 30, .seed = 11};
  /// Distillation budget for the multi-task student that becomes the
  /// quantized configuration (trained once, task-agnostic, no relevance
  /// supervision).
  distill::DistillOptions multitask_distillation{.epochs = 30, .seed = 13};
  int64_t multitask_corpus_size = 256;  // subset of the corpus reused for it
  quant::QuantOptions quantization;
  llm::OracleOptions oracle;
  kg::MatcherOptions matcher;
  detect::DecoderOptions decoder;
  float relevance_threshold = 0.5f;   // task-specific path cut-off
  float nms_iou = 0.5f;
  /// Matching IoU for evaluation. 0.4 rather than the COCO 0.5 because the
  /// synthetic objects are 4-10 px — at that size a 1 px regression error
  /// swings IoU by ~0.2, which would measure box jitter, not detection.
  float eval_iou = 0.4f;
  uint64_t seed = 42;
};

/// A defined mission: its spec (ground truth for evaluation), the oracle's
/// knowledge graph, and the compiled matcher. `id` is the task's stable
/// serving identity — what the runtime submits against and what deployment
/// snapshots key their task tables by; `slot` is the storage key for the
/// per-task distilled student (the same number today, but only `id` is part
/// of the serving contract).
struct TaskHandle {
  int64_t slot = -1;
  kg::TaskId id;
  data::TaskSpec spec;
  kg::KnowledgeGraph graph;
  kg::CompiledTask compiled;
};

class Framework {
 public:
  explicit Framework(FrameworkOptions options = {});

  /// Generates the task-agnostic corpus and trains the teacher on it.
  /// Must be called before any prepare_* or detect_* call.
  void pretrain_teacher();

  /// Defines a task from a library spec (its description feeds the oracle).
  TaskHandle define_task(const data::TaskSpec& spec);

  /// Defines a task from free-form text only (no ground-truth spec; such
  /// handles can run detection but not ground-truth evaluation).
  TaskHandle define_task_from_text(const std::string& description);

  /// Distils a task-specific student for this task (stored per slot).
  distill::DistillStats prepare_task_specific(const TaskHandle& task);

  /// Builds the quantized configuration: distils a *multi-task* student
  /// (same compact architecture as the task-specific students) from the
  /// teacher on task-agnostic data, then post-training-quantizes it to INT8
  /// with calibration. Both deployable configurations therefore share the
  /// same compute envelope — the paper's comparison.
  void prepare_quantized();

  /// Batched detection. images: [B, C, H, W]. Returns per-image detections
  /// (already task-filtered and NMS-ed, sorted by confidence). The serial
  /// reference (students run forward()); the concurrent serving entry point
  /// is DeploymentSnapshot::infer_batch, element-wise identical to this.
  std::vector<std::vector<detect::Detection>> detect_batch(
      const Tensor& images, const TaskHandle& task, ConfigKind config);

  /// Single-image convenience overload ([C, H, W]).
  std::vector<detect::Detection> detect(const Tensor& image,
                                        const TaskHandle& task,
                                        ConfigKind config);

  /// Evaluates a configuration on a dataset against the task's ground truth.
  detect::EvalResult evaluate(const data::Dataset& dataset,
                              const TaskHandle& task, ConfigKind config);

  /// Ground truth extraction (exposed for custom experiment loops).
  static std::vector<std::vector<detect::GroundTruthObject>> ground_truth(
      const data::Dataset& dataset, const data::TaskSpec& spec);

  /// Situational adaptability (DESIGN.md claim 4).
  PolicyDecision choose_configuration(const SituationProfile& profile) const;

  /// Per-image input shape [C, H, W] every deployed model expects — the
  /// admission contract the serving runtime validates requests against.
  /// (Both deployable configurations share the student architecture.)
  Shape expected_input_shape() const;

  /// Whether `config` can serve `task` right now: task-specific needs a
  /// student distilled for the task's slot, quantized needs the finalized
  /// INT8 model (which serves any defined task via KG matching). Lets the
  /// runtime fail malformed requests at admission instead of inside a
  /// worker.
  bool is_prepared(const TaskHandle& task, ConfigKind config) const;

  /// Publishes the current deployment as an immutable, versioned snapshot —
  /// the unit the serving runtime swaps in atomically (zero-downtime task
  /// onboarding). Cheap: the snapshot *shares* the prepared model objects
  /// (no weight copies) and copies only the compiled task table, so it can
  /// be called after every define_task / prepare_* step. Re-preparing the
  /// Framework afterwards replaces models rather than mutating them, so
  /// published snapshots keep serving exactly the weights they captured.
  /// Versions start at 1 and increase by 1 per publish.
  std::shared_ptr<const DeploymentSnapshot> publish();

  /// Version number the next publish() will stamp, minus one — i.e. how
  /// many snapshots this Framework has published so far.
  int64_t published_snapshots() const { return next_version_; }

  // --- accessors used by benches/tests ---
  vit::VitModel& teacher();
  vit::VitModel& student_for(const TaskHandle& task);
  /// The FP32 multi-task student the quantized model was built from
  /// (useful for isolating quantization error in ablations).
  vit::VitModel& multitask_student();
  quant::QuantizedVit& quantized();
  const data::Dataset& corpus() const { return corpus_; }
  const FrameworkOptions& options() const { return options_; }
  bool teacher_ready() const { return teacher_trained_; }
  bool quantized_ready() const { return quantized_ != nullptr; }

  /// Model footprints in MB (FP32 student vs INT8 quantized).
  double task_specific_model_mb() const;
  double quantized_model_mb() const;

  /// Persists the prepared deployment (teacher, per-slot students, the
  /// multi-task student) into `directory` as ITSK checkpoints plus a
  /// manifest. Requires a trained teacher.
  void save_deployment(const std::string& directory) const;

  /// Restores a deployment saved by save_deployment into a Framework built
  /// with the *same options*. Re-runs quantization calibration (synthetic
  /// calibration data is regenerated deterministically); re-define tasks in
  /// the original order so slots line up with the saved students.
  void load_deployment(const std::string& directory);

 private:
  std::vector<std::vector<detect::Detection>> decode_and_match(
      const vit::VitOutput& output, const TaskHandle& task,
      bool use_rel_head) const;

  DetectionPipeline pipeline() const;

  FrameworkOptions options_;
  Rng rng_;
  std::unique_ptr<vit::VitModel> teacher_;
  bool teacher_trained_ = false;
  data::Dataset corpus_;
  llm::Oracle oracle_;
  int64_t next_slot_ = 0;
  int64_t next_version_ = 0;
  /// Every defined task's compiled form — what publish() hands to snapshots.
  kg::TaskTable task_table_;
  // Models are held via shared_ptr so publish() can share them with
  // immutable snapshots; prepare_* REPLACES the pointee (never mutates a
  // model that a snapshot may be serving from).
  std::map<int64_t, std::shared_ptr<vit::VitModel>> students_;
  std::shared_ptr<vit::VitModel> multitask_student_;
  std::shared_ptr<quant::QuantizedVit> quantized_;
};

}  // namespace itask::core
