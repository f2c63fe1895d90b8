#include "core/snapshot.h"

#include <algorithm>
#include <utility>

#include "tensor/arena.h"
#include "tensor/format.h"
#include "tensor/vmath.h"

namespace itask::core {

std::vector<std::vector<detect::Detection>> decode_and_match(
    const vit::VitOutput& output, const kg::CompiledTask& task,
    bool use_rel_head, const DetectionPipeline& pipeline) {
  auto candidates = detect::decode(output, pipeline.decoder);
  const kg::TaskMatcher matcher(task, pipeline.matcher);
  std::vector<std::vector<detect::Detection>> result;
  result.reserve(candidates.size());
  for (size_t bi = 0; bi < candidates.size(); ++bi) {
    std::vector<detect::Detection> kept;
    for (detect::Detection& d : candidates[bi]) {
      if (use_rel_head) {
        const float rel_logit = output.relevance.at(
            {static_cast<int64_t>(bi), d.cell, 0});
        const float rel = vmath::sigmoid_scalar(rel_logit);
        d.task_score = rel;
        if (rel < pipeline.relevance_threshold) continue;
        d.confidence = d.objectness * rel;
      } else {
        d.task_score = matcher.score(d.attr_probs, d.class_probs);
        if (!matcher.relevant(d.attr_probs, d.class_probs)) continue;
        d.confidence =
            d.objectness * matcher.confidence(d.attr_probs, d.class_probs);
      }
      kept.push_back(std::move(d));
    }
    result.push_back(detect::nms(std::move(kept), pipeline.nms_iou));
  }
  return result;
}

DeploymentSnapshot::DeploymentSnapshot(
    int64_t version, Shape expected_input_shape, kg::TaskTable tasks,
    std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>> students,
    std::shared_ptr<const quant::QuantizedVit> quantized,
    DetectionPipeline pipeline)
    : version_(version),
      expected_input_shape_(std::move(expected_input_shape)),
      tasks_(std::move(tasks)),
      students_(std::move(students)),
      quantized_(std::move(quantized)),
      pipeline_(std::move(pipeline)) {
  ITASK_CHECK(version_ >= 1, "DeploymentSnapshot: version must be >= 1");
  ITASK_CHECK(expected_input_shape_.size() == 3,
              "DeploymentSnapshot: expected_input_shape must be [C, H, W]");
  for (const auto& [id, student] : students_) {
    ITASK_CHECK(student != nullptr,
                "DeploymentSnapshot: null student for " +
                    kg::task_id_to_string(id));
    ITASK_CHECK(tasks_.contains(id),
                "DeploymentSnapshot: student without a task table entry for " +
                    kg::task_id_to_string(id));
  }
}

bool DeploymentSnapshot::servable(kg::TaskId id, ConfigKind config) const {
  if (!tasks_.contains(id)) return false;
  if (config == ConfigKind::kTaskSpecific) {
    return students_.find(id) != students_.end();
  }
  return quantized_ != nullptr;
}

std::vector<std::vector<detect::Detection>> DeploymentSnapshot::infer_batch(
    const Tensor& images, kg::TaskId id, ConfigKind config) const {
  return decode_batch(infer_raw(images, id, config), id, config);
}

vit::VitOutput DeploymentSnapshot::infer_raw(const Tensor& images,
                                             kg::TaskId id,
                                             ConfigKind config) const {
  ITASK_CHECK(images.ndim() == 4, "DeploymentSnapshot: need [B, C, H, W]");
  ITASK_CHECK(tasks_.find(id) != nullptr,
              "DeploymentSnapshot: " + kg::task_id_to_string(id) +
                  " is not in snapshot v" + fmt::i64(version_) +
                  " (publish a snapshot containing it first)");
  if (config == ConfigKind::kTaskSpecific) {
    const auto it = students_.find(id);
    ITASK_CHECK(it != students_.end(),
                "DeploymentSnapshot: no task-specific student for " +
                    kg::task_id_to_string(id) + " in snapshot v" +
                    fmt::i64(version_));
    return it->second->infer(images);
  }
  ITASK_CHECK(quantized_ != nullptr,
              "DeploymentSnapshot: snapshot v" + fmt::i64(version_) +
                  " has no quantized model (prepare_quantized before "
                  "publish)");
  return quantized_->forward(images);
}

std::vector<std::vector<detect::Detection>> DeploymentSnapshot::decode_batch(
    const vit::VitOutput& output, kg::TaskId id, ConfigKind config) const {
  const kg::TaskTable::Entry* entry = tasks_.find(id);
  ITASK_CHECK(entry != nullptr,
              "DeploymentSnapshot: " + kg::task_id_to_string(id) +
                  " is not in snapshot v" + fmt::i64(version_));
  return decode_and_match(output, entry->compiled,
                          /*use_rel_head=*/config == ConfigKind::kTaskSpecific,
                          pipeline_);
}

std::optional<kg::TaskId> DeploymentSnapshot::first_missing_task(
    const DeploymentSnapshot& older) const {
  for (const kg::TaskId id : older.tasks().ids()) {
    if (!tasks_.contains(id)) return id;
  }
  return std::nullopt;
}

int64_t DeploymentSnapshot::plan_workspace(int64_t max_batch) const {
  ITASK_CHECK(max_batch >= 1, "plan_workspace: max_batch must be >= 1");
  Shape batched = expected_input_shape_;
  batched.insert(batched.begin(), max_batch);
  int64_t bytes = 0;
  const auto probe_one = [&](const auto& run_model) {
    // Zero-capacity probe arena: every allocation overflows (individually
    // heap'd, freed on destruction) while used() accumulates the exact
    // rounded footprint the real arena must cover.
    Arena probe(0);
    const ArenaScope scope(probe);
    const Tensor images(batched);  // the worker's stacked batch counts too
    const vit::VitOutput out = run_model(images);
    (void)out;
    bytes = std::max(bytes, probe.used());
  };
  for (const auto& [id, student] : students_) {
    (void)id;
    probe_one([&](const Tensor& images) { return student->infer(images); });
  }
  if (quantized_ != nullptr) {
    probe_one(
        [&](const Tensor& images) { return quantized_->forward(images); });
  }
  return bytes;
}

}  // namespace itask::core
