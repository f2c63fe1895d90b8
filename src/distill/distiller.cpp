#include "distill/distiller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tensor/ops.h"

namespace itask::distill {

namespace {

/// Per-scene teacher outputs (leading batch dim stripped).
struct TeacherSlice {
  Tensor objectness, class_logits, attr_logits, box_deltas, features;
};

/// The teacher is frozen during distillation, so its outputs per scene are
/// computed once up front instead of once per epoch — this is the dominant
/// cost of distillation otherwise (the teacher is the big model).
std::vector<TeacherSlice> precompute_teacher(vit::VitModel& teacher,
                                             const data::Dataset& dataset) {
  std::vector<TeacherSlice> cache(static_cast<size_t>(dataset.size()));
  const auto indices = dataset.all_indices();
  constexpr int64_t kChunk = 16;
  for (int64_t start = 0; start < dataset.size(); start += kChunk) {
    const int64_t end = std::min(dataset.size(), start + kChunk);
    const data::Batch batch = dataset.make_batch(std::span<const int64_t>(
        indices.data() + start, static_cast<size_t>(end - start)));
    const vit::VitOutput out = teacher.forward(batch.images);
    for (int64_t i = start; i < end; ++i) {
      TeacherSlice& s = cache[static_cast<size_t>(i)];
      const int64_t bi = i - start;
      s.objectness = out.objectness.index(bi);
      s.class_logits = out.class_logits.index(bi);
      s.attr_logits = out.attr_logits.index(bi);
      s.box_deltas = out.box_deltas.index(bi);
      s.features = out.features.index(bi);
    }
  }
  return cache;
}

/// Re-assembles cached teacher outputs for a shuffled batch.
vit::VitOutput gather_teacher(const std::vector<TeacherSlice>& cache,
                              std::span<const int64_t> indices) {
  std::vector<Tensor> obj, cls, attr, box, feat;
  for (int64_t i : indices) {
    const TeacherSlice& s = cache[static_cast<size_t>(i)];
    obj.push_back(s.objectness);
    cls.push_back(s.class_logits);
    attr.push_back(s.attr_logits);
    box.push_back(s.box_deltas);
    feat.push_back(s.features);
  }
  vit::VitOutput out;
  out.objectness = ops::stack(obj);
  out.class_logits = ops::stack(cls);
  out.attr_logits = ops::stack(attr);
  out.box_deltas = ops::stack(box);
  out.features = ops::stack(feat);
  return out;
}

}  // namespace

Distiller::Distiller(vit::VitModel& teacher, vit::VitModel& student,
                     DistillOptions options, Rng& rng)
    : teacher_(teacher),
      student_(student),
      options_(options),
      rng_(options.seed) {
  ITASK_CHECK(teacher_.config().tokens() == student_.config().tokens(),
              "Distiller: teacher/student grid mismatch");
  std::vector<nn::Parameter*> params = student_.parameters();
  if (options_.gamma_features > 0.0f) {
    feature_proj_ = std::make_unique<nn::Linear>(
        student_.config().dim, teacher_.config().dim, rng);
    const auto proj_params = feature_proj_->parameters();
    params.insert(params.end(), proj_params.begin(), proj_params.end());
  }
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), options_.lr,
                                          0.9f, 0.999f, 1e-8f,
                                          options_.weight_decay);
}

DistillStats Distiller::run(const data::Dataset& dataset,
                            const data::TaskSpec* task) {
  ITASK_CHECK(dataset.size() > 0, "Distiller: empty dataset");
  const std::vector<TeacherSlice> teacher_cache =
      precompute_teacher(teacher_, dataset);
  DistillStats stats;

  TrainerOptions hard_options;
  hard_options.w_objectness = options_.alpha_hard;
  hard_options.w_class = options_.alpha_hard;
  hard_options.w_attributes = 1.5f * options_.alpha_hard;
  hard_options.w_box = 2.5f * options_.alpha_hard;
  hard_options.w_relevance = task != nullptr ? options_.w_relevance : 0.0f;

  std::vector<int64_t> order = dataset.all_indices();
  const int64_t steps_per_epoch = static_cast<int64_t>(
      (order.size() + options_.batch_size - 1) / options_.batch_size);
  const int64_t total_steps = steps_per_epoch * options_.epochs;
  bool first_recorded = false;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options_.batch_size)) {
      const float warmup_steps = std::max(
          1.0f, options_.warmup_fraction * static_cast<float>(total_steps));
      float lr = options_.lr;
      const float s = static_cast<float>(stats.steps);
      if (s < warmup_steps) {
        lr = options_.lr * (s + 1.0f) / warmup_steps;
      } else {
        const float progress =
            (s - warmup_steps) /
            std::max(1.0f, static_cast<float>(total_steps) - warmup_steps);
        const float cosine = 0.5f * (1.0f + std::cos(3.14159265f * progress));
        lr = options_.lr *
             (options_.lr_min_fraction +
              (1.0f - options_.lr_min_fraction) * cosine);
      }
      optimizer_->set_lr(lr);
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options_.batch_size));
      const std::span<const int64_t> batch_ids(order.data() + start,
                                               end - start);
      const data::Batch batch = dataset.make_batch(batch_ids, task);
      const vit::VitOutput t_out = gather_teacher(teacher_cache, batch_ids);

      student_.zero_grad();
      if (feature_proj_) feature_proj_->zero_grad();
      const vit::VitOutput s_out = student_.forward(batch.images);

      vit::VitOutputGrads grads;
      const StepLosses hard =
          supervised_losses(s_out, batch, hard_options, grads);

      // Logit distillation.
      float kd_total = 0.0f;
      const float b = options_.beta_logits;
      if (b > 0.0f) {
        auto kd_cls =
            nn::kd_kl(s_out.class_logits, t_out.class_logits,
                      options_.temperature);
        kd_total += b * kd_cls.value;
        ops::axpy_inplace(grads.class_logits, b, kd_cls.grad);
        auto kd_obj = nn::mse(s_out.objectness, t_out.objectness);
        kd_total += 0.5f * b * kd_obj.value;
        ops::axpy_inplace(grads.objectness, 0.5f * b, kd_obj.grad);
        auto kd_attr = nn::mse(s_out.attr_logits, t_out.attr_logits);
        kd_total += b * kd_attr.value;
        ops::axpy_inplace(grads.attr_logits, b, kd_attr.grad);
        auto kd_box = nn::mse(s_out.box_deltas, t_out.box_deltas);
        kd_total += b * kd_box.value;
        ops::axpy_inplace(grads.box_deltas, b, kd_box.grad);
      }

      // Feature distillation through the learned projection.
      float feat_loss = 0.0f;
      if (feature_proj_) {
        const Tensor projected = feature_proj_->forward(s_out.features);
        auto fd = nn::mse(projected, t_out.features);
        feat_loss = options_.gamma_features * fd.value;
        const Tensor d_proj_in = feature_proj_->backward(
            ops::mul_scalar(fd.grad, options_.gamma_features));
        grads.features = d_proj_in;
      }

      student_.backward(grads);
      nn::clip_grad_norm(student_.parameters(), options_.grad_clip);
      optimizer_->step();

      const float total = hard.total() + kd_total + feat_loss;
      if (!first_recorded) {
        stats.first_total = total;
        first_recorded = true;
      }
      stats.last_total = total;
      stats.last_hard = hard.total();
      stats.last_kd = kd_total;
      stats.last_feature = feat_loss;
      ++stats.steps;
      if (options_.verbose && stats.steps % 20 == 0) {
        std::printf("  [distill] step %lld lr=%.5f total=%.4f hard=%.4f "
                    "kd=%.4f feat=%.4f\n",
                    static_cast<long long>(stats.steps),
                    static_cast<double>(lr), static_cast<double>(total),
                    static_cast<double>(hard.total()),
                    static_cast<double>(kd_total),
                    static_cast<double>(feat_loss));
      }
    }
  }
  return stats;
}

}  // namespace itask::distill
