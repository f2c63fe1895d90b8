// Detection substrate tests: IoU properties, NMS behaviour, evaluation
// metrics against hand-constructed scenarios, and the output decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "detect/decoder.h"
#include "detect/metrics.h"
#include "detect/nms.h"
#include "data/dataset.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask::detect {
namespace {

BoxPx box(float cx, float cy, float w, float h) { return BoxPx{cx, cy, w, h}; }

TEST(Iou, HandCases) {
  EXPECT_FLOAT_EQ(iou(box(5, 5, 4, 4), box(5, 5, 4, 4)), 1.0f);
  EXPECT_FLOAT_EQ(iou(box(0, 0, 2, 2), box(10, 10, 2, 2)), 0.0f);
  // Half overlap: [0,4]x[0,4] vs [2,6]x[0,4] → inter 8, union 24.
  EXPECT_NEAR(iou(box(2, 2, 4, 4), box(4, 2, 4, 4)), 8.0f / 24.0f, 1e-5f);
}

TEST(Iou, DegenerateBoxesScoreZero) {
  EXPECT_EQ(iou(box(1, 1, 0, 4), box(1, 1, 4, 4)), 0.0f);
  EXPECT_EQ(iou(box(1, 1, 4, 4), box(1, 1, 4, -1)), 0.0f);
}

class IouProperty : public ::testing::TestWithParam<int> {};

TEST_P(IouProperty, SymmetricBoundedAndSelfUnit) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 100; ++i) {
    const BoxPx a = box(rng.uniform(0, 20), rng.uniform(0, 20),
                        rng.uniform(0.5f, 10), rng.uniform(0.5f, 10));
    const BoxPx b = box(rng.uniform(0, 20), rng.uniform(0, 20),
                        rng.uniform(0.5f, 10), rng.uniform(0.5f, 10));
    const float ab = iou(a, b);
    EXPECT_FLOAT_EQ(ab, iou(b, a));
    EXPECT_GE(ab, 0.0f);
    EXPECT_LE(ab, 1.0f + 1e-6f);
    EXPECT_NEAR(iou(a, a), 1.0f, 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IouProperty, ::testing::Values(1, 2, 3));

Detection det(BoxPx b, float conf) {
  Detection d;
  d.box = b;
  d.confidence = conf;
  return d;
}

TEST(Nms, SuppressesOverlaps) {
  std::vector<Detection> dets{det(box(5, 5, 4, 4), 0.9f),
                              det(box(5.5f, 5, 4, 4), 0.8f),
                              det(box(15, 15, 4, 4), 0.7f)};
  const auto kept = nms(dets, 0.5f);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].confidence, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].confidence, 0.7f);
}

TEST(Nms, KeepsAllWhenDisjoint) {
  std::vector<Detection> dets{det(box(2, 2, 2, 2), 0.5f),
                              det(box(10, 10, 2, 2), 0.9f),
                              det(box(20, 20, 2, 2), 0.7f)};
  const auto kept = nms(dets, 0.5f);
  EXPECT_EQ(kept.size(), 3u);
  // Sorted by confidence.
  EXPECT_GT(kept[0].confidence, kept[1].confidence);
  EXPECT_GT(kept[1].confidence, kept[2].confidence);
}

TEST(Nms, ThresholdControlsAggressiveness) {
  std::vector<Detection> dets{det(box(5, 5, 4, 4), 0.9f),
                              det(box(6.5f, 5, 4, 4), 0.8f)};  // IoU ≈ 0.38
  EXPECT_EQ(nms(dets, 0.5f).size(), 2u);
  EXPECT_EQ(nms(dets, 0.3f).size(), 1u);
}

TEST(Nms, EmptyInput) { EXPECT_TRUE(nms({}, 0.5f).empty()); }

TEST(Nms, DeterministicUnderEqualConfidenceTies) {
  // A chain of mutually overlapping equal-confidence detections: which ones
  // survive greedy NMS depends entirely on the tie-break. The old
  // confidence-only comparator left that to the (unstable) sort
  // implementation; detection_order must make the survivor set independent
  // of input order.
  std::vector<Detection> dets;
  for (int i = 0; i < 8; ++i) {
    Detection d = det(box(5.0f + 1.0f * static_cast<float>(i), 5.0f, 4, 4),
                      0.8f);
    d.cell = i;
    d.predicted_class = i % 3;
    dets.push_back(d);
  }
  const auto baseline = nms(dets, 0.5f);
  ASSERT_FALSE(baseline.empty());
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Detection> shuffled = dets;
    rng.shuffle(shuffled);
    const auto kept = nms(shuffled, 0.5f);
    ASSERT_EQ(kept.size(), baseline.size());
    for (size_t k = 0; k < kept.size(); ++k) {
      EXPECT_EQ(kept[k].cell, baseline[k].cell);
      EXPECT_FLOAT_EQ(kept[k].box.cx, baseline[k].box.cx);
    }
  }
}

TEST(Nms, DetectionOrderIsAStrictTotalOrderOnDistinctDetections) {
  Detection a = det(box(5, 5, 4, 4), 0.8f);
  a.predicted_class = 1;
  a.cell = 0;
  Detection b = a;
  b.cell = 1;
  // Identical keys except cell: exactly one direction orders first.
  EXPECT_TRUE(detection_order(a, b));
  EXPECT_FALSE(detection_order(b, a));
  EXPECT_FALSE(detection_order(a, a));
  // Higher confidence always ranks first, regardless of the tie-break keys.
  Detection c = b;
  c.confidence = 0.9f;
  EXPECT_TRUE(detection_order(c, a));
  EXPECT_FALSE(detection_order(a, c));
}

TEST(Nms, DetectionOrderIsAStrictWeakOrderWithNaNAndSignedZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Detection> dets;
  for (const float conf : {nan, 0.0f, -0.0f, 0.5f, 1.0f})
    for (const float cx : {nan, 3.0f})
      for (const int64_t cls : {0, 1}) {
        Detection d = det(box(cx, 5, 4, 4), conf);
        d.predicted_class = cls;
        dets.push_back(d);
      }
  const auto less = [](const Detection& a, const Detection& b) {
    return detection_order(a, b);
  };
  const auto equiv = [&](const Detection& a, const Detection& b) {
    return !less(a, b) && !less(b, a);
  };
  for (const Detection& a : dets) {
    EXPECT_FALSE(less(a, a));
    for (const Detection& b : dets) {
      if (less(a, b)) EXPECT_FALSE(less(b, a));
      for (const Detection& c : dets) {
        if (less(a, b) && less(b, c)) EXPECT_TRUE(less(a, c));
        if (equiv(a, b) && equiv(b, c)) EXPECT_TRUE(equiv(a, c));
      }
    }
  }
  // ±0 confidences tie; NaN confidences rank after every number.
  EXPECT_TRUE(equiv(det(box(3, 5, 4, 4), 0.0f), det(box(3, 5, 4, 4), -0.0f)));
  std::sort(dets.begin(), dets.end(), detection_order);
  EXPECT_FALSE(std::isnan(dets.front().confidence));
  for (size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(std::isnan(dets[dets.size() - 1 - i].confidence));
}

GroundTruthObject gt(BoxPx b, bool relevant) {
  GroundTruthObject g;
  g.box = b;
  g.task_relevant = relevant;
  return g;
}

TEST(Metrics, PerfectDetection) {
  std::vector<std::vector<Detection>> dets{
      {det(box(5, 5, 4, 4), 0.9f), det(box(15, 15, 4, 4), 0.8f)}};
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(5, 5, 4, 4), true), gt(box(15, 15, 4, 4), true)}};
  const EvalResult r = evaluate(dets, truth);
  EXPECT_EQ(r.true_positives, 2);
  EXPECT_EQ(r.false_positives, 0);
  EXPECT_EQ(r.false_negatives, 0);
  EXPECT_FLOAT_EQ(r.precision, 1.0f);
  EXPECT_FLOAT_EQ(r.recall, 1.0f);
  EXPECT_FLOAT_EQ(r.f1, 1.0f);
  EXPECT_FLOAT_EQ(r.average_precision, 1.0f);
  EXPECT_NEAR(r.mean_iou, 1.0f, 1e-6f);
}

TEST(Metrics, MissedObjectCountsAsFalseNegative) {
  std::vector<std::vector<Detection>> dets{{det(box(5, 5, 4, 4), 0.9f)}};
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(5, 5, 4, 4), true), gt(box(15, 15, 4, 4), true)}};
  const EvalResult r = evaluate(dets, truth);
  EXPECT_EQ(r.true_positives, 1);
  EXPECT_EQ(r.false_negatives, 1);
  EXPECT_FLOAT_EQ(r.recall, 0.5f);
  EXPECT_FLOAT_EQ(r.precision, 1.0f);
}

TEST(Metrics, DetectionOnIrrelevantObjectIsFalsePositive) {
  // The task-oriented twist: hitting a non-relevant object is a mistake.
  std::vector<std::vector<Detection>> dets{{det(box(5, 5, 4, 4), 0.9f)}};
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(5, 5, 4, 4), false)}};
  const EvalResult r = evaluate(dets, truth);
  EXPECT_EQ(r.true_positives, 0);
  EXPECT_EQ(r.false_positives, 1);
  EXPECT_EQ(r.false_negatives, 0);
}

TEST(Metrics, DuplicateDetectionsPenalised) {
  std::vector<std::vector<Detection>> dets{
      {det(box(5, 5, 4, 4), 0.9f), det(box(5, 5, 4, 4), 0.8f)}};
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(5, 5, 4, 4), true)}};
  const EvalResult r = evaluate(dets, truth);
  EXPECT_EQ(r.true_positives, 1);
  EXPECT_EQ(r.false_positives, 1);
}

TEST(Metrics, ApRewardsRankingQuality) {
  // Same TP/FP counts, but ranking TP first yields higher AP.
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(5, 5, 4, 4), true)}};
  std::vector<std::vector<Detection>> good{
      {det(box(5, 5, 4, 4), 0.9f), det(box(15, 15, 4, 4), 0.1f)}};
  std::vector<std::vector<Detection>> bad{
      {det(box(5, 5, 4, 4), 0.1f), det(box(15, 15, 4, 4), 0.9f)}};
  EXPECT_GT(evaluate(good, truth).average_precision,
            evaluate(bad, truth).average_precision);
}

TEST(Metrics, EmptySceneConventions) {
  // No truth, no detections → perfect.
  std::vector<std::vector<Detection>> none{{}};
  std::vector<std::vector<GroundTruthObject>> empty_truth{{}};
  const EvalResult r = evaluate(none, empty_truth);
  EXPECT_FLOAT_EQ(r.precision, 1.0f);
  EXPECT_FLOAT_EQ(r.recall, 1.0f);
  // No truth but spurious detections → zero precision.
  std::vector<std::vector<Detection>> spurious{{det(box(5, 5, 4, 4), 0.9f)}};
  EXPECT_FLOAT_EQ(evaluate(spurious, empty_truth).precision, 0.0f);
}

TEST(Metrics, PrCurveAgreesWithEvaluateAtTheOperatingPoint) {
  // Mixed outcome scene: one true positive at IoU 0.6, one false positive,
  // one missed object. evaluate() and pr_curve() run the same greedy
  // matching, so the curve's final point (all detections admitted) must
  // reproduce evaluate()'s operating-point precision/recall exactly.
  std::vector<std::vector<Detection>> dets{
      {det(box(5, 5, 4, 4), 0.9f), det(box(40, 40, 4, 4), 0.8f)}};
  std::vector<std::vector<GroundTruthObject>> truth{
      {gt(box(6, 5, 4, 4), true), gt(box(20, 20, 4, 4), true)}};
  const EvalResult r = evaluate(dets, truth, 0.4f);
  EXPECT_EQ(r.true_positives, 1);
  EXPECT_EQ(r.false_positives, 1);
  EXPECT_EQ(r.false_negatives, 1);
  const auto curve = pr_curve(dets, truth, 0.4f);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_FLOAT_EQ(curve.back().precision, r.precision);
  EXPECT_FLOAT_EQ(curve.back().recall, r.recall);
  // Unmatched detections contribute IoU 0, not the iou_threshold search
  // sentinel (the pr_curve side of the matcher used to record 0.4 here):
  // mean IoU is exactly the one matched pair's IoU.
  // TP boxes [3,7]x[3,7] vs [4,8]x[3,7]: inter 12, union 20 → 0.6.
  EXPECT_NEAR(r.mean_iou, 0.6f, 1e-5f);
}

TEST(Metrics, SceneCountMismatchThrows) {
  std::vector<std::vector<Detection>> dets(2);
  std::vector<std::vector<GroundTruthObject>> truth(3);
  EXPECT_THROW(evaluate(dets, truth), std::invalid_argument);
}

TEST(Decoder, ThresholdGatesCells) {
  vit::VitOutput out;
  out.objectness = Tensor({1, 9, 1}, -5.0f);     // all background…
  out.objectness.at({0, 4, 0}) = 5.0f;           // …except the centre cell
  out.class_logits = Tensor({1, 9, 3});
  out.class_logits.at({0, 4, 2}) = 4.0f;
  out.attr_logits = Tensor({1, 9, 4});
  out.box_deltas = Tensor({1, 9, 4});
  DecoderOptions options;
  options.grid = 3;
  options.image_size = 24;
  const auto dets = decode(out, options);
  ASSERT_EQ(dets.size(), 1u);
  ASSERT_EQ(dets[0].size(), 1u);
  const Detection& d = dets[0][0];
  EXPECT_EQ(d.cell, 4);
  EXPECT_GT(d.objectness, 0.99f);
  EXPECT_EQ(d.predicted_class, 2);
  // Zero deltas → box centred on the cell with cell-sized extent.
  EXPECT_NEAR(d.box.cx, 12.0f, 1e-4f);
  EXPECT_NEAR(d.box.cy, 12.0f, 1e-4f);
  EXPECT_NEAR(d.box.w, 8.0f, 1e-3f);
  // Probabilities are normalised.
  float sum = 0.0f;
  for (int64_t c = 0; c < 3; ++c) sum += d.class_probs[c];
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(Decoder, DropsCellsWithNonFiniteObjectnessOrBox) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  vit::VitOutput out;
  out.objectness = Tensor({1, 9, 1}, 5.0f);  // every cell is confident…
  out.objectness.at({0, 0, 0}) = nan;        // …but a NaN objectness,
  out.objectness.at({0, 1, 0}) = inf;        // (+inf is p_obj = 1: kept)
  out.box_deltas = Tensor({1, 9, 4});
  out.box_deltas.at({0, 2, 1}) = inf;        // an infinite box delta
  out.box_deltas.at({0, 3, 3}) = nan;        // or a NaN one drops the cell
  out.class_logits = Tensor({1, 9, 3});
  out.attr_logits = Tensor({1, 9, 4});
  DecoderOptions options;
  options.grid = 3;
  options.image_size = 24;
  const auto dets = decode(out, options);
  ASSERT_EQ(dets.size(), 1u);
  std::vector<int64_t> cells;
  for (const Detection& d : dets[0]) {
    cells.push_back(d.cell);
    EXPECT_TRUE(std::isfinite(d.objectness));
    EXPECT_TRUE(std::isfinite(d.box.cx) && std::isfinite(d.box.cy) &&
                std::isfinite(d.box.w) && std::isfinite(d.box.h));
  }
  EXPECT_EQ(cells, (std::vector<int64_t>{1, 4, 5, 6, 7, 8}));
}

TEST(Decoder, GridMismatchThrows) {
  vit::VitOutput out;
  out.objectness = Tensor({1, 9, 1});
  out.class_logits = Tensor({1, 9, 3});
  out.attr_logits = Tensor({1, 9, 4});
  out.box_deltas = Tensor({1, 9, 4});
  DecoderOptions options;
  options.grid = 4;  // 16 ≠ 9
  options.image_size = 24;
  EXPECT_THROW(decode(out, options), std::invalid_argument);
}

/// The eager decode: softmax and sigmoid over every cell first, then the
/// same per-cell gating as decode().
std::vector<std::vector<Detection>> eager_decode(const vit::VitOutput& out,
                                                 const DecoderOptions& opt) {
  const int64_t b = out.objectness.dim(0), t = out.objectness.dim(1);
  const int64_t c = out.class_logits.dim(2), a = out.attr_logits.dim(2);
  const float cell_px =
      static_cast<float>(opt.image_size) / static_cast<float>(opt.grid);
  const Tensor class_probs = ops::softmax_lastdim(out.class_logits);
  const Tensor attr_probs = ops::sigmoid(out.attr_logits);
  const Tensor obj_probs = ops::sigmoid(out.objectness);
  std::vector<std::vector<Detection>> result(static_cast<size_t>(b));
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t cell = 0; cell < t; ++cell) {
      const float p_obj = obj_probs.at({bi, cell, 0});
      if (!(p_obj >= opt.objectness_threshold)) continue;
      float delta[4];
      bool finite = true;
      for (int64_t j = 0; j < 4; ++j) {
        delta[j] = out.box_deltas.at({bi, cell, j});
        finite = finite && std::isfinite(delta[j]);
      }
      if (!finite) continue;
      Detection d;
      d.cell = cell;
      d.objectness = d.confidence = p_obj;
      d.box = data::decode_box(delta, cell, opt.grid, cell_px);
      d.attr_probs = Tensor({a});
      for (int64_t j = 0; j < a; ++j)
        d.attr_probs[j] = attr_probs.at({bi, cell, j});
      d.class_probs = Tensor({c});
      float best = -1.0f;
      for (int64_t j = 0; j < c; ++j) {
        d.class_probs[j] = class_probs.at({bi, cell, j});
        if (d.class_probs[j] > best) {
          best = d.class_probs[j];
          d.predicted_class = j;
        }
      }
      result[static_cast<size_t>(bi)].push_back(std::move(d));
    }
  return result;
}

bool same_bits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data().data(), y.data().data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

TEST(Decoder, PerKeptCellMatchesEagerDecode) {
  // Random head outputs salted with NaN, ±inf and ±3e38: decoding only the
  // kept cells gives the same detections, bit for bit, as the eager decode.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 3e38f,
                            -3e38f};
  DecoderOptions options;
  options.grid = 3;
  options.image_size = 24;
  int64_t kept = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    vit::VitOutput out;
    out.objectness = rng.randn({3, 9, 1}, 0.0f, 3.0f);
    out.class_logits = rng.randn({3, 9, 13}, 0.0f, 4.0f);
    out.attr_logits = rng.randn({3, 9, 16}, 0.0f, 4.0f);
    out.box_deltas = rng.randn({3, 9, 4});
    for (Tensor* head : {&out.objectness, &out.class_logits,
                         &out.attr_logits, &out.box_deltas})
      for (float& v : head->data())
        if (rng.bernoulli(0.08))
          v = specials[static_cast<size_t>(rng.randint(0, 4))];
    const auto got = decode(out, options);
    const auto want = eager_decode(out, options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t bi = 0; bi < got.size(); ++bi) {
      ASSERT_EQ(got[bi].size(), want[bi].size()) << "seed " << seed;
      for (size_t i = 0; i < got[bi].size(); ++i) {
        const Detection& g = got[bi][i];
        const Detection& w = want[bi][i];
        EXPECT_EQ(g.cell, w.cell);
        EXPECT_EQ(g.predicted_class, w.predicted_class);
        EXPECT_TRUE(same_bits(g.objectness, w.objectness));
        EXPECT_TRUE(same_bits(g.confidence, w.confidence));
        EXPECT_TRUE(same_bits(g.box.cx, w.box.cx) &&
                    same_bits(g.box.cy, w.box.cy) &&
                    same_bits(g.box.w, w.box.w) &&
                    same_bits(g.box.h, w.box.h));
        EXPECT_TRUE(same_bits(g.attr_probs, w.attr_probs))
            << "seed " << seed << " cell " << g.cell;
        EXPECT_TRUE(same_bits(g.class_probs, w.class_probs))
            << "seed " << seed << " cell " << g.cell;
        ++kept;
      }
    }
  }
  EXPECT_GT(kept, 100);  // the comparison is not vacuous
}

}  // namespace
}  // namespace itask::detect
