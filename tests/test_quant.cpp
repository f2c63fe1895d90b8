// Quantization tests: round-trip error bounds (property sweeps), per-channel
// vs per-tensor, INT8 GEMM vs FP32 reference, calibrators, and the full
// quantized-ViT runtime against its FP32 source model.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear.h"
#include "quant/calibrate.h"
#include "quant/int8_gemm.h"
#include "quant/qvit.h"
#include "tensor/ops.h"

namespace itask::quant {
namespace {

class QuantRoundTrip : public ::testing::TestWithParam<std::pair<float, float>> {};

TEST_P(QuantRoundTrip, ErrorBoundedByHalfScale) {
  const auto [lo, hi] = GetParam();
  const QuantParams p = QuantParams::asymmetric(lo, hi);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const float x = rng.uniform(std::min(lo, 0.0f), std::max(hi, 0.0f));
    const float back = p.dequantize(p.quantize(x));
    EXPECT_LE(std::abs(x - back), 0.5f * p.scale + 1e-6f) << "x=" << x;
  }
}

TEST_P(QuantRoundTrip, ZeroIsExact) {
  const auto [lo, hi] = GetParam();
  const QuantParams p = QuantParams::asymmetric(lo, hi);
  EXPECT_EQ(p.dequantize(p.quantize(0.0f)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, QuantRoundTrip,
    ::testing::Values(std::make_pair(-1.0f, 1.0f), std::make_pair(0.0f, 6.0f),
                      std::make_pair(-3.0f, 0.5f),
                      std::make_pair(-0.01f, 0.01f),
                      std::make_pair(-128.0f, 127.0f)));

TEST(QuantParams, SymmetricHasZeroPointZero) {
  const QuantParams p = QuantParams::symmetric(2.0f);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_NEAR(p.scale, 2.0f / 127.0f, 1e-6f);
  EXPECT_EQ(p.quantize(2.0f), 127);
  EXPECT_EQ(p.quantize(-2.0f), -127);
  EXPECT_EQ(p.quantize(-3.0f), -128);  // clamped
}

TEST(QuantParams, ClampsOutOfRange) {
  const QuantParams p = QuantParams::asymmetric(0.0f, 1.0f);
  EXPECT_EQ(p.quantize(100.0f), 127);
  EXPECT_EQ(p.quantize(-100.0f), -128);
}

TEST(QuantParams, SaturatesHugeAndInfinite) {
  const QuantParams sym = QuantParams::symmetric(1.0f);
  EXPECT_EQ(sym.quantize(3e9f), 127);
  EXPECT_EQ(sym.quantize(-3e9f), -128);
  EXPECT_EQ(sym.quantize(INFINITY), 127);
  EXPECT_EQ(sym.quantize(-INFINITY), -128);
  EXPECT_EQ(sym.quantize(NAN), 0);
  const QuantParams asym = QuantParams::asymmetric(-1.0f, 3.0f);
  ASSERT_NE(asym.zero_point, 0);
  EXPECT_EQ(asym.quantize(1e12f), asym.qmax);
  EXPECT_EQ(asym.quantize(-1e12f), asym.qmin);
  EXPECT_EQ(asym.quantize(INFINITY), asym.qmax);
  EXPECT_EQ(asym.quantize(-INFINITY), asym.qmin);
  EXPECT_EQ(asym.quantize(NAN), asym.zero_point);
  const QuantParams four = QuantParams::symmetric(1.0f, 4);
  EXPECT_EQ(four.quantize(3e9f), 7);
  EXPECT_EQ(four.quantize(-INFINITY), -8);
  // The tensor path (the serving hot loop) gives the same answers.
  const Tensor t = Tensor::from_values({3e9f, -3e9f, 1e12f, -1e12f, INFINITY,
                                        -INFINITY, NAN});
  for (const QuantParams& p : {sym, asym, four}) {
    const std::vector<int8_t> q = quantize_tensor(t, p);
    for (int64_t i = 0; i < t.numel(); ++i)
      EXPECT_EQ(q[static_cast<size_t>(i)], p.quantize(t[i])) << "i=" << i;
  }
}

TEST(Quant, QuantizeTensorMatchesScalarQuantize) {
  // Hand-built power-of-two scales make (k + 0.5)·scale an exact tie after
  // the division, so round-half-away-from-zero is really exercised.
  std::vector<QuantParams> params;
  for (const int bits : {4, 6, 8}) {
    params.push_back(QuantParams::symmetric(1.7f, bits));
    params.push_back(QuantParams::asymmetric(-0.3f, 2.2f, bits));
    QuantParams tie = QuantParams::symmetric(1.0f, bits);
    tie.scale = 0.25f;
    tie.zero_point = bits == 4 ? -2 : 3;
    params.push_back(tie);
  }
  Rng rng(11);
  for (const QuantParams& p : params) {
    std::vector<float> xs;
    const float range = p.scale * static_cast<float>(p.qmax - p.qmin);
    for (int i = 0; i < 300; ++i)
      xs.push_back(rng.uniform(-2 * range, 2 * range));
    for (int k = -140; k <= 140; ++k) {
      xs.push_back((static_cast<float>(k) + 0.5f) * p.scale);
      xs.push_back(static_cast<float>(k) * p.scale);
    }
    for (const float x : {0.0f, -0.0f, 1e-40f, -1e-40f, 3e9f, -3e9f, 1e12f,
                          -1e12f, 3.4e38f, -3.4e38f, INFINITY, -INFINITY,
                          NAN, -NAN})
      xs.push_back(x);
    const Tensor t({static_cast<int64_t>(xs.size())}, xs);
    const std::vector<int8_t> q = quantize_tensor(t, p);
    for (size_t i = 0; i < xs.size(); ++i)
      ASSERT_EQ(q[i], p.quantize(xs[i]))
          << "x=" << xs[i] << " grid [" << p.qmin << ", " << p.qmax << "]";
    // Every tail length; the byte past the end is never written.
    for (size_t n = 0; n <= 33; ++n) {
      std::vector<int8_t> out(n + 1, int8_t{99});
      quantize_tensor_into(
          Tensor({static_cast<int64_t>(n)},
                 std::vector<float>(xs.end() - static_cast<ptrdiff_t>(n),
                                    xs.end())),
          p, std::span(out).first(n));
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], p.quantize(xs[xs.size() - n + i])) << "n=" << n;
      EXPECT_EQ(out[n], 99) << "n=" << n;
    }
  }
  // Half away from zero at exact ties, like std::lround.
  const QuantParams& tie8 = params.back();
  EXPECT_EQ(tie8.quantize(2.5f * tie8.scale), 3 + tie8.zero_point);
  EXPECT_EQ(tie8.quantize(-2.5f * tie8.scale), -3 + tie8.zero_point);
  EXPECT_EQ(tie8.quantize(0.49999997f * tie8.scale), tie8.zero_point);
}

TEST(QuantizeWeight, PerChannelNeverWorseThanPerTensor) {
  Rng rng(3);
  // Rows with very different magnitudes — the per-channel win case.
  Tensor w({4, 8});
  for (int64_t r = 0; r < 4; ++r)
    for (int64_t c = 0; c < 8; ++c)
      w.at({r, c}) = rng.normal(0.0f, std::pow(10.0f, static_cast<float>(r) - 2.0f));
  auto mse_of = [&](WeightGranularity g) {
    const QuantizedWeight qw = quantize_weight(w, g);
    double err = 0.0;
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t c = 0; c < 8; ++c) {
        const float back =
            static_cast<float>(qw.data[static_cast<size_t>(r * 8 + c)]) *
            qw.scale_for_row(r);
        const double d = w.at({r, c}) - back;
        err += d * d;
      }
    return err;
  };
  EXPECT_LT(mse_of(WeightGranularity::kPerChannel),
            mse_of(WeightGranularity::kPerTensor));
}

TEST(QuantizeWeight, ScaleCountMatchesGranularity) {
  Rng rng(4);
  Tensor w = rng.randn({5, 3});
  EXPECT_EQ(quantize_weight(w, WeightGranularity::kPerTensor).scales.size(),
            1u);
  EXPECT_EQ(quantize_weight(w, WeightGranularity::kPerChannel).scales.size(),
            5u);
}

TEST(Int8Gemm, MatchesFp32Reference) {
  Rng rng(5);
  const int64_t m = 6, k = 16, n = 4;
  Tensor x = rng.randn({m, k});
  Tensor w = rng.randn({n, k});
  const Tensor ref = ops::matmul_bt(x, w);
  // Quantize and run the INT8 path.
  float lo = 0.0f, hi = 0.0f;
  for (float v : x.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const QuantParams act = QuantParams::asymmetric(lo, hi);
  const QuantizedWeight qw =
      quantize_weight(w, WeightGranularity::kPerChannel);
  const Tensor out = qlinear_forward(x, act, qw, nullptr);
  // Error bound: per output ≈ k × (act quant err × |w| + x × w quant err).
  for (int64_t i = 0; i < ref.numel(); ++i)
    EXPECT_NEAR(out[i], ref[i], 0.25f) << "element " << i;
  // Relative quality: mean abs error well under signal scale.
  float err = 0.0f, mag = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    err += std::abs(out[i] - ref[i]);
    mag += std::abs(ref[i]);
  }
  EXPECT_LT(err / mag, 0.05f);
}

TEST(Int8Gemm, ZeroPointCorrection) {
  // All-positive activations force a non-trivial zero point; the GEMM's
  // zero-point correction must keep results exact for exactly-representable
  // inputs.
  const QuantParams act = QuantParams::asymmetric(0.0f, 255.0f);
  std::vector<int8_t> a = {act.quantize(10.0f), act.quantize(20.0f)};
  std::vector<int8_t> w = {64, -64};
  std::vector<int32_t> acc(1);
  int8_gemm_bt(a, act.zero_point, w, acc, 1, 2, 1);
  // Expected: (q10 - zp)*64 + (q20 - zp)*(-64).
  const int32_t q10 = act.quantize(10.0f), q20 = act.quantize(20.0f);
  EXPECT_EQ(acc[0], (q10 - act.zero_point) * 64 + (q20 - act.zero_point) * -64);
}

TEST(Int8Gemm, SizeMismatchThrows) {
  std::vector<int8_t> a(4), w(4);
  std::vector<int32_t> acc(3);  // wrong
  EXPECT_THROW(int8_gemm_bt(a, 0, w, acc, 2, 2, 2), std::invalid_argument);
}

TEST(Calibrators, MinMaxIsExact) {
  MinMaxCalibrator calib;
  calib.observe(Tensor({3}, {-2.0f, 0.5f, 3.0f}));
  calib.observe(Tensor({2}, {-1.0f, 5.0f}));
  const QuantParams p = calib.finalize();
  EXPECT_NEAR(p.dequantize(p.quantize(-2.0f)), -2.0f, p.scale);
  EXPECT_NEAR(p.dequantize(p.quantize(5.0f)), 5.0f, p.scale);
}

TEST(Calibrators, FinalizeWithoutObservationsThrows) {
  MinMaxCalibrator m;
  EXPECT_THROW(m.finalize(), std::invalid_argument);
  PercentileCalibrator p;
  EXPECT_THROW(p.finalize(), std::invalid_argument);
  EntropyCalibrator e;
  EXPECT_THROW(e.finalize(), std::invalid_argument);
}

TEST(Calibrators, PercentileClipsOutliers) {
  PercentileCalibrator calib(98.0f);
  Rng rng(6);
  Tensor bulk = rng.rand({2000}, -1.0f, 1.0f);
  bulk[0] = 1000.0f;  // one massive outlier
  calib.observe(bulk);
  const QuantParams p = calib.finalize();
  // The outlier must not blow up the scale: bulk resolution stays fine.
  EXPECT_LT(p.scale, 0.05f);
  MinMaxCalibrator naive;
  naive.observe(bulk);
  EXPECT_GT(naive.finalize().scale, 1.0f);  // contrast: min-max suffers
}

TEST(Calibrators, EntropyProducesUsableRange) {
  EntropyCalibrator calib;
  Rng rng(7);
  calib.observe(rng.randn({5000}, 0.0f, 1.0f));
  const QuantParams p = calib.finalize();
  EXPECT_GT(p.scale, 0.0f);
  // Clip should land somewhere in (0.5σ, 8σ): covers the mass sensibly.
  const float clip = p.scale * 127.5f;
  EXPECT_GT(clip, 0.5f);
  EXPECT_LT(clip, 8.0f);
}

TEST(Calibrators, Factory) {
  EXPECT_NE(make_calibrator(CalibMethod::kMinMax), nullptr);
  EXPECT_NE(make_calibrator(CalibMethod::kPercentile), nullptr);
  EXPECT_NE(make_calibrator(CalibMethod::kEntropy), nullptr);
  EXPECT_STREQ(calib_method_name(CalibMethod::kEntropy), "entropy");
}

TEST(QuantizationMse, SmallForInRangeValues) {
  Rng rng(8);
  Tensor t = rng.rand({1000}, -1.0f, 1.0f);
  const QuantParams p = QuantParams::asymmetric(-1.0f, 1.0f);
  const float mse = quantization_mse(t, p);
  // Uniform quantization noise ≈ scale²/12.
  EXPECT_NEAR(mse, p.scale * p.scale / 12.0f, p.scale * p.scale / 6.0f);
}

// ---- full quantized runtime ------------------------------------------------

vit::ViTConfig small_config() {
  vit::ViTConfig c;
  c.image_size = 8;
  c.patch_size = 4;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.num_classes = 5;
  c.num_attributes = 6;
  return c;
}

TEST(QuantizedVit, TracksFp32ModelClosely) {
  Rng rng(9);
  vit::VitModel model(small_config(), rng);
  Tensor images = rng.rand({4, 3, 8, 8});
  const vit::VitOutput ref = model.forward(images);

  QuantizedVit qvit = QuantizedVit::from_model(model);
  qvit.calibrate(images);
  qvit.finalize();
  const vit::VitOutput out = qvit.forward(images);

  auto close = [](const Tensor& a, const Tensor& b, float tol) {
    float max_err = 0.0f;
    for (int64_t i = 0; i < a.numel(); ++i)
      max_err = std::max(max_err, std::abs(a[i] - b[i]));
    return max_err < tol;
  };
  EXPECT_TRUE(close(out.objectness, ref.objectness, 0.35f));
  EXPECT_TRUE(close(out.class_logits, ref.class_logits, 0.35f));
  EXPECT_TRUE(close(out.attr_logits, ref.attr_logits, 0.35f));
  EXPECT_TRUE(close(out.relevance, ref.relevance, 0.35f));
}

TEST(QuantizedVit, LifecycleEnforced) {
  Rng rng(10);
  vit::VitModel model(small_config(), rng);
  QuantizedVit qvit = QuantizedVit::from_model(model);
  Tensor images = rng.rand({1, 3, 8, 8});
  EXPECT_THROW(qvit.forward(images), std::invalid_argument);
  qvit.calibrate(images);
  qvit.finalize();
  EXPECT_THROW(qvit.finalize(), std::invalid_argument);
  EXPECT_THROW(qvit.calibrate(images), std::invalid_argument);
  EXPECT_NO_THROW(qvit.forward(images));
}

TEST(QuantizedVit, WeightBytesReflectInt8Footprint) {
  Rng rng(11);
  vit::VitModel model(small_config(), rng);
  QuantizedVit qvit = QuantizedVit::from_model(model);
  Tensor images = rng.rand({1, 3, 8, 8});
  qvit.calibrate(images);
  qvit.finalize();
  // INT8 weights = 1 byte per weight element; compare against the count of
  // weight parameters only (biases/LN/embeddings stay FP32).
  int64_t weight_elems = 0;
  for (const auto& [name, tensor] : model.state_dict())
    if (tensor.ndim() == 2 && name.find("weight") != std::string::npos)
      weight_elems += tensor.numel();
  EXPECT_EQ(qvit.quantized_weight_bytes(), weight_elems);
}

TEST(QuantizedVit, MissingStateKeyThrows) {
  Rng rng(12);
  vit::VitModel model(small_config(), rng);
  io::StateDict state = model.state_dict();
  state.erase("obj_head.weight");
  EXPECT_THROW(QuantizedVit(small_config(), state), std::invalid_argument);
}

TEST(QuantizedVit, RejectsStateOfAnotherImageSize) {
  // An 8px model's state has a 5-row positional embedding; a 12px config
  // needs 10. Construction must throw, not read pos out of bounds later.
  Rng rng(14);
  vit::VitModel model(small_config(), rng);
  vit::ViTConfig bigger = small_config();
  bigger.image_size = 12;
  EXPECT_THROW(QuantizedVit(bigger, model.state_dict()),
               std::invalid_argument);
}

TEST(QuantizedVit, ForwardRejectsImagesOfAnotherShape) {
  // The 8px config has 4 patches; a 12px batch has 9. The INT8 path must
  // throw rather than read the wrong patch rows.
  Rng rng(15);
  vit::VitModel model(small_config(), rng);
  QuantizedVit qvit = QuantizedVit::from_model(model);
  qvit.calibrate(rng.rand({2, 3, 8, 8}));
  qvit.finalize();
  EXPECT_THROW(qvit.forward(rng.rand({2, 3, 12, 12})), std::invalid_argument);
  EXPECT_THROW(qvit.forward(rng.rand({2, 1, 8, 8})), std::invalid_argument);
}

class CalibMethodSweep : public ::testing::TestWithParam<CalibMethod> {};

TEST_P(CalibMethodSweep, AllMethodsProduceWorkingRuntime) {
  Rng rng(13);
  vit::VitModel model(small_config(), rng);
  Tensor images = rng.rand({4, 3, 8, 8});
  QuantOptions options;
  options.method = GetParam();
  QuantizedVit qvit = QuantizedVit::from_model(model, options);
  qvit.calibrate(images);
  qvit.finalize();
  const vit::VitOutput out = qvit.forward(images);
  const vit::VitOutput ref = model.forward(images);
  float err = 0.0f, mag = 0.0f;
  for (int64_t i = 0; i < ref.class_logits.numel(); ++i) {
    err += std::abs(out.class_logits[i] - ref.class_logits[i]);
    mag += std::abs(ref.class_logits[i]);
  }
  EXPECT_LT(err / mag, 0.3f) << calib_method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Methods, CalibMethodSweep,
                         ::testing::Values(CalibMethod::kMinMax,
                                           CalibMethod::kPercentile,
                                           CalibMethod::kEntropy));

}  // namespace
}  // namespace itask::quant
