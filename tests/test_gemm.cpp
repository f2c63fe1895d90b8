// Kernel-layer parity tests: the blocked/packed GEMMs (tensor/gemm.h,
// quant int8) against the retained naive reference kernels, across awkward
// shapes — unit dims, primes, tails smaller than the micro-tile, blocks
// larger than one cache slab, empty batches. fp32 comparisons use the
// documented reassociation tolerance (EXPERIMENTS.md K0); int8 must be
// bit-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/linear.h"
#include "quant/int8_gemm.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask {
namespace {

// |packed − naive| ≤ kFpTol·(1 + |naive|): fp32 reassociation only — the
// kernels do the same multiplies in a different summation order.
constexpr float kFpTol = 2e-5f;

void expect_close(std::span<const float> got, std::span<const float> want,
                  const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = kFpTol * (1.0f + std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << label << " element " << i;
  }
}

// Awkward shapes: all-ones, primes, sub-tile tails, exact tile multiples,
// tile+1, and one case crossing every cache-block boundary (KC/MC/NC = 256/
// 128/128, MR×NR = 8×16).
const std::vector<std::tuple<int64_t, int64_t, int64_t>> kShapes = {
    {1, 1, 1},    {1, 17, 1},   {19, 1, 23},  {7, 11, 13},
    {5, 3, 9},    {8, 16, 16},  {16, 32, 48}, {9, 257, 17},
    {130, 300, 130}};

class GemmKernelParity
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(GemmKernelParity, Fp32AllVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  const Tensor a = rng.randn({m, k});
  const Tensor b_kn = rng.randn({k, n});
  const Tensor b_nk = rng.randn({n, k});
  const Tensor a_km = rng.randn({k, m});

  Tensor got({m, n}), want({m, n});
  gemm::gemm_nn(a.data().data(), b_kn.data().data(), got.data().data(), m, k,
                n);
  gemm::reference::gemm_nn(a.data().data(), b_kn.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "nn");

  got.fill(0.0f);
  want.fill(0.0f);
  gemm::gemm_bt(a.data().data(), b_nk.data().data(), got.data().data(), m, k,
                n);
  gemm::reference::gemm_bt(a.data().data(), b_nk.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "bt");

  got.fill(0.0f);
  want.fill(0.0f);
  gemm::gemm_at(a_km.data().data(), b_kn.data().data(), got.data().data(), m,
                k, n);
  gemm::reference::gemm_at(a_km.data().data(), b_kn.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "at");
}

TEST_P(GemmKernelParity, AccumulatesIntoNonzeroC) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m + k + n) + 77);
  const Tensor a = rng.randn({m, k});
  const Tensor b = rng.randn({k, n});
  Tensor got = rng.randn({m, n});
  Tensor want = got;
  gemm::gemm_nn(a.data().data(), b.data().data(), got.data().data(), m, k, n);
  gemm::reference::gemm_nn(a.data().data(), b.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "accumulate");
}

// Leading dimensions wider than the operand read a column block of a wider
// matrix in place. The packed panels hold the same values, so every variant
// is bit-identical to the dense call on copied operands, and C elements
// outside the [M, N] view keep their sentinel.
TEST_P(GemmKernelParity, StridedOperandsBitIdenticalToDense) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 7 + k * 3 + n) + 19);
  constexpr float kSentinel = -12345.0f;
  // Embeds a dense [rows, cols] tensor at column `off` of a [rows, ld]
  // buffer whose other elements hold the sentinel.
  const auto embed = [&](const Tensor& dense, int64_t ld, int64_t off) {
    const int64_t rows = dense.dim(0), cols = dense.dim(1);
    std::vector<float> wide(static_cast<size_t>(rows * ld), kSentinel);
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t c = 0; c < cols; ++c)
        wide[static_cast<size_t>(r * ld + off + c)] = dense[r * cols + c];
    return wide;
  };
  using Gemm = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t, int64_t, int64_t);
  struct Variant {
    const char* name;
    Gemm fn;
    Shape a, b;
  };
  const Variant variants[] = {{"nn", gemm::gemm_nn, {m, k}, {k, n}},
                              {"bt", gemm::gemm_bt, {m, k}, {n, k}},
                              {"at", gemm::gemm_at, {k, m}, {k, n}}};
  for (const Variant& v : variants) {
    const Tensor a = rng.randn(v.a);
    const Tensor b = rng.randn(v.b);
    const Tensor c0 = rng.randn({m, n});  // accumulate onto nonzero C
    Tensor dense = c0;
    v.fn(a.data().data(), b.data().data(), dense.data().data(), m, k, n, 0, 0,
         0);
    const int64_t lda = v.a[1] + 3, ldb = v.b[1] + 5, ldc = n + 7;
    const std::vector<float> wa = embed(a, lda, 2);
    const std::vector<float> wb = embed(b, ldb, 4);
    std::vector<float> wc = embed(c0, ldc, 1);
    v.fn(wa.data() + 2, wb.data() + 4, wc.data() + 1, m, k, n, lda, ldb, ldc);
    for (int64_t r = 0; r < m; ++r)
      for (int64_t c = 0; c < ldc; ++c) {
        const float got = wc[static_cast<size_t>(r * ldc + c)];
        if (c >= 1 && c < 1 + n) {
          EXPECT_EQ(std::memcmp(&got, &dense.data()[r * n + c - 1],
                                sizeof(float)),
                    0)
              << v.name << " C(" << r << ", " << c - 1 << ")";
        } else {
          EXPECT_EQ(got, kSentinel) << v.name << " outside view at " << r
                                    << ", " << c;
        }
      }
  }
}

TEST_P(GemmKernelParity, Int8PackedBitExactVsNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 7 + n) + 5);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> w(static_cast<size_t>(n * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  const int32_t zp = static_cast<int32_t>(rng.randint(-50, 50));
  std::vector<int32_t> want(static_cast<size_t>(m * n));
  std::vector<int32_t> got(static_cast<size_t>(m * n), -1);
  quant::int8_gemm_bt(a, zp, w, want, m, k, n);
  quant::int8_gemm_bt_packed(a, zp, w, quant::weight_row_sums(w, n, k), got,
                             m, k, n);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, GemmKernelParity, ::testing::ValuesIn(kShapes),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param));
    });

// ---- publish-time weight pre-packing --------------------------------------

class GemmPrepackParity
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

// The prepacked entry builds the same panels in the same order as the
// per-call pack, so fp32 results are bit-identical to gemm_bt (and therefore
// within the K0 reassociation tolerance of the naive reference).
TEST_P(GemmPrepackParity, Fp32BitExactVsPackPerCallAndCloseToReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 131 + k * 17 + n) + 3);
  const Tensor a = rng.randn({m, k});
  const Tensor b_nk = rng.randn({n, k});
  Tensor per_call({m, n}), prepacked({m, n}), naive({m, n});
  gemm::gemm_bt(a.data().data(), b_nk.data().data(), per_call.data().data(),
                m, k, n);
  const gemm::PackedB packed = gemm::pack_weights_bt(b_nk.data().data(), k, n);
  EXPECT_EQ(packed.k, k);
  EXPECT_EQ(packed.n, n);
  gemm::gemm_bt_prepacked(a.data().data(), packed, prepacked.data().data(), m);
  EXPECT_TRUE(prepacked.allclose(per_call, 0.0f)) << "prepacked vs per-call";
  gemm::reference::gemm_bt(a.data().data(), b_nk.data().data(),
                           naive.data().data(), m, k, n);
  expect_close(prepacked.data(), naive.data(), "prepacked vs naive");
}

TEST_P(GemmPrepackParity, Int8BitExactVsPackedAndNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 13 + k * 29 + n) + 11);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> w(static_cast<size_t>(n * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  const int32_t zp = static_cast<int32_t>(rng.randint(-50, 50));
  const std::vector<int32_t> sums = quant::weight_row_sums(w, n, k);
  std::vector<int32_t> naive(static_cast<size_t>(m * n));
  std::vector<int32_t> packed(static_cast<size_t>(m * n), -1);
  std::vector<int32_t> prepacked(static_cast<size_t>(m * n), -2);
  quant::int8_gemm_bt(a, zp, w, naive, m, k, n);
  quant::int8_gemm_bt_packed(a, zp, w, sums, packed, m, k, n);
  const quant::PackedWeightInt8 pw = quant::pack_weights_int8(w, n, k);
  quant::int8_gemm_bt_prepacked(a, zp, pw, sums, prepacked, m);
  EXPECT_EQ(prepacked, packed);
  EXPECT_EQ(prepacked, naive);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, GemmPrepackParity, ::testing::ValuesIn(kShapes),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(GemmPrepack, LinearInferUnchangedByPrepack) {
  Rng rng(1234);
  nn::Linear layer(24, 40, rng);
  const Tensor x = rng.randn({5, 3, 24});
  const Tensor before = layer.infer(x);
  EXPECT_FALSE(layer.prepacked());
  layer.prepack_for_serving();
  ASSERT_TRUE(layer.prepacked());
  layer.prepack_for_serving();  // idempotent
  const Tensor after = layer.infer(x);
  // infer() must stay arithmetically identical to forward() — the prepacked
  // kernel is bit-identical, not merely close.
  EXPECT_TRUE(after.allclose(before, 0.0f));
  EXPECT_TRUE(layer.forward(x).allclose(before, 0.0f));
}

TEST(GemmPrepack, QlinearForwardUnchangedByPrepack) {
  Rng rng(77);
  const Tensor w = rng.randn({40, 24});
  quant::QuantizedWeight qw =
      quant::quantize_weight(w, quant::WeightGranularity::kPerChannel);
  const Tensor x = rng.randn({9, 24});
  const quant::QuantParams act = quant::QuantParams::asymmetric(-3.0f, 3.0f);
  const Tensor before = quant::qlinear_forward(x, act, qw, nullptr);
  qw.prepack();
  ASSERT_NE(qw.packed, nullptr);
  const auto* first = qw.packed.get();
  qw.prepack();  // idempotent — the cache object is not rebuilt
  EXPECT_EQ(qw.packed.get(), first);
  const Tensor after = quant::qlinear_forward(x, act, qw, nullptr);
  EXPECT_TRUE(after.allclose(before, 0.0f));  // int8 path is bit-exact
}

// Satellite: the per-thread pack workspaces must stay bounded by one slab
// per operand (exact reservation, no geometric overshoot) however large the
// GEMM — and the bound is the documented cap.
TEST(GemmPrepack, PackWorkspaceStaysBoundedBySlabCap) {
  Rng rng(5);
  const int64_t m = 300, k = 600, n = 300;  // crosses every blocking extent
  const Tensor a = rng.randn({m, k});
  const Tensor b = rng.randn({n, k});
  Tensor c({m, n});
  gemm::gemm_bt(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  EXPECT_LE(gemm::pack_workspace_bytes(), gemm::pack_workspace_cap_bytes());
}

TEST(GemmKernel, EmptyBatchAndZeroDims) {
  // Empty batch: [0, m, k] × [0, k, n] → [0, m, n], no work, no crash.
  EXPECT_EQ(ops::bmm(Tensor({0, 3, 4}), Tensor({0, 4, 5})).shape(),
            (Shape{0, 3, 5}));
  // Zero rows / zero inner dim through the 2-D entry points.
  EXPECT_EQ(ops::matmul(Tensor({0, 4}), Tensor({4, 5})).shape(),
            (Shape{0, 5}));
  Tensor zk = ops::matmul(Tensor({3, 0}), Tensor({0, 5}));
  EXPECT_EQ(zk.shape(), (Shape{3, 5}));
  for (float v : zk.data()) EXPECT_EQ(v, 0.0f);
}

TEST(GemmKernel, BmmFamilyMatchesReferencePerBatch) {
  Rng rng(42);
  const int64_t bb = 3, m = 9, k = 21, n = 12;
  const Tensor a = rng.randn({bb, m, k});
  const Tensor b = rng.randn({bb, k, n});
  const Tensor out = ops::bmm(a, b);
  for (int64_t i = 0; i < bb; ++i) {
    Tensor want({m, n});
    gemm::reference::gemm_nn(a.data().data() + i * m * k,
                             b.data().data() + i * k * n, want.data().data(),
                             m, k, n);
    EXPECT_TRUE(out.index(i).allclose(want, 1e-4f)) << "batch " << i;
  }
}

TEST(GemmKernel, RowSumsTableMatchesOnTheFly) {
  Rng rng(9);
  const Tensor w = rng.randn({7, 13});
  const quant::QuantizedWeight qw =
      quant::quantize_weight(w, quant::WeightGranularity::kPerChannel);
  EXPECT_EQ(qw.row_sums, quant::weight_row_sums(qw.data, qw.out, qw.in));
  // qlinear_forward must accept a hand-built weight with no table.
  quant::QuantizedWeight bare = qw;
  bare.row_sums.clear();
  const Tensor x = rng.randn({4, 13});
  const quant::QuantParams act = quant::QuantParams::asymmetric(-3.0f, 3.0f);
  const Tensor with_table = quant::qlinear_forward(x, act, qw, nullptr);
  const Tensor without = quant::qlinear_forward(x, act, bare, nullptr);
  EXPECT_TRUE(with_table.allclose(without, 0.0f));
}

}  // namespace
}  // namespace itask
