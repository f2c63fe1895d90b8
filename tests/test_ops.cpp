// Unit + property tests for tensor ops: GEMM variants, elementwise math,
// softmax family, reductions. Property sweeps use TEST_P over random shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask {
namespace {

using ops::matmul;
using ops::matmul_at;
using ops::matmul_bt;
using ops::transpose2d;

TEST(Ops, AddSubMul) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {3.0f, 5.0f});
  EXPECT_TRUE(ops::add(a, b).allclose(Tensor({2}, {4.0f, 7.0f})));
  EXPECT_TRUE(ops::sub(b, a).allclose(Tensor({2}, {2.0f, 3.0f})));
  EXPECT_TRUE(ops::mul(a, b).allclose(Tensor({2}, {3.0f, 10.0f})));
  EXPECT_TRUE(ops::add_scalar(a, 1.0f).allclose(Tensor({2}, {2.0f, 3.0f})));
  EXPECT_TRUE(ops::mul_scalar(a, -2.0f).allclose(Tensor({2}, {-2.0f, -4.0f})));
}

TEST(Ops, ShapeMismatchThrows) {
  EXPECT_THROW(ops::add(Tensor({2}), Tensor({3})), std::invalid_argument);
  EXPECT_THROW(ops::mul(Tensor({2, 2}), Tensor({4})), std::invalid_argument);
}

TEST(Ops, InplaceVariants) {
  Tensor a({2}, {1.0f, 2.0f});
  ops::add_inplace(a, Tensor({2}, {1.0f, 1.0f}));
  EXPECT_TRUE(a.allclose(Tensor({2}, {2.0f, 3.0f})));
  ops::axpy_inplace(a, 2.0f, Tensor({2}, {1.0f, 0.5f}));
  EXPECT_TRUE(a.allclose(Tensor({2}, {4.0f, 4.0f})));
}

TEST(Ops, AddRowwise) {
  Tensor a({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {1.0f, 2.0f, 3.0f});
  Tensor out = ops::add_rowwise(a, bias);
  EXPECT_TRUE(out.allclose(Tensor({2, 3}, {1, 2, 3, 2, 3, 4})));
  EXPECT_THROW(ops::add_rowwise(a, Tensor({2})), std::invalid_argument);
}

TEST(Ops, MatmulHandCase) {
  Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor b = Tensor::from_rows({{5, 6}, {7, 8}});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(c.allclose(Tensor::from_rows({{19, 22}, {43, 50}})));
}

TEST(Ops, MatmulInnerMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
}

TEST(Ops, Transpose2d) {
  Tensor a = Tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
  Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 5.0f);
}

// ---- property sweeps over random shapes -----------------------------------

class GemmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmProperty, TransposedVariantsAgree) {
  const auto [m, k, n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Tensor a = rng.randn({m, k});
  Tensor b = rng.randn({k, n});
  const Tensor ref = matmul(a, b);
  EXPECT_TRUE(matmul_bt(a, transpose2d(b)).allclose(ref, 1e-4f));
  EXPECT_TRUE(matmul_at(transpose2d(a), b).allclose(ref, 1e-4f));
}

TEST_P(GemmProperty, BatchedMatchesLooped) {
  const auto [m, k, n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 100);
  constexpr int64_t kBatch = 3;
  Tensor a = rng.randn({kBatch, m, k});
  Tensor b = rng.randn({kBatch, k, n});
  Tensor out = ops::bmm(a, b);
  for (int64_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(out.index(i).allclose(matmul(a.index(i), b.index(i)), 1e-4f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(2, 3, 4, 2),
                      std::make_tuple(5, 7, 3, 3), std::make_tuple(8, 8, 8, 4),
                      std::make_tuple(1, 16, 5, 5),
                      std::make_tuple(13, 1, 9, 6),
                      std::make_tuple(4, 32, 2, 7)));

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, RowsSumToOneAndLogAgrees) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Tensor x = rng.randn({4, 7}, 0.0f, 3.0f);
  Tensor sm = ops::softmax_lastdim(x);
  Tensor lsm = ops::log_softmax_lastdim(x);
  for (int64_t r = 0; r < 4; ++r) {
    float row_sum = 0.0f;
    for (int64_t c = 0; c < 7; ++c) {
      const float p = sm.at({r, c});
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      row_sum += p;
      EXPECT_NEAR(std::log(p), lsm.at({r, c}), 1e-4f);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST_P(SoftmaxProperty, InvariantToRowShift) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 50);
  Tensor x = rng.randn({3, 5});
  Tensor shifted = ops::add_scalar(x, 100.0f);
  EXPECT_TRUE(ops::softmax_lastdim(x).allclose(
      ops::softmax_lastdim(shifted), 1e-5f));
}

TEST_P(SoftmaxProperty, BackwardMatchesFiniteDifference) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  Tensor x = rng.randn({2, 4});
  Tensor g = rng.randn({2, 4});
  Tensor y = ops::softmax_lastdim(x);
  Tensor dx = ops::softmax_backward_lastdim(y, g);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const Tensor yp = ops::softmax_lastdim(xp);
    const Tensor ym = ops::softmax_lastdim(xm);
    float numeric = 0.0f;
    for (int64_t j = 0; j < x.numel(); ++j)
      numeric += g[j] * (yp[j] - ym[j]) / (2.0f * eps);
    EXPECT_NEAR(dx[i], numeric, 5e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Values(1, 2, 3, 4));

TEST(Ops, GeluValuesAndGradFiniteDiff) {
  Tensor x({5}, {-2.0f, -0.5f, 0.0f, 0.5f, 2.0f});
  Tensor y = ops::gelu(x);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
  EXPECT_NEAR(y[4], 1.9546f, 1e-3f);   // gelu(2) ≈ 1.9546
  EXPECT_NEAR(y[0], -0.0454f, 1e-3f);  // gelu(-2) ≈ -0.0454
  Tensor g({5}, 1.0f);
  Tensor dx = ops::gelu_grad(x, g);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < 5; ++i) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float numeric =
        (ops::gelu(xp)[i] - ops::gelu(xm)[i]) / (2.0f * eps);
    EXPECT_NEAR(dx[i], numeric, 1e-3f);
  }
}

TEST(Ops, SigmoidTanh) {
  Tensor x({3}, {0.0f, 2.0f, -2.0f});
  Tensor s = ops::sigmoid(x);
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  EXPECT_NEAR(s[1], 0.8808f, 1e-3f);
  EXPECT_NEAR(s[1] + s[2], 1.0f, 1e-5f);  // sigmoid symmetry
  Tensor t = ops::tanh_t(x);
  EXPECT_NEAR(t[0], 0.0f, 1e-6f);
  EXPECT_NEAR(t[1], std::tanh(2.0f), 1e-6f);
}

TEST(Ops, Reductions) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_NEAR(ops::sum(x), 21.0f, 1e-5f);
  EXPECT_NEAR(ops::mean(x), 3.5f, 1e-5f);
  EXPECT_EQ(ops::max_value(x), 6.0f);
  EXPECT_NEAR(ops::l2_norm(Tensor({2}, {3.0f, 4.0f})), 5.0f, 1e-5f);
  Tensor col = ops::sum_to_lastdim(x);
  EXPECT_TRUE(col.allclose(Tensor({3}, {5.0f, 7.0f, 9.0f})));
}

TEST(Ops, ArgmaxLastdim) {
  Tensor x({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = ops::argmax_lastdim(x);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, Concat1dAndStack) {
  Tensor a({2}, {1, 2});
  Tensor b({3}, {3, 4, 5});
  Tensor cat = ops::concat1d({a, b});
  EXPECT_TRUE(cat.allclose(Tensor({5}, {1, 2, 3, 4, 5})));
  Tensor s = ops::stack({a, a});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_THROW(ops::stack({a, b}), std::invalid_argument);
}

}  // namespace
}  // namespace itask
