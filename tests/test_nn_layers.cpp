// Layer tests: forward correctness against hand-computed values and
// numerical gradient checks for every hand-written backward pass.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.h"
#include "nn/gradcheck.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace itask::nn {
namespace {

TEST(Linear, ForwardHandCase) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value = Tensor({3, 2}, {1, 0, 0, 1, 1, 1});
  layer.bias()->value = Tensor({3}, {0.5f, -0.5f, 0.0f});
  Tensor x({1, 2}, {2.0f, 3.0f});
  Tensor y = layer.forward(x);
  EXPECT_TRUE(y.allclose(Tensor({1, 3}, {2.5f, 2.5f, 5.0f})));
}

TEST(Linear, HandlesLeadingDims) {
  Rng rng(2);
  Linear layer(4, 2, rng);
  Tensor x = rng.randn({3, 5, 4});
  Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5, 2}));
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 2})), std::invalid_argument);
}

TEST(Linear, GradCheck) {
  Rng rng(4);
  Linear layer(3, 4, rng);
  const Tensor x = rng.randn({5, 3});
  auto loss_fn = [&]() {
    Tensor y = layer.forward(x);
    // loss = sum(y^2) — its gradient wrt y is 2y.
    float loss = 0.0f;
    for (float v : y.data()) loss += v * v;
    layer.backward(ops::mul_scalar(y, 2.0f));
    return loss;
  };
  const auto result = check_gradients(layer, loss_fn);
  EXPECT_TRUE(result.ok) << "worst: " << result.worst_parameter
                         << " rel err " << result.max_rel_error;
}

TEST(Linear, NoBiasVariant) {
  Rng rng(5);
  Linear layer(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.bias(), nullptr);
  EXPECT_EQ(layer.parameters().size(), 1u);
}

TEST(LayerNorm, NormalisesRows) {
  LayerNorm ln(4);
  Tensor x({2, 4}, {1, 2, 3, 4, -2, 0, 2, 8});
  Tensor y = ln.forward(x);
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int64_t c = 0; c < 4; ++c) mean += y.at({r, c});
    mean /= 4.0f;
    for (int64_t c = 0; c < 4; ++c) {
      const float d = y.at({r, c}) - mean;
      var += d * d;
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(LayerNorm, AffineParamsApply) {
  LayerNorm ln(2);
  auto params = ln.parameters();
  ASSERT_EQ(params.size(), 2u);
  params[0]->value.fill(2.0f);  // gamma
  params[1]->value.fill(1.0f);  // beta
  Tensor x({1, 2}, {-1.0f, 1.0f});
  Tensor y = ln.forward(x);
  // xhat = (-1, 1) (unit variance via eps-free path), y = 2*xhat + 1.
  EXPECT_NEAR(y[0], -1.0f, 1e-2f);
  EXPECT_NEAR(y[1], 3.0f, 1e-2f);
}

TEST(LayerNorm, GradCheck) {
  Rng rng(6);
  LayerNorm ln(5);
  const Tensor x = rng.randn({4, 5});
  const Tensor target = rng.randn({4, 5});
  auto loss_fn = [&]() {
    Tensor y = ln.forward(x);
    auto res = mse(y, target);
    ln.backward(res.grad);
    return res.value;
  };
  const auto result = check_gradients(ln, loss_fn, 1e-3f, 3e-2f);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " "
                         << result.max_rel_error;
}

TEST(Activations, GeluLayerMatchesOp) {
  Gelu gelu;
  Rng rng(7);
  Tensor x = rng.randn({3, 3});
  EXPECT_TRUE(gelu.forward(x).allclose(ops::gelu(x)));
  Tensor g = rng.randn({3, 3});
  EXPECT_TRUE(gelu.backward(g).allclose(ops::gelu_grad(x, g)));
}

TEST(Optimizer, SgdStepDirection) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  layer.weight().value.fill(1.0f);
  layer.weight().grad.fill(0.5f);
  Sgd sgd(layer.parameters(), /*lr=*/0.1f);
  sgd.step();
  for (float v : layer.weight().value.data()) EXPECT_NEAR(v, 0.95f, 1e-6f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Rng rng(10);
  Linear layer(1, 1, rng, false);
  layer.weight().value.fill(0.0f);
  Sgd sgd(layer.parameters(), 0.1f, /*momentum=*/0.9f);
  layer.weight().grad.fill(1.0f);
  sgd.step();  // v=1, w=-0.1
  layer.weight().grad.fill(1.0f);
  sgd.step();  // v=1.9, w=-0.29
  EXPECT_NEAR(layer.weight().value[0], -0.29f, 1e-5f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)^2 with Adam.
  Rng rng(11);
  Linear layer(1, 1, rng, false);
  layer.weight().value.fill(0.0f);
  Adam adam(layer.parameters(), 0.1f);
  for (int i = 0; i < 300; ++i) {
    const float w = layer.weight().value[0];
    layer.weight().grad.fill(2.0f * (w - 3.0f));
    adam.step();
  }
  EXPECT_NEAR(layer.weight().value[0], 3.0f, 0.05f);
}

TEST(Optimizer, ZeroGradClears) {
  Rng rng(12);
  Linear layer(2, 2, rng);
  layer.weight().grad.fill(5.0f);
  Sgd sgd(layer.parameters(), 0.1f);
  sgd.zero_grad();
  for (float v : layer.weight().grad.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Optimizer, ClipGradNorm) {
  Rng rng(13);
  Linear layer(1, 2, rng, false);
  layer.weight().grad = Tensor({2, 1}, {3.0f, 4.0f});  // norm 5
  const float norm = clip_grad_norm(layer.parameters(), 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5f);
  EXPECT_NEAR(ops::l2_norm(layer.weight().grad), 1.0f, 1e-5f);
  // Below the threshold: untouched.
  layer.weight().grad = Tensor({2, 1}, {0.3f, 0.4f});
  clip_grad_norm(layer.parameters(), 1.0f);
  EXPECT_NEAR(ops::l2_norm(layer.weight().grad), 0.5f, 1e-5f);
}

TEST(Module, StateDictRoundTripThroughLoad) {
  Rng rng(14);
  Linear a(3, 2, rng), b(3, 2, rng);
  EXPECT_FALSE(a.weight().value.allclose(b.weight().value));
  b.load_state_dict(a.state_dict());
  EXPECT_TRUE(a.weight().value.allclose(b.weight().value, 0.0f));
}

TEST(Module, LoadMissingKeyThrows) {
  Rng rng(15);
  Linear layer(2, 2, rng);
  io::StateDict empty;
  EXPECT_THROW(layer.load_state_dict(empty), std::invalid_argument);
}

TEST(Module, ParameterCount) {
  Rng rng(16);
  Linear layer(3, 4, rng);
  EXPECT_EQ(layer.parameter_count(), 3 * 4 + 4);
}

}  // namespace
}  // namespace itask::nn
