// Attention, transformer, patch embedding, and full-model gradient checks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gradcheck.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/transformer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"
#include "vit/model.h"
#include "vit/workload.h"

namespace itask {
namespace {

TEST(Heads, IndivisibleThrows) {
  Rng rng(1);
  EXPECT_THROW(nn::MultiHeadAttention(5, 2, rng), std::invalid_argument);
}

TEST(Heads, ZeroOrNegativeHeadsThrow) {
  // heads is checked before anything divides by it: a typed error, not
  // SIGFPE.
  Rng rng(1);
  EXPECT_THROW(nn::MultiHeadAttention(8, 0, rng), std::invalid_argument);
  EXPECT_THROW(nn::MultiHeadAttention(8, -2, rng), std::invalid_argument);
  vit::ViTConfig config = vit::ViTConfig::student();
  config.heads = 0;
  EXPECT_THROW(vit::VitModel(config, rng), std::invalid_argument);
  EXPECT_THROW(vit::build_workload(config, 1), std::invalid_argument);
}

// ---- copy-based reference ---------------------------------------------------
//
// The attention composition the layer used before it read its heads in
// place: slice qkv into Q, K, V, split each into [B*H, T, hd] copies, run
// dense per-head GEMMs, scale, softmax, merge the context back, and re-pack
// dQ/dK/dV in backward. The in-place layer must match it bit for bit.

Tensor ref_split_heads(const Tensor& x, int64_t heads) {
  const int64_t b = x.dim(0), t = x.dim(1), d = x.dim(2), hd = d / heads;
  Tensor out({b * heads, t, hd});
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h)
      for (int64_t ti = 0; ti < t; ++ti)
        for (int64_t j = 0; j < hd; ++j)
          out[((bi * heads + h) * t + ti) * hd + j] =
              x[(bi * t + ti) * d + h * hd + j];
  return out;
}

Tensor ref_merge_heads(const Tensor& x, int64_t heads) {
  const int64_t b = x.dim(0) / heads, t = x.dim(1), hd = x.dim(2);
  const int64_t d = heads * hd;
  Tensor out({b, t, d});
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t h = 0; h < heads; ++h)
      for (int64_t ti = 0; ti < t; ++ti)
        for (int64_t j = 0; j < hd; ++j)
          out[(bi * t + ti) * d + h * hd + j] =
              x[((bi * heads + h) * t + ti) * hd + j];
  return out;
}

// [B, M, K] x [B, N, K]^T -> [B, M, N], one dense gemm_bt per batch.
Tensor ref_bmm_bt(const Tensor& a, const Tensor& b) {
  const int64_t nb = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
  Tensor out({nb, m, n});
  for (int64_t i = 0; i < nb; ++i)
    gemm::gemm_bt(a.data().data() + i * m * k, b.data().data() + i * n * k,
                  out.data().data() + i * m * n, m, k, n);
  return out;
}

// [B, K, M]^T x [B, K, N] -> [B, M, N], one dense gemm_at per batch.
Tensor ref_bmm_at(const Tensor& a, const Tensor& b) {
  const int64_t nb = a.dim(0), k = a.dim(1), m = a.dim(2), n = b.dim(2);
  Tensor out({nb, m, n});
  for (int64_t i = 0; i < nb; ++i)
    gemm::gemm_at(a.data().data() + i * k * m, b.data().data() + i * k * n,
                  out.data().data() + i * m * n, m, k, n);
  return out;
}

// Columns [from, from + width) of every row of a [B, T, W] tensor.
Tensor ref_columns(const Tensor& x, int64_t from, int64_t width) {
  const int64_t rows = x.dim(0) * x.dim(1), w = x.dim(2);
  Tensor out({x.dim(0), x.dim(1), width});
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t j = 0; j < width; ++j)
      out[r * width + j] = x[r * w + from + j];
  return out;
}

struct ReferenceAttention {
  ReferenceAttention(nn::MultiHeadAttention& layer, Rng& rng)
      : heads(layer.heads()),
        dim(layer.dim()),
        scale(1.0f / std::sqrt(static_cast<float>(dim / heads))),
        qkv(dim, 3 * dim, rng),
        proj(dim, dim, rng) {
    const io::StateDict state = layer.state_dict();
    for (auto* sub : {&qkv, &proj}) {
      const std::string prefix = sub == &qkv ? "qkv." : "proj.";
      io::StateDict part;
      for (const auto& [name, value] : state)
        if (name.rfind(prefix, 0) == 0)
          part.emplace(name.substr(prefix.size()), value);
      sub->load_state_dict(part);
    }
  }

  Tensor forward(const Tensor& x) {
    const Tensor packed = qkv.forward(x);
    q = ref_split_heads(ref_columns(packed, 0, dim), heads);
    k = ref_split_heads(ref_columns(packed, dim, dim), heads);
    v = ref_split_heads(ref_columns(packed, 2 * dim, dim), heads);
    attn = ops::softmax_lastdim(ops::mul_scalar(ref_bmm_bt(q, k), scale));
    return proj.forward(ref_merge_heads(ops::bmm(attn, v), heads));
  }

  Tensor backward(const Tensor& grad_out) {
    const Tensor d_ctx = ref_split_heads(proj.backward(grad_out), heads);
    const Tensor d_attn = ref_bmm_bt(d_ctx, v);
    const Tensor d_v = ref_bmm_at(attn, d_ctx);
    const Tensor d_scores = ops::mul_scalar(
        ops::softmax_backward_lastdim(attn, d_attn), scale);
    const Tensor dq = ref_merge_heads(ops::bmm(d_scores, k), heads);
    const Tensor dk = ref_merge_heads(ref_bmm_at(d_scores, q), heads);
    const Tensor dv = ref_merge_heads(d_v, heads);
    const int64_t rows = dq.dim(0) * dq.dim(1);
    Tensor d_qkv({dq.dim(0), dq.dim(1), 3 * dim});
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t j = 0; j < dim; ++j) {
        d_qkv[r * 3 * dim + j] = dq[r * dim + j];
        d_qkv[r * 3 * dim + dim + j] = dk[r * dim + j];
        d_qkv[r * 3 * dim + 2 * dim + j] = dv[r * dim + j];
      }
    return qkv.backward(d_qkv);
  }

  int64_t heads, dim;
  float scale;
  nn::Linear qkv, proj;
  Tensor q, k, v, attn;
};

::testing::AssertionResult bit_identical(const Tensor& got,
                                         const Tensor& want) {
  if (got.shape() != want.shape())
    return ::testing::AssertionFailure()
           << shape_to_string(got.shape()) << " vs "
           << shape_to_string(want.shape());
  if (std::memcmp(got.data().data(), want.data().data(),
                  static_cast<size_t>(got.numel()) * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "values differ";
  return ::testing::AssertionSuccess();
}

class AttentionInPlace
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(AttentionInPlace, BitIdenticalToCopyingReference) {
  const auto [b, t, d, h] = GetParam();
  Rng rng(static_cast<uint64_t>(b * 1000 + t * 100 + d + h));
  nn::MultiHeadAttention layer(d, h, rng);
  ReferenceAttention ref(layer, rng);
  const Tensor x = rng.randn({b, t, d});
  const Tensor grad_out = rng.randn({b, t, d});

  // Score rows holding ±inf, huge finite values and NaN. In the last image
  // token t/2 is scaled so its products overflow (±inf scores) and token 0
  // by 1e17 (huge finite scores; exp underflows to 0). Image 0 gets a NaN
  // feature, which reaches every score row of that image through K.
  Tensor specials = x;
  float* last = specials.data().data() + (b - 1) * t * d;
  for (int64_t j = 0; j < d; ++j) last[(t / 2) * d + j] *= 1e30f;
  for (int64_t j = 0; j < d; ++j) last[j] *= 1e17f;
  specials[1] = NAN;
  const Tensor want_specials = ref.forward(specials);
  EXPECT_TRUE(bit_identical(layer.forward(specials), want_specials))
      << "forward, specials";
  EXPECT_TRUE(bit_identical(layer.infer(specials), want_specials))
      << "infer, specials";
  EXPECT_TRUE(bit_identical(layer.last_attention(), ref.attn))
      << "attn, specials";

  const Tensor want = ref.forward(x);
  EXPECT_TRUE(bit_identical(layer.forward(x), want)) << "forward";
  EXPECT_TRUE(bit_identical(layer.infer(x), want)) << "infer";
  EXPECT_TRUE(bit_identical(layer.last_attention(), ref.attn)) << "attn";

  layer.zero_grad();
  EXPECT_TRUE(bit_identical(layer.backward(grad_out), ref.backward(grad_out)))
      << "input gradient";
  const auto got_params = layer.parameters();
  std::vector<nn::Parameter*> want_params = ref.qkv.parameters();
  for (nn::Parameter* p : ref.proj.parameters()) want_params.push_back(p);
  ASSERT_EQ(got_params.size(), want_params.size());
  for (size_t i = 0; i < got_params.size(); ++i)
    EXPECT_TRUE(bit_identical(got_params[i]->grad, want_params[i]->grad))
        << got_params[i]->name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AttentionInPlace,
    ::testing::Values(std::make_tuple(1, 10, 40, 4),
                      std::make_tuple(8, 10, 40, 4),
                      std::make_tuple(32, 10, 40, 4),
                      std::make_tuple(8, 10, 64, 4),
                      std::make_tuple(3, 37, 48, 6),
                      std::make_tuple(2, 5, 8, 1),
                      // T = 1; hd = 48 spans several 16-lane column blocks.
                      std::make_tuple(4, 1, 40, 4),
                      std::make_tuple(2, 3, 96, 2),
                      // hd and T past gemm::kKC: the FMA chains restart.
                      std::make_tuple(1, 3, 520, 2),
                      std::make_tuple(1, 260, 8, 1)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "t" +
             std::to_string(std::get<1>(info.param)) + "d" +
             std::to_string(std::get<2>(info.param)) + "h" +
             std::to_string(std::get<3>(info.param));
    });

/// The per-(image, head) composition attention ran before its tile:
/// strided gemm_bt, × scale, softmax over the [B*H, T, T] scores, strided
/// gemm_nn into the context.
void composed_attention(const Tensor& qkv, int64_t heads, float scale,
                        Tensor& ctx, Tensor& probs) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), ld = qkv.dim(2);
  const int64_t dim = ld / 3, hd = dim / heads;
  const float* src = qkv.data().data();
  Tensor scores({b * heads, t, t});
  for (int64_t bh = 0; bh < b * heads; ++bh) {
    const float* q = src + (bh / heads) * t * ld + (bh % heads) * hd;
    gemm::gemm_bt(q, q + dim, scores.data().data() + bh * t * t, t, hd, t,
                  ld, ld, t);
  }
  probs = ops::softmax_lastdim(ops::mul_scalar(std::move(scores), scale));
  ctx = Tensor({b, t, dim});
  for (int64_t bh = 0; bh < b * heads; ++bh) {
    const int64_t bi = bh / heads, col = (bh % heads) * hd;
    gemm::gemm_nn(probs.data().data() + bh * t * t,
                  src + bi * t * ld + 2 * dim + col,
                  ctx.data().data() + bi * t * dim + col, t, t, hd, t, ld,
                  dim);
  }
}

/// Bit-identical, except that any NaN matches any NaN: which payload an
/// FMA or add returns when two operands are different NaNs depends on the
/// instruction form the compiler picks, on either side.
::testing::AssertionResult identical_up_to_nan_payload(const Tensor& got,
                                                       const Tensor& want) {
  if (got.shape() != want.shape())
    return ::testing::AssertionFailure() << "shapes differ";
  for (int64_t i = 0; i < got.numel(); ++i)
    if (std::isnan(got[i]) != std::isnan(want[i]) ||
        (!std::isnan(got[i]) &&
         std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

/// vmath::attention against composed_attention, on probabilities and
/// context. `nan_payloads` demands equal NaN bits too.
::testing::AssertionResult tile_matches_composition(const Tensor& qkv,
                                                    int64_t heads,
                                                    bool nan_payloads) {
  const int64_t b = qkv.dim(0), t = qkv.dim(1), dim = qkv.dim(2) / 3;
  const float scale = 0.37f;
  Tensor want_ctx, want_probs;
  composed_attention(qkv, heads, scale, want_ctx, want_probs);
  Tensor ctx({b, t, dim});
  Tensor probs({b * heads, t, t});
  vmath::attention(qkv.data(), b, t, heads, dim / heads, scale, ctx.data(),
                   probs.data());
  const auto same = nan_payloads ? bit_identical : identical_up_to_nan_payload;
  auto result = same(probs, want_probs);
  if (!result) return result << " (probs)";
  return same(ctx, want_ctx) << " (ctx)";
}

TEST(AttentionTile, NaNPayloadsInfinitiesAndZerosMatchComposition) {
  // hd = 1 and q = ±1 make each score a chosen key value: score rows with
  // a NaN payload, ±inf, ±0 and 3e38. Every row holds one kind of NaN at
  // most, so which NaN an operation returns is determined and its bits
  // are compared.
  const float keys[] = {std::bit_cast<float>(0x7fc00001u), 2.0f, 7.0f,
                        -0.0f, INFINITY, 0.0f, -INFINITY, 3e38f, -1.5f};
  const int64_t t = 9;
  Tensor qkv({1, t, 3});
  for (int64_t i = 0; i < t; ++i) {
    qkv[i * 3] = i % 2 == 0 ? 1.0f : -1.0f;  // q
    qkv[i * 3 + 1] = keys[i];                 // k
    qkv[i * 3 + 2] = static_cast<float>(i) - 3.5f;  // v
  }
  EXPECT_TRUE(tile_matches_composition(qkv, 1, true));
  // Without the NaN key: finite, infinite and zero scores only.
  qkv[1] = 1.0f;
  EXPECT_TRUE(tile_matches_composition(qkv, 1, true));
}

TEST(AttentionTile, RandomSpecialsMatchComposition) {
  // Random Q, K, V with one entry in ten replaced by NaN, ±inf, ±0 or a
  // huge value, over row counts on both sides of the 16-lane tile. Chains
  // here can meet two different NaNs, so only NaN-ness is compared there.
  const float specials[] = {NAN, -NAN, INFINITY, -INFINITY, 0.0f, -0.0f,
                            3e38f, -3e38f, 1e-40f};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int64_t b = 2, t = 5 + 3 * static_cast<int64_t>(seed), heads = 2;
    Tensor qkv = rng.randn({b, t, 3 * heads * 3});
    for (float& v : qkv.data())
      if (rng.bernoulli(0.1)) v = specials[rng.randint(0, 8)];
    EXPECT_TRUE(tile_matches_composition(qkv, heads, false))
        << "seed " << seed;
  }
}

TEST(Attention, OutputShapeAndGradCheck) {
  Rng rng(2);
  nn::MultiHeadAttention attn(8, 2, rng);
  const Tensor x = rng.randn({2, 4, 8}, 0.0f, 0.5f);
  Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8}));
  const Tensor target = rng.randn({2, 4, 8});
  auto loss_fn = [&]() {
    Tensor out = attn.forward(x);
    auto res = nn::mse(out, target);
    attn.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(attn, loss_fn, 1e-2f, 4e-2f, 12);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

TEST(Attention, PermutationEquivariance) {
  // Self-attention without masking is equivariant to token permutation.
  Rng rng(3);
  nn::MultiHeadAttention attn(8, 2, rng);
  Tensor x = rng.randn({1, 3, 8});
  Tensor y = attn.forward(x);
  // Swap tokens 0 and 2 of the input.
  Tensor xp = x;
  for (int64_t j = 0; j < 8; ++j) {
    std::swap(xp.data()[0 * 8 + j], xp.data()[2 * 8 + j]);
  }
  Tensor yp = attn.forward(xp);
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(yp.at({0, 0, j}), y.at({0, 2, j}), 1e-4f);
    EXPECT_NEAR(yp.at({0, 2, j}), y.at({0, 0, j}), 1e-4f);
    EXPECT_NEAR(yp.at({0, 1, j}), y.at({0, 1, j}), 1e-4f);
  }
}

TEST(TransformerBlock, GradCheck) {
  Rng rng(4);
  nn::TransformerBlock block(6, 2, 12, rng);
  const Tensor x = rng.randn({1, 3, 6}, 0.0f, 0.5f);
  const Tensor target = rng.randn({1, 3, 6});
  auto loss_fn = [&]() {
    Tensor y = block.forward(x);
    auto res = nn::mse(y, target);
    block.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(block, loss_fn, 1e-2f, 5e-2f, 8);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

TEST(TransformerEncoder, DepthAndShape) {
  Rng rng(5);
  nn::TransformerEncoder enc(8, 3, 2, 16, rng);
  EXPECT_EQ(enc.depth(), 3);
  Tensor x = rng.randn({2, 5, 8});
  EXPECT_EQ(enc.forward(x).shape(), (Shape{2, 5, 8}));
  EXPECT_THROW(nn::TransformerEncoder(8, 0, 2, 16, rng),
               std::invalid_argument);
}

TEST(Patchify, LayoutAndAdjoint) {
  // 1 image, 1 channel, 4x4, patch 2 → 4 patches of 4 values.
  Tensor img({1, 1, 4, 4});
  for (int64_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  Tensor patches = nn::patchify(img, 2);
  EXPECT_EQ(patches.shape(), (Shape{1, 4, 4}));
  // Patch (0,0) = pixels {0,1,4,5}.
  EXPECT_EQ(patches.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(patches.at({0, 0, 1}), 1.0f);
  EXPECT_EQ(patches.at({0, 0, 2}), 4.0f);
  EXPECT_EQ(patches.at({0, 0, 3}), 5.0f);
  // Patch (1,1) = pixels {10,11,14,15}.
  EXPECT_EQ(patches.at({0, 3, 0}), 10.0f);
  EXPECT_EQ(patches.at({0, 3, 3}), 15.0f);
  // unpatchify_grad is the exact adjoint: scattering ones and re-gathering
  // equals identity for non-overlapping patches.
  Tensor back = nn::unpatchify_grad(patches, 2, 1, 4, 4);
  EXPECT_TRUE(back.allclose(img, 0.0f));
}

TEST(PatchEmbed, ShapeAndClsToken) {
  Rng rng(6);
  nn::PatchEmbed embed(8, 4, 3, 16, rng);
  EXPECT_EQ(embed.tokens(), 4);
  Tensor img = rng.randn({2, 3, 8, 8});
  Tensor tokens = embed.forward(img);
  EXPECT_EQ(tokens.shape(), (Shape{2, 5, 16}));
}

TEST(PatchEmbed, GradCheck) {
  Rng rng(7);
  nn::PatchEmbed embed(4, 2, 1, 6, rng);
  const Tensor img = rng.randn({2, 1, 4, 4});
  const Tensor target = rng.randn({2, 5, 6});
  auto loss_fn = [&]() {
    Tensor tokens = embed.forward(img);
    auto res = nn::mse(tokens, target);
    embed.backward(res.grad);
    return res.value;
  };
  const auto result = nn::check_gradients(embed, loss_fn, 1e-2f, 3e-2f, 16);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

vit::ViTConfig tiny_config() {
  vit::ViTConfig c;
  c.image_size = 8;
  c.patch_size = 4;
  c.dim = 8;
  c.depth = 1;
  c.heads = 2;
  c.mlp_ratio = 2;
  c.num_classes = 3;
  c.num_attributes = 4;
  return c;
}

TEST(VitModel, OutputShapes) {
  Rng rng(8);
  vit::VitModel model(tiny_config(), rng);
  Tensor img = rng.randn({2, 3, 8, 8});
  const vit::VitOutput out = model.forward(img);
  EXPECT_EQ(out.objectness.shape(), (Shape{2, 4, 1}));
  EXPECT_EQ(out.class_logits.shape(), (Shape{2, 4, 3}));
  EXPECT_EQ(out.attr_logits.shape(), (Shape{2, 4, 4}));
  EXPECT_EQ(out.box_deltas.shape(), (Shape{2, 4, 4}));
  EXPECT_EQ(out.relevance.shape(), (Shape{2, 4, 1}));
  EXPECT_EQ(out.features.shape(), (Shape{2, 5, 8}));
}

TEST(VitModel, FullGradCheckThroughAllHeads) {
  Rng rng(9);
  vit::VitModel model(tiny_config(), rng);
  const Tensor img = rng.randn({1, 3, 8, 8}, 0.0f, 0.5f);
  const std::vector<int64_t> labels{0, 1, 2, 0};
  auto loss_fn = [&]() {
    const vit::VitOutput out = model.forward(img);
    vit::VitOutputGrads grads;
    float total = 0.0f;
    {
      auto res = nn::bce_with_logits(out.objectness,
                                     Tensor({1, 4, 1}, 1.0f));
      total += res.value;
      grads.objectness = res.grad;
    }
    {
      auto res = nn::softmax_cross_entropy(out.class_logits, labels);
      total += res.value;
      grads.class_logits = res.grad;
    }
    {
      auto res = nn::mse(out.attr_logits, Tensor({1, 4, 4}, 0.5f));
      total += res.value;
      grads.attr_logits = res.grad;
    }
    {
      auto res = nn::mse(out.box_deltas, Tensor({1, 4, 4}, 0.1f));
      total += res.value;
      grads.box_deltas = res.grad;
    }
    {
      auto res = nn::bce_with_logits(out.relevance, Tensor({1, 4, 1}, 0.0f));
      total += res.value;
      grads.relevance = res.grad;
    }
    model.backward(grads);
    return total;
  };
  const auto result = nn::check_gradients(model, loss_fn, 2e-3f, 5e-2f, 6);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " rel "
                         << result.max_rel_error;
}

TEST(VitModel, DeterministicForward) {
  Rng rng1(10), rng2(10);
  vit::VitModel m1(tiny_config(), rng1), m2(tiny_config(), rng2);
  Rng data(11);
  Tensor img = data.randn({1, 3, 8, 8});
  EXPECT_TRUE(m1.forward(img).objectness.allclose(m2.forward(img).objectness,
                                                  0.0f));
}

TEST(Workload, OpInventoryMatchesConfig) {
  vit::ViTConfig c = tiny_config();
  const auto w = vit::build_workload(c, 2);
  // patch_embed + depth*(qkv, scores, attn_value, proj, fc1, fc2) + 6 heads.
  EXPECT_EQ(static_cast<int64_t>(w.gemms.size()), 1 + c.depth * 6 + 6);
  EXPECT_GT(w.total_macs(), 0);
  EXPECT_GT(w.total_weight_bytes_int8(), 0);
  EXPECT_EQ(w.batch, 2);
  // Attention products carry no weights.
  for (const auto& g : w.gemms) {
    if (g.name.find("attn_") != std::string::npos)
      EXPECT_EQ(g.weight_bytes_int8(), 0) << g.name;
  }
}

TEST(Workload, MacsScaleLinearlyWithBatch) {
  vit::ViTConfig c = tiny_config();
  const auto w1 = vit::build_workload(c, 1);
  const auto w4 = vit::build_workload(c, 4);
  EXPECT_EQ(w4.total_macs(), 4 * w1.total_macs());
  // Weight bytes do NOT scale with batch.
  EXPECT_EQ(w4.total_weight_bytes_int8(), w1.total_weight_bytes_int8());
}

}  // namespace
}  // namespace itask
