#include "nn/attention.h"

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/profile.h"
#include "tensor/vmath.h"

namespace itask::nn {

namespace {

/// dim / heads, checked before anything divides by heads.
int64_t checked_head_dim(int64_t dim, int64_t heads) {
  ITASK_CHECK(heads >= 1 && dim % heads == 0,
              "MultiHeadAttention: heads must be >= 1 and divide dim");
  return dim / heads;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t heads, Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(checked_head_dim(dim, heads)),
      scale_(1.0f / std::sqrt(static_cast<float>(head_dim_))),
      qkv_(dim, 3 * dim, rng),
      proj_(dim, dim, rng) {
  register_child("qkv", qkv_);
  register_child("proj", proj_);
}

Tensor MultiHeadAttention::attend(const Tensor& qkv, Tensor* keep_attn) const {
  const int64_t b = qkv.dim(0), t = qkv.dim(1);
  Tensor ctx({b, t, dim_});
  Tensor attn;
  if (keep_attn != nullptr) attn = Tensor({b * heads_, t, t});
  {
    ITASK_PROFILE_SCOPE(profile::Section::kAttention);
    vmath::attention(qkv.data(), b, t, heads_, head_dim_, scale_, ctx.data(),
                     attn.data());
  }
  if (keep_attn != nullptr) *keep_attn = std::move(attn);
  return ctx;
}

Tensor MultiHeadAttention::forward(const Tensor& tokens) {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(2) == dim_,
              "MultiHeadAttention: need [B, T, dim]");
  cache_.qkv = qkv_.forward(tokens);
  return proj_.forward(attend(cache_.qkv, &cache_.attn));
}

Tensor MultiHeadAttention::infer(const Tensor& tokens) const {
  ITASK_CHECK(tokens.ndim() == 3 && tokens.dim(2) == dim_,
              "MultiHeadAttention: need [B, T, dim]");
  return proj_.infer(attend(qkv_.infer(tokens), nullptr));
}

Tensor MultiHeadAttention::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cache_.attn.empty(),
              "MultiHeadAttention: backward before forward");
  const int64_t b = cache_.qkv.dim(0), t = cache_.qkv.dim(1), hd = head_dim_;
  const int64_t ld = 3 * dim_;  // qkv and d_qkv row stride
  const Tensor d_ctx = proj_.backward(grad_out);  // [B, T, D]
  const float* qkv = cache_.qkv.data().data();
  const float* dc = d_ctx.data().data();
  // dQ | dK | dV land in place, one column block per head.
  Tensor d_qkv({b, t, ld});
  float* dq = d_qkv.data().data();
  // ctx = attn · v
  Tensor d_attn({b * heads_, t, t});
  float* da = d_attn.data().data();
  const float* attn = cache_.attn.data().data();
  for (int64_t bh = 0; bh < b * heads_; ++bh) {
    const int64_t bi = bh / heads_, col = (bh % heads_) * hd;
    const float* g = dc + bi * t * dim_ + col;
    const int64_t v = bi * t * ld + 2 * dim_ + col;
    gemm::gemm_bt(g, qkv + v, da + bh * t * t, t, hd, t, dim_, ld, t);
    gemm::gemm_at(attn + bh * t * t, g, dq + v, t, t, hd, t, dim_, ld);
  }
  // attn = softmax(scale · q · kᵀ)
  const Tensor d_scores = ops::mul_scalar(
      ops::softmax_backward_lastdim(cache_.attn, d_attn), scale_);
  const float* ds = d_scores.data().data();
  for (int64_t bh = 0; bh < b * heads_; ++bh) {
    const int64_t q = (bh / heads_) * t * ld + (bh % heads_) * hd;
    gemm::gemm_nn(ds + bh * t * t, qkv + q + dim_, dq + q, t, t, hd, t, ld,
                  ld);
    gemm::gemm_at(ds + bh * t * t, qkv + q, dq + q + dim_, t, t, hd, t, ld,
                  ld);
  }
  return qkv_.backward(d_qkv);
}

}  // namespace itask::nn
