// Multi-head self-attention with a hand-derived backward pass.
#pragma once

#include "nn/linear.h"
#include "nn/module.h"

namespace itask::nn {

/// Scaled-dot-product multi-head self-attention over token sequences
/// shaped [B, T, D]. QKV and output projections are Linear layers.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t dim, int64_t heads, Rng& rng);

  Tensor forward(const Tensor& tokens);

  /// Cache-free forward for concurrent inference: numerically identical to
  /// forward() but does not populate the activation caches (so backward()
  /// and last_attention() still refer to the last forward() call).
  Tensor infer(const Tensor& tokens) const;

  Tensor backward(const Tensor& grad_out);

  int64_t dim() const { return dim_; }
  int64_t heads() const { return heads_; }

  /// Attention probabilities of the most recent forward pass, laid out
  /// [B*H, T, T] (rows sum to 1). Empty before the first forward.
  const Tensor& last_attention() const { return cache_.attn; }

 private:
  /// Activations backward() needs: the projection output [B, T, 3D] and
  /// the attention probabilities [B*H, T, T].
  struct Cache {
    Tensor qkv, attn;
  };

  /// The one attention body forward() and infer() share: one
  /// vmath::attention tile per (image, head) reads Q, K and V straight out
  /// of qkv [B, T, 3D] and writes the context [B, T, D]. Stores the
  /// attention probabilities [B*H, T, T] into `keep_attn` when non-null;
  /// otherwise they are never materialised.
  Tensor attend(const Tensor& qkv, Tensor* keep_attn) const;

  int64_t dim_;
  int64_t heads_;
  int64_t head_dim_;
  float scale_;
  Linear qkv_;
  Linear proj_;
  Cache cache_;
};

}  // namespace itask::nn
