// Multi-head self-attention with a hand-derived backward pass.
#pragma once

#include "nn/linear.h"
#include "nn/module.h"

namespace itask::nn {

/// Rearranges [B, T, H*hd] into [B*H, T, hd] (exposed for tests).
Tensor split_heads(const Tensor& x, int64_t heads);

/// Inverse of split_heads: [B*H, T, hd] -> [B, T, H*hd].
Tensor merge_heads(const Tensor& x, int64_t heads);

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
  /// Activations backward() needs, all in the [B*H, T, *] layout.
  struct Cache {
    Tensor q, k, v, attn;
  };

  /// The one attention body forward() and infer() share: slices qkv
  /// [B, T, 3D] into heads, runs scaled-dot-product attention and merges
  /// the context back to [B, T, D]. Fills `keep` when non-null.
  Tensor attend(const Tensor& qkv, Cache* keep) const;

  int64_t dim_;
  int64_t heads_;
  int64_t head_dim_;
  float scale_;
  Linear qkv_;
  Linear proj_;
  Cache cache_;
  int64_t cached_batch_ = 0;
};

}  // namespace itask::nn
