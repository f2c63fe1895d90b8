// Patch embedding front-end for the ViT: image -> patch tokens + CLS token
// + learned positional embedding.
#pragma once

#include "nn/linear.h"
#include "nn/module.h"

namespace itask::nn {

/// Rearranges [B, C, H, W] into flattened patches [B, T, C*P*P] where
/// T = (H/P)*(W/P). Exposed for tests.
Tensor patchify(const Tensor& images, int64_t patch);

/// Scatters patch gradients [B, T, C*P*P] back into image layout [B, C, H, W].
Tensor unpatchify_grad(const Tensor& grad_patches, int64_t patch, int64_t c,
                       int64_t h, int64_t w);

/// Linear patch projection with a learned CLS token and positional embedding.
/// Output is [B, T+1, dim]; token 0 is the CLS token.
class PatchEmbed : public Module {
 public:
  PatchEmbed(int64_t image_size, int64_t patch_size, int64_t channels,
             int64_t dim, Rng& rng);

  Tensor forward(const Tensor& images);

  /// Cache-free forward for concurrent inference.
  Tensor infer(const Tensor& images) const;

  /// Accumulates parameter gradients. Returns the gradient w.r.t. the input
  /// images (rarely needed, but kept for completeness / gradcheck).
  Tensor backward(const Tensor& grad_tokens);

  int64_t tokens() const { return tokens_; }  // excludes CLS
  int64_t dim() const { return dim_; }
  int64_t patch_size() const { return patch_size_; }

 private:
  /// The one embedding body forward() and infer() share: validates the
  /// image shape, then prepends CLS and adds the positional embedding to
  /// the projected patches `project(patchify(images))` [B, T, D].
  template <typename Project>
  Tensor embed(const Tensor& images, Project&& project) const;

  int64_t image_size_;
  int64_t patch_size_;
  int64_t channels_;
  int64_t dim_;
  int64_t tokens_;
  Linear proj_;
  Parameter& cls_;   // [dim]
  Parameter& pos_;   // [tokens+1, dim]
  int64_t cached_batch_ = 0;
};

}  // namespace itask::nn
