#include "nn/embedding.h"

#include "nn/init.h"
#include "tensor/ops.h"

namespace itask::nn {

Tensor patchify(const Tensor& images, int64_t patch) {
  ITASK_CHECK(images.ndim() == 4, "patchify: need [B, C, H, W]");
  const int64_t b = images.dim(0), c = images.dim(1), h = images.dim(2),
                w = images.dim(3);
  ITASK_CHECK(h % patch == 0 && w % patch == 0,
              "patchify: image not divisible by patch size");
  const int64_t gh = h / patch, gw = w / patch;
  const int64_t t = gh * gw;
  const int64_t pv = c * patch * patch;
  Tensor out({b, t, pv});
  auto in = images.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t gy = 0; gy < gh; ++gy)
      for (int64_t gx = 0; gx < gw; ++gx) {
        float* dst = o.data() + (bi * t + gy * gw + gx) * pv;
        for (int64_t ci = 0; ci < c; ++ci)
          for (int64_t py = 0; py < patch; ++py) {
            const float* src = in.data() + ((bi * c + ci) * h +
                                            (gy * patch + py)) *
                                               w +
                               gx * patch;
            std::copy(src, src + patch,
                      dst + (ci * patch + py) * patch);
          }
      }
  return out;
}

Tensor unpatchify_grad(const Tensor& grad_patches, int64_t patch, int64_t c,
                       int64_t h, int64_t w) {
  ITASK_CHECK(grad_patches.ndim() == 3, "unpatchify_grad: need [B, T, pv]");
  const int64_t b = grad_patches.dim(0);
  const int64_t gh = h / patch, gw = w / patch;
  const int64_t t = gh * gw;
  const int64_t pv = c * patch * patch;
  ITASK_CHECK(grad_patches.dim(1) == t && grad_patches.dim(2) == pv,
              "unpatchify_grad: shape mismatch");
  Tensor out({b, c, h, w});
  auto in = grad_patches.data();
  auto o = out.data();
  for (int64_t bi = 0; bi < b; ++bi)
    for (int64_t gy = 0; gy < gh; ++gy)
      for (int64_t gx = 0; gx < gw; ++gx) {
        const float* src = in.data() + (bi * t + gy * gw + gx) * pv;
        for (int64_t ci = 0; ci < c; ++ci)
          for (int64_t py = 0; py < patch; ++py) {
            float* dst = o.data() + ((bi * c + ci) * h + (gy * patch + py)) *
                             w +
                         gx * patch;
            const float* s = src + (ci * patch + py) * patch;
            for (int64_t px = 0; px < patch; ++px) dst[px] += s[px];
          }
      }
  return out;
}

PatchEmbed::PatchEmbed(int64_t image_size, int64_t patch_size,
                       int64_t channels, int64_t dim, Rng& rng)
    : image_size_(image_size),
      patch_size_(patch_size),
      channels_(channels),
      dim_(dim),
      tokens_((image_size / patch_size) * (image_size / patch_size)),
      proj_(channels * patch_size * patch_size, dim, rng),
      cls_(register_parameter("cls", trunc_normal({dim}, 0.02f, rng))),
      pos_(register_parameter(
          "pos", trunc_normal({tokens_ + 1, dim}, 0.02f, rng))) {
  ITASK_CHECK(image_size % patch_size == 0,
              "PatchEmbed: image_size % patch_size != 0");
  register_child("proj", proj_);
}

template <typename Project>
Tensor PatchEmbed::embed(const Tensor& images, Project&& project) const {
  ITASK_CHECK(images.ndim() == 4 && images.dim(1) == channels_ &&
                  images.dim(2) == image_size_ && images.dim(3) == image_size_,
              "PatchEmbed: unexpected image shape");
  const int64_t b = images.dim(0);
  const Tensor projected = project(patchify(images, patch_size_));  // [B,T,D]
  Tensor out({b, tokens_ + 1, dim_});
  auto o = out.data();
  auto pd = projected.data();
  auto cls = cls_.value.data();
  auto pos = pos_.value.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    float* base = o.data() + bi * (tokens_ + 1) * dim_;
    for (int64_t j = 0; j < dim_; ++j) base[j] = cls[j] + pos[j];
    for (int64_t ti = 0; ti < tokens_; ++ti) {
      const float* src = pd.data() + (bi * tokens_ + ti) * dim_;
      float* dst = base + (ti + 1) * dim_;
      const float* prow = pos.data() + (ti + 1) * dim_;
      for (int64_t j = 0; j < dim_; ++j) dst[j] = src[j] + prow[j];
    }
  }
  return out;
}

Tensor PatchEmbed::forward(const Tensor& images) {
  Tensor out = embed(images,
                     [this](const Tensor& p) { return proj_.forward(p); });
  cached_batch_ = images.dim(0);
  return out;
}

Tensor PatchEmbed::infer(const Tensor& images) const {
  return embed(images, [this](const Tensor& p) { return proj_.infer(p); });
}

Tensor PatchEmbed::backward(const Tensor& grad_tokens) {
  ITASK_CHECK(cached_batch_ > 0, "PatchEmbed: backward before forward");
  const int64_t b = cached_batch_;
  ITASK_CHECK(grad_tokens.ndim() == 3 && grad_tokens.dim(0) == b &&
                  grad_tokens.dim(1) == tokens_ + 1 &&
                  grad_tokens.dim(2) == dim_,
              "PatchEmbed: grad shape mismatch");
  auto g = grad_tokens.data();
  auto dcls = cls_.grad.data();
  auto dpos = pos_.grad.data();
  Tensor d_proj({b, tokens_, dim_});
  auto dp = d_proj.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* base = g.data() + bi * (tokens_ + 1) * dim_;
    for (int64_t j = 0; j < dim_; ++j) {
      dcls[j] += base[j];
      dpos[j] += base[j];
    }
    for (int64_t ti = 0; ti < tokens_; ++ti) {
      const float* src = base + (ti + 1) * dim_;
      float* dst = dp.data() + (bi * tokens_ + ti) * dim_;
      float* prow = dpos.data() + (ti + 1) * dim_;
      for (int64_t j = 0; j < dim_; ++j) {
        dst[j] = src[j];
        prow[j] += src[j];
      }
    }
  }
  Tensor d_patches = proj_.backward(d_proj);  // [B, T, pv]
  return unpatchify_grad(d_patches, patch_size_, channels_, image_size_,
                         image_size_);
}

}  // namespace itask::nn
