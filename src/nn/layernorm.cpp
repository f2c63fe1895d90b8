#include "nn/layernorm.h"

#include <cmath>

#include "tensor/ops.h"

namespace itask::nn {

LayerNorm::LayerNorm(int64_t features, float eps)
    : features_(features),
      eps_(eps),
      gamma_(register_parameter("gamma", Tensor({features}, 1.0f))),
      beta_(register_parameter("beta", Tensor({features}))) {}

Tensor LayerNorm::normalize(const Tensor& input, float* xhat,
                            float* rstd) const {
  ITASK_CHECK(input.ndim() >= 1 && input.dim(input.ndim() - 1) == features_,
              "LayerNorm: trailing dim mismatch");
  const int64_t c = features_;
  const int64_t rows = input.numel() / c;
  Tensor out = input;
  auto o = out.data();
  auto g = gamma_.value.data();
  auto b = beta_.value.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    float mean = 0.0f;
    for (int64_t j = 0; j < c; ++j) mean += row[j];
    mean /= static_cast<float>(c);
    float var = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float d = row[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(c);
    const float r_std = 1.0f / std::sqrt(var + eps_);
    if (rstd != nullptr) rstd[r] = r_std;
    float* xrow = xhat != nullptr ? xhat + r * c : nullptr;
    for (int64_t j = 0; j < c; ++j) {
      const float xh = (row[j] - mean) * r_std;
      if (xrow != nullptr) xrow[j] = xh;
      row[j] = xh * g[j] + b[j];
    }
  }
  return out;
}

Tensor LayerNorm::forward(const Tensor& input) {
  const int64_t rows = input.numel() / features_;
  Tensor xhat({rows, features_});
  Tensor rstd({rows});
  Tensor out = normalize(input, xhat.data().data(), rstd.data().data());
  cached_xhat_ = std::move(xhat);
  cached_rstd_ = std::move(rstd);
  cached_shape_ = input.shape();
  return out;
}

Tensor LayerNorm::infer(const Tensor& input) const {
  return normalize(input, nullptr, nullptr);
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_xhat_.empty(), "LayerNorm: backward before forward");
  const int64_t c = features_;
  const int64_t rows = cached_xhat_.dim(0);
  ITASK_CHECK(grad_out.numel() == rows * c, "LayerNorm: grad size mismatch");
  Tensor dx({rows, c});
  auto g = grad_out.data();
  auto xh = cached_xhat_.data();
  auto rs = cached_rstd_.data();
  auto gam = gamma_.value.data();
  auto dgam = gamma_.grad.data();
  auto dbet = beta_.grad.data();
  auto dxo = dx.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = g.data() + r * c;
    const float* xrow = xh.data() + r * c;
    float* dxrow = dxo.data() + r * c;
    // dL/dxhat = g * gamma; then the standard layernorm backward:
    // dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    float mean_dxh = 0.0f, mean_dxh_xh = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float dxh = grow[j] * gam[j];
      mean_dxh += dxh;
      mean_dxh_xh += dxh * xrow[j];
      dgam[j] += grow[j] * xrow[j];
      dbet[j] += grow[j];
    }
    mean_dxh /= static_cast<float>(c);
    mean_dxh_xh /= static_cast<float>(c);
    for (int64_t j = 0; j < c; ++j) {
      const float dxh = grow[j] * gam[j];
      dxrow[j] = rs[r] * (dxh - mean_dxh - xrow[j] * mean_dxh_xh);
    }
  }
  return dx.reshape(cached_shape_);
}

}  // namespace itask::nn
