#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace itask::nn {

namespace {

/// [..., in] → [..., out] with the trailing axis replaced.
Shape with_features(const Tensor& x, int64_t features) {
  Shape shape = x.shape();
  shape.back() = features;
  return shape;
}

/// The fp32 serving kernel: gemm_bt_prepacked over the weight packed once
/// here. It replays gemm_bt's loop nest over the stored panels, so apply()
/// is bit-identical to linear_fp32 on the same weights.
class Fp32PrepackedKernel final : public LinearKernel {
 public:
  Fp32PrepackedKernel(const Tensor& weight, const Tensor* bias)
      : packed_(gemm::pack_weights_bt(weight.data().data(), weight.dim(1),
                                      weight.dim(0))),
        bias_(bias != nullptr ? *bias : Tensor()) {}

  Tensor apply(const Tensor& x) const override {
    const int64_t rows = x.numel() / packed_.k;
    // Storage is row-major contiguous, so x's flat data already IS the
    // [rows, in] matrix and y's the [rows, out] one — no reshape copies.
    Tensor y(with_features(x, packed_.n));
    gemm::gemm_bt_prepacked(x.data().data(), packed_, y.data().data(), rows);
    if (!bias_.empty()) ops::add_rowwise_inplace(y, bias_);
    return y;
  }

 private:
  gemm::PackedB packed_;
  Tensor bias_;
};

}  // namespace

Tensor linear_fp32(const Tensor& x, const Tensor& weight, const Tensor* bias) {
  ITASK_CHECK(weight.ndim() == 2, "linear_fp32: weight must be [out, in]");
  const int64_t in = weight.dim(1);
  ITASK_CHECK(x.ndim() >= 1 && x.dim(x.ndim() - 1) == in,
              "linear_fp32: trailing dim mismatch");
  const int64_t rows = x.numel() / in;
  Tensor y(with_features(x, weight.dim(0)));
  gemm::gemm_bt(x.data().data(), weight.data().data(), y.data().data(), rows,
                in, weight.dim(0));
  if (bias != nullptr) ops::add_rowwise_inplace(y, *bias);
  return y;
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(register_parameter(
          "weight", xavier_uniform({out_features, in_features}, in_features,
                                   out_features, rng))) {
  if (bias) {
    bias_ = &register_parameter("bias", Tensor({out_features}));
  }
}

Tensor Linear::forward(const Tensor& input) {
  ITASK_CHECK(input.ndim() >= 1, "Linear: input must be at least 1-D");
  ITASK_CHECK(input.dim(input.ndim() - 1) == in_features_,
              "Linear: trailing dim mismatch");
  cached_input_2d_ = input.reshape({input.numel() / in_features_, in_features_});
  cached_input_shape_ = input.shape();
  return linear_fp32(input, weight_.value,
                     bias_ != nullptr ? &bias_->value : nullptr);
}

Tensor Linear::infer(const Tensor& input) const {
  ITASK_CHECK(input.ndim() >= 1, "Linear: input must be at least 1-D");
  ITASK_CHECK(input.dim(input.ndim() - 1) == in_features_,
              "Linear: trailing dim mismatch");
  if (kernel_ != nullptr) return kernel_->apply(input);
  return linear_fp32(input, weight_.value,
                     bias_ != nullptr ? &bias_->value : nullptr);
}

void Linear::prepack_for_serving() {
  if (kernel_ != nullptr) return;  // idempotent — no writes once installed
  kernel_ = std::make_shared<const Fp32PrepackedKernel>(
      weight_.value, bias_ != nullptr ? &bias_->value : nullptr);
}

Tensor Linear::backward(const Tensor& grad_out) {
  ITASK_CHECK(!cached_input_2d_.empty(), "Linear: backward before forward");
  const int64_t rows = cached_input_2d_.dim(0);
  ITASK_CHECK(grad_out.numel() == rows * out_features_,
              "Linear: grad_out size mismatch");
  Tensor g2d = grad_out.reshape({rows, out_features_});
  // dW[out,in] += gᵀ · x
  ops::add_inplace(weight_.grad, ops::matmul_at(g2d, cached_input_2d_));
  if (bias_ != nullptr)
    ops::add_inplace(bias_->grad, ops::sum_to_lastdim(g2d));
  // dx[rows,in] = g · W
  Tensor dx = ops::matmul(g2d, weight_.value);
  return dx.reshape(cached_input_shape_);
}

}  // namespace itask::nn
