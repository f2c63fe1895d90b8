// Fully-connected layer with cached-input backward.
#pragma once

#include <memory>

#include "nn/module.h"
#include "tensor/rng.h"

namespace itask::nn {

/// A serving kernel for one Linear: maps x [..., in] to x·Wᵀ + b
/// [..., out]. Installed on a Linear once its weights are final (fp32
/// prepacked GEMM at publish time, INT8 by quant::QuantizedVit) and
/// immutable afterwards, so apply() is safe to call from many threads.
class LinearKernel {
 public:
  virtual ~LinearKernel() = default;
  virtual Tensor apply(const Tensor& x) const = 0;
};

/// x·Wᵀ + b through the unpacked fp32 GEMM — forward()'s arithmetic, also
/// what infer() runs before a kernel is installed. x is [..., in], weight
/// [out, in], bias [out] or null; returns [..., out].
Tensor linear_fp32(const Tensor& x, const Tensor& weight, const Tensor* bias);

/// y = x · Wᵀ + b, where W is [out_features, in_features].
/// Accepts any input rank ≥ 1; all leading axes are treated as rows.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  /// Forward pass; caches the input for use by backward().
  Tensor forward(const Tensor& input);

  /// Cache-free forward for concurrent inference through the installed
  /// serving kernel (linear_fp32 when none is installed). Touches no
  /// mutable state. With the fp32 kernel it is bit-identical to forward().
  Tensor infer(const Tensor& input) const;

  /// Accumulates dW/db and returns dL/dinput (same shape as the cached input).
  Tensor backward(const Tensor& grad_out);

  /// Installs the fp32 serving kernel: the weight packed once into the
  /// k-major panels gemm_bt_prepacked consumes, so infer() skips the
  /// per-call B pack. Publish-time only — forward()/backward() keep the
  /// per-call pack (training weights change every step and would go stale
  /// against the kernel). Idempotent, and a no-op when any kernel (e.g. an
  /// INT8 one) is already installed.
  void prepack_for_serving() override;
  bool prepacked() const { return kernel_ != nullptr; }

  /// Replaces the serving kernel infer() runs (null restores linear_fp32).
  /// Not thread-safe against concurrent infer(): install before serving.
  void set_kernel(std::shared_ptr<const LinearKernel> kernel) {
    kernel_ = std::move(kernel);
  }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter* bias() { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Parameter& weight_;
  Parameter* bias_ = nullptr;
  /// Serving kernel; shared so snapshots holding the same model share it.
  std::shared_ptr<const LinearKernel> kernel_;
  Tensor cached_input_2d_;  // [rows, in]
  Shape cached_input_shape_;
};

}  // namespace itask::nn
