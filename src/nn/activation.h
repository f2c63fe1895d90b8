// The GELU activation layer (it caches the forward input for backward).
#pragma once

#include "nn/module.h"

namespace itask::nn {

class Gelu : public Module {
 public:
  Tensor forward(const Tensor& input);
  /// Cache-free forward for concurrent inference.
  Tensor infer(const Tensor& input) const;
  Tensor backward(const Tensor& grad_out);

 private:
  Tensor cached_input_;
};

}  // namespace itask::nn
