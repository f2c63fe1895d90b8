#include "quant/qvit.h"

#include "quant/int8_gemm.h"

namespace itask::quant {

namespace {

/// Calibration kernel: records the Linear's input, then computes exactly the
/// unquantized linear_fp32, so every downstream activation — and therefore
/// every calibrated range — is the fp32 model's.
class ObservingKernel final : public nn::LinearKernel {
 public:
  ObservingKernel(Calibrator& calibrator, nn::Linear& linear)
      : calibrator_(calibrator),
        weight_(linear.weight().value),
        bias_(linear.bias() != nullptr ? &linear.bias()->value : nullptr) {}

  Tensor apply(const Tensor& x) const override {
    calibrator_.observe(x);
    return nn::linear_fp32(x, weight_, bias_);
  }

 private:
  Calibrator& calibrator_;
  const Tensor& weight_;
  const Tensor* bias_;
};

/// INT8 serving kernel: qlinear_forward over the quantized weight, packed
/// once here for int8_gemm_bt_prepacked.
class Int8Kernel final : public nn::LinearKernel {
 public:
  Int8Kernel(nn::Linear& linear, const QuantParams& act,
             const QuantOptions& options)
      : weight_(quantize_weight(linear.weight().value, options.granularity,
                                options.weight_bits)),
        act_(act),
        bias_(linear.bias() != nullptr ? linear.bias()->value : Tensor()) {
    weight_.prepack();
  }

  Tensor apply(const Tensor& x) const override {
    return qlinear_forward(x, act_, weight_, bias_.empty() ? nullptr : &bias_);
  }

 private:
  QuantizedWeight weight_;
  QuantParams act_;
  Tensor bias_;
};

}  // namespace

QuantizedVit::QuantizedVit(const vit::ViTConfig& config,
                           const io::StateDict& state, QuantOptions options)
    : options_(options) {
  Rng rng(0);  // the initial weights are all overwritten by the state
  model_ = std::make_unique<vit::VitModel>(config, rng);
  model_->load_state_dict(state);
  for (nn::Module* module : model_->modules()) {
    auto* linear = dynamic_cast<nn::Linear*>(module);
    if (linear == nullptr) continue;
    linears_.push_back(linear);
    calibrators_.push_back(make_calibrator(options_.method));
    linear->set_kernel(
        std::make_shared<const ObservingKernel>(*calibrators_.back(), *linear));
  }
}

QuantizedVit QuantizedVit::from_model(vit::VitModel& model,
                                      QuantOptions options) {
  return QuantizedVit(model.config(), model.state_dict(), options);
}

void QuantizedVit::calibrate(const Tensor& images) {
  ITASK_CHECK(!finalized_, "QuantizedVit: calibrate after finalize");
  (void)model_->infer(images);
}

void QuantizedVit::finalize() {
  ITASK_CHECK(!finalized_, "QuantizedVit: double finalize");
  for (size_t i = 0; i < linears_.size(); ++i) {
    const QuantParams act =
        calibrators_[i]->finalize().with_bits(options_.activation_bits);
    linears_[i]->set_kernel(
        std::make_shared<const Int8Kernel>(*linears_[i], act, options_));
  }
  calibrators_.clear();
  finalized_ = true;
}

vit::VitOutput QuantizedVit::forward(const Tensor& images) const {
  ITASK_CHECK(finalized_, "QuantizedVit: forward before finalize");
  return model_->infer(images);
}

int64_t QuantizedVit::quantized_weight_bytes() const {
  ITASK_CHECK(finalized_, "QuantizedVit: not finalized");
  int64_t bytes = 0;  // one int8 per weight
  for (const nn::Linear* linear : linears_)
    bytes += linear->in_features() * linear->out_features();
  return bytes;
}

}  // namespace itask::quant
