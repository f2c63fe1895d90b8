// Post-training-quantized ViT runtime.
//
// The student architecture itself — a vit::VitModel loaded from the trained
// model's state dict — whose every nn::Linear runs an INT8 serving kernel
// (symmetric weights, calibrated asymmetric activations). LayerNorm /
// softmax / GELU and attention's activation×activation products stay fp32
// in the shared VitModel::infer body — the standard edge recipe.
//
// Usage: construct → run calibrate() over representative images → finalize()
// → forward() runs the INT8 path.
#pragma once

#include <memory>
#include <vector>

#include "quant/calibrate.h"
#include "tensor/io.h"
#include "vit/model.h"

namespace itask::quant {

struct QuantOptions {
  WeightGranularity granularity = WeightGranularity::kPerChannel;
  CalibMethod method = CalibMethod::kMinMax;
  /// Integer grid widths (8 = standard deployment; 4/6 for the low-bit
  /// extension, see bench A4). Values are stored in int8 regardless.
  int weight_bits = 8;
  int activation_bits = 8;
};

/// The full quantized detection-ViT.
class QuantizedVit {
 public:
  /// Loads `state` into a VitModel of `config`; missing keys and shape
  /// mismatches throw (VitModel::load_state_dict).
  QuantizedVit(const vit::ViTConfig& config, const io::StateDict& state,
               QuantOptions options = {});

  /// Convenience: snapshot a live model.
  static QuantizedVit from_model(vit::VitModel& model,
                                 QuantOptions options = {});

  /// Runs the fp32 model over calibration images, recording every Linear's
  /// input activations.
  void calibrate(const Tensor& images);

  /// Freezes activation ranges, quantizes all weights and installs the INT8
  /// kernels, their weights pre-packed for int8_gemm_bt_prepacked.
  void finalize();

  /// INT8 inference: VitModel::infer through the INT8 kernels. Const and
  /// cache-free once finalized, so many threads may run it on one model
  /// concurrently.
  vit::VitOutput forward(const Tensor& images) const;

  const vit::ViTConfig& config() const { return model_->config(); }
  const QuantOptions& options() const { return options_; }

  /// Total INT8 weight bytes (model footprint after quantization).
  int64_t quantized_weight_bytes() const;

 private:
  QuantOptions options_;
  std::unique_ptr<vit::VitModel> model_;
  std::vector<nn::Linear*> linears_;  // every Linear of model_
  /// One per Linear while calibrating; empty once finalized.
  std::vector<std::unique_ptr<Calibrator>> calibrators_;
  bool finalized_ = false;
};

}  // namespace itask::quant
