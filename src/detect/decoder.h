// Decodes raw ViT head outputs into candidate detections (one grid cell at a
// time), applying the activation functions and box decoding.
#pragma once

#include <vector>

#include "detect/detection.h"
#include "vit/model.h"

namespace itask::detect {

struct DecoderOptions {
  float objectness_threshold = 0.5f;
  int64_t grid = 3;
  int64_t image_size = 24;
};

/// Decodes one batch of model outputs into per-image candidate lists.
/// Cells whose objectness is below the threshold or not a number, or whose
/// box deltas are not finite, are dropped; task scoring and NMS are applied
/// later by the pipeline.
std::vector<std::vector<Detection>> decode(const vit::VitOutput& output,
                                           const DecoderOptions& options);

}  // namespace itask::detect
