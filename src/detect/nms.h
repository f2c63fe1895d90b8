// Intersection-over-union and greedy non-maximum suppression.
#pragma once

#include <vector>

#include "detect/detection.h"

namespace itask::detect {

/// IoU of two centre-based pixel boxes; 0 when either is degenerate.
float iou(const BoxPx& a, const BoxPx& b);

/// Deterministic ranking order for detections: descending confidence, ties
/// broken by class, then box coordinates, then cell. Confidence alone is not
/// a strict order — with an unstable std::sort, equal-confidence detections
/// would keep a platform-dependent survivor set through greedy NMS/matching.
/// A strict weak order on any float values: a NaN field equals NaN and
/// sorts below every number (so NaN confidences rank last), which the
/// std::sort calls in NMS, metrics and fusion rely on.
bool detection_order(const Detection& a, const Detection& b);

/// Greedy NMS: keeps detections in descending confidence order (ties broken
/// by detection_order, so the survivor set is input-order- and
/// platform-independent), suppressing any detection whose IoU with an
/// already-kept one exceeds `iou_threshold`. Returns the kept detections,
/// still sorted by confidence.
std::vector<Detection> nms(std::vector<Detection> detections,
                           float iou_threshold = 0.5f);

}  // namespace itask::detect
