#include "detect/nms.h"

#include <algorithm>
#include <cmath>

namespace itask::detect {

float iou(const BoxPx& a, const BoxPx& b) {
  if (a.w <= 0.0f || a.h <= 0.0f || b.w <= 0.0f || b.h <= 0.0f) return 0.0f;
  const float ix0 = std::max(a.x0(), b.x0());
  const float iy0 = std::max(a.y0(), b.y0());
  const float ix1 = std::min(a.x1(), b.x1());
  const float iy1 = std::min(a.y1(), b.y1());
  const float iw = std::max(0.0f, ix1 - ix0);
  const float ih = std::max(0.0f, iy1 - iy0);
  const float inter = iw * ih;
  const float uni = a.area() + b.area() - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

namespace {

// Three-way float comparison under which NaN equals NaN and sorts below
// every number; ordinary values (±0 included) compare as usual.
int compare(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(y) - std::isnan(x);
  return (x > y) - (x < y);
}

}  // namespace

bool detection_order(const Detection& a, const Detection& b) {
  if (const int c = compare(a.confidence, b.confidence)) return c > 0;
  if (a.predicted_class != b.predicted_class)
    return a.predicted_class < b.predicted_class;
  if (const int c = compare(a.box.cx, b.box.cx)) return c < 0;
  if (const int c = compare(a.box.cy, b.box.cy)) return c < 0;
  if (const int c = compare(a.box.w, b.box.w)) return c < 0;
  if (const int c = compare(a.box.h, b.box.h)) return c < 0;
  return a.cell < b.cell;
}

std::vector<Detection> nms(std::vector<Detection> detections,
                           float iou_threshold) {
  std::sort(detections.begin(), detections.end(), detection_order);
  std::vector<Detection> kept;
  for (Detection& d : detections) {
    bool suppressed = false;
    for (const Detection& k : kept) {
      if (iou(d.box, k.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(d));
  }
  return kept;
}

}  // namespace itask::detect
