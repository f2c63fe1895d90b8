#include "quant/qformat.h"

#include <algorithm>
#include <cmath>

#include "tensor/vmath.h"

namespace itask::quant {

namespace {

void check_bits(int bits) {
  ITASK_CHECK(bits >= 2 && bits <= 8, "QuantParams: bits must be in [2, 8]");
}

}  // namespace

QuantParams QuantParams::asymmetric(float lo, float hi, int bits) {
  ITASK_CHECK(hi >= lo, "QuantParams: hi < lo");
  check_bits(bits);
  // Ensure zero is representable and the range is non-degenerate.
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  const float span = std::max(hi - lo, 1e-8f);
  QuantParams p;
  p.qmin = -(1 << (bits - 1));
  p.qmax = (1 << (bits - 1)) - 1;
  p.scale = span / static_cast<float>(p.qmax - p.qmin);
  p.zero_point =
      p.qmin - static_cast<int32_t>(std::lround(lo / p.scale));
  p.zero_point = std::clamp(p.zero_point, p.qmin, p.qmax);
  return p;
}

QuantParams QuantParams::symmetric(float amax, int bits) {
  check_bits(bits);
  QuantParams p;
  p.qmin = -(1 << (bits - 1));
  p.qmax = (1 << (bits - 1)) - 1;
  p.scale = std::max(amax, 1e-8f) / static_cast<float>(p.qmax);
  p.zero_point = 0;
  return p;
}

QuantParams QuantParams::with_bits(int bits) const {
  const float lo = static_cast<float>(qmin - zero_point) * scale;
  const float hi = static_cast<float>(qmax - zero_point) * scale;
  return zero_point == 0 ? symmetric(std::max(-lo, hi), bits)
                         : asymmetric(lo, hi, bits);
}

int8_t QuantParams::quantize(float x) const {
  return vmath::quantize_scalar(x, scale, zero_point, qmin, qmax);
}

std::vector<int8_t> quantize_tensor(const Tensor& t, const QuantParams& p) {
  std::vector<int8_t> out(static_cast<size_t>(t.numel()));
  quantize_tensor_into(t, p, out);
  return out;
}

void quantize_tensor_into(const Tensor& t, const QuantParams& p,
                          std::span<int8_t> out) {
  ITASK_CHECK(static_cast<int64_t>(out.size()) == t.numel(),
              "quantize_tensor_into: size mismatch");
  vmath::quantize(t.data(), out, p.scale, p.zero_point, p.qmin, p.qmax);
}

Tensor dequantize_tensor(const std::vector<int8_t>& q, const Shape& shape,
                         const QuantParams& p) {
  ITASK_CHECK(static_cast<int64_t>(q.size()) == shape_numel(shape),
              "dequantize_tensor: size mismatch");
  Tensor out(shape);
  auto d = out.data();
  for (size_t i = 0; i < q.size(); ++i) d[i] = p.dequantize(q[i]);
  return out;
}

std::vector<int32_t> weight_row_sums(std::span<const int8_t> w, int64_t out,
                                     int64_t in) {
  ITASK_CHECK(static_cast<int64_t>(w.size()) == out * in,
              "weight_row_sums: size mismatch");
  std::vector<int32_t> sums(static_cast<size_t>(out));
  for (int64_t r = 0; r < out; ++r) {
    const int8_t* row = w.data() + r * in;
    int32_t s = 0;
    for (int64_t j = 0; j < in; ++j) s += row[j];
    sums[static_cast<size_t>(r)] = s;
  }
  return sums;
}

QuantizedWeight quantize_weight(const Tensor& weight,
                                WeightGranularity granularity, int bits) {
  ITASK_CHECK(weight.ndim() == 2, "quantize_weight: need [out, in]");
  QuantizedWeight qw;
  qw.out = weight.dim(0);
  qw.in = weight.dim(1);
  qw.data.resize(static_cast<size_t>(weight.numel()));
  auto w = weight.data();
  if (granularity == WeightGranularity::kPerTensor) {
    float amax = 0.0f;
    for (float v : w) amax = std::max(amax, std::abs(v));
    const QuantParams p = QuantParams::symmetric(amax, bits);
    qw.scales = {p.scale};
    for (size_t i = 0; i < qw.data.size(); ++i) qw.data[i] = p.quantize(w[i]);
  } else {
    qw.scales.resize(static_cast<size_t>(qw.out));
    for (int64_t r = 0; r < qw.out; ++r) {
      const float* row = w.data() + r * qw.in;
      float amax = 0.0f;
      for (int64_t j = 0; j < qw.in; ++j) amax = std::max(amax, std::abs(row[j]));
      const QuantParams p = QuantParams::symmetric(amax, bits);
      qw.scales[static_cast<size_t>(r)] = p.scale;
      for (int64_t j = 0; j < qw.in; ++j)
        qw.data[static_cast<size_t>(r * qw.in + j)] = p.quantize(row[j]);
    }
  }
  qw.row_sums = weight_row_sums(qw.data, qw.out, qw.in);
  return qw;
}

void fake_quantize_weight(Tensor& weight, WeightGranularity granularity,
                          int bits) {
  const QuantizedWeight qw = quantize_weight(weight, granularity, bits);
  auto w = weight.data();
  for (int64_t r = 0; r < qw.out; ++r) {
    const float scale = qw.scale_for_row(r);
    for (int64_t j = 0; j < qw.in; ++j)
      w[r * qw.in + j] =
          static_cast<float>(qw.data[static_cast<size_t>(r * qw.in + j)]) *
          scale;
  }
}

float quantization_mse(const Tensor& t, const QuantParams& p) {
  double acc = 0.0;
  for (float v : t.data()) {
    const float back = p.dequantize(p.quantize(v));
    const double d = static_cast<double>(v) - back;
    acc += d * d;
  }
  return t.numel() > 0 ? static_cast<float>(acc / static_cast<double>(t.numel()))
                       : 0.0f;
}

}  // namespace itask::quant
