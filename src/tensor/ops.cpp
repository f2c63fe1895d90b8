#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "tensor/vmath.h"

namespace itask::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ITASK_CHECK(a.shape() == b.shape(),
              std::string(op) + ": shape mismatch " +
                  shape_to_string(a.shape()) + " vs " +
                  shape_to_string(b.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  auto o = out.data();
  auto bd = b.data();
  for (size_t i = 0; i < o.size(); ++i) o[i] += bd[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  auto o = out.data();
  auto bd = b.data();
  for (size_t i = 0; i < o.size(); ++i) o[i] -= bd[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  auto o = out.data();
  auto bd = b.data();
  for (size_t i = 0; i < o.size(); ++i) o[i] *= bd[i];
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a;
  for (float& v : out.data()) v += s;
  return out;
}

Tensor mul_scalar(Tensor a, float s) {
  for (float& v : a.data()) v *= s;
  return a;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  auto ad = a.data();
  auto bd = b.data();
  for (size_t i = 0; i < ad.size(); ++i) ad[i] += bd[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  auto ad = a.data();
  auto bd = b.data();
  for (size_t i = 0; i < ad.size(); ++i) ad[i] += alpha * bd[i];
}

void add_rowwise_inplace(Tensor& a, const Tensor& bias) {
  ITASK_CHECK(bias.ndim() == 1, "add_rowwise: bias must be 1-D");
  ITASK_CHECK(a.ndim() >= 1, "add_rowwise: input must be at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  ITASK_CHECK(bias.dim(0) == c, "add_rowwise: bias length mismatch");
  auto o = a.data();
  auto bd = bias.data();
  const int64_t rows = a.numel() / c;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    for (int64_t j = 0; j < c; ++j) row[j] += bd[j];
  }
}

Tensor add_rowwise(const Tensor& a, const Tensor& bias) {
  Tensor out = a;
  add_rowwise_inplace(out, bias);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul: need 2-D operands");
  ITASK_CHECK(a.dim(1) == b.dim(0), "matmul: inner dimension mismatch");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm::gemm_nn(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_bt: need 2-D operands");
  ITASK_CHECK(a.dim(1) == b.dim(1), "matmul_bt: inner dimension mismatch");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  gemm::gemm_bt(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_at: need 2-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "matmul_at: inner dimension mismatch");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  gemm::gemm_at(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  ITASK_CHECK(a.ndim() == 3 && b.ndim() == 3, "bmm: need 3-D operands");
  ITASK_CHECK(a.dim(0) == b.dim(0), "bmm: batch mismatch");
  ITASK_CHECK(a.dim(2) == b.dim(1), "bmm: inner dimension mismatch");
  const int64_t m = a.dim(1), k = a.dim(2), n = b.dim(2);
  const int64_t batches = a.dim(0);
  Tensor out({batches, m, n});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* od = out.data().data();
  for (int64_t i = 0; i < batches; ++i)
    gemm::gemm_nn(ad + i * m * k, bd + i * k * n, od + i * m * n, m, k, n);
  return out;
}

Tensor transpose2d(const Tensor& a) {
  ITASK_CHECK(a.ndim() == 2, "transpose2d: need 2-D operand");
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  auto ad = a.data();
  auto od = out.data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) od[j * m + i] = ad[i * n + j];
  return out;
}

Tensor gelu(const Tensor& a) {
  Tensor out = a;
  vmath::gelu(out.data(), out.data());
  return out;
}

Tensor gelu_grad(const Tensor& input, const Tensor& grad_out) {
  check_same_shape(input, grad_out, "gelu_grad");
  Tensor out = grad_out;
  vmath::gelu_grad(input.data(), out.data(), out.data());
  return out;
}

Tensor sigmoid(const Tensor& a) {
  Tensor out = a;
  vmath::sigmoid(out.data(), out.data());
  return out;
}

Tensor tanh_t(const Tensor& a) {
  Tensor out = a;
  for (float& v : out.data()) v = std::tanh(v);
  return out;
}

Tensor softmax_lastdim(Tensor a) {
  ITASK_CHECK(a.ndim() >= 1, "softmax_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  auto o = a.data();
  for (int64_t r = 0; r < rows; ++r)
    vmath::softmax(o.subspan(static_cast<size_t>(r * c),
                             static_cast<size_t>(c)));
  return a;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "log_softmax_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  Tensor out = a;
  auto o = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = o.data() + r * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) denom += vmath::exp_scalar(row[j] - mx);
    const float lse = mx + std::log(denom);
    for (int64_t j = 0; j < c; ++j) row[j] -= lse;
  }
  return out;
}

Tensor softmax_backward_lastdim(const Tensor& y, const Tensor& g) {
  check_same_shape(y, g, "softmax_backward_lastdim");
  const int64_t c = y.dim(y.ndim() - 1);
  const int64_t rows = y.numel() / c;
  Tensor out = y;
  auto o = out.data();
  auto yd = y.data();
  auto gd = g.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* yrow = yd.data() + r * c;
    const float* grow = gd.data() + r * c;
    float dot = 0.0f;
    for (int64_t j = 0; j < c; ++j) dot += yrow[j] * grow[j];
    float* orow = o.data() + r * c;
    for (int64_t j = 0; j < c; ++j) orow[j] = yrow[j] * (grow[j] - dot);
  }
  return out;
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  ITASK_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max_value(const Tensor& a) {
  ITASK_CHECK(a.numel() > 0, "max of empty tensor");
  float mx = a.data()[0];
  for (float v : a.data()) mx = std::max(mx, v);
  return mx;
}

std::vector<int64_t> argmax_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "argmax_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  std::vector<int64_t> out(static_cast<size_t>(rows));
  auto ad = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = ad.data() + r * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<size_t>(r)] = best;
  }
  return out;
}

Tensor sum_to_lastdim(const Tensor& a) {
  ITASK_CHECK(a.ndim() >= 1, "sum_to_lastdim: need at least 1-D");
  const int64_t c = a.dim(a.ndim() - 1);
  const int64_t rows = a.numel() / c;
  Tensor out({c});
  auto o = out.data();
  auto ad = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = ad.data() + r * c;
    for (int64_t j = 0; j < c; ++j) o[j] += row[j];
  }
  return out;
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

Tensor concat1d(const std::vector<Tensor>& parts) {
  ITASK_CHECK(!parts.empty(), "concat1d: empty input");
  std::vector<float> values;
  for (const Tensor& t : parts) {
    ITASK_CHECK(t.ndim() == 1, "concat1d: all parts must be 1-D");
    values.insert(values.end(), t.data().begin(), t.data().end());
  }
  // Read the size before moving: argument evaluation order is unspecified.
  const int64_t total = static_cast<int64_t>(values.size());
  return Tensor({total}, std::move(values));
}

Tensor stack(const std::vector<Tensor>& parts) {
  ITASK_CHECK(!parts.empty(), "stack: empty input");
  const Shape& sub = parts.front().shape();
  Shape shape;
  shape.push_back(static_cast<int64_t>(parts.size()));
  shape.insert(shape.end(), sub.begin(), sub.end());
  Tensor out(std::move(shape));
  for (size_t i = 0; i < parts.size(); ++i) {
    ITASK_CHECK(parts[i].shape() == sub, "stack: shape mismatch");
    out.set_index(static_cast<int64_t>(i), parts[i]);
  }
  return out;
}

}  // namespace itask::ops
