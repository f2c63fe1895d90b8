// Element kernels for the hot element loops of inference: tanh-GELU (value
// and gradient), INT8 affine quantization, exp and the functions built on it
// (sigmoid, row softmax), plus the attention tile that runs scores, softmax
// and context for one (image, head) in one pass.
//
// Each span function runs an AVX-512 loop when the build targets AVX-512F
// and a scalar loop otherwise; both are bit-identical, element for element,
// to the scalar functions declared beside them, on every input (±0,
// denormals, ±inf and NaN included). That identity is what lets forward(),
// infer() and backward() share these loops without moving any trained
// weight or served detection.
//
// Two libm routines are ported so no served float depends on the host's
// libm: the tanh inside GELU is fdlibm's expm1f-based tanhf, and exp is
// glibc 2.36's expf (a 32-entry 2^(i/32) table and a double-precision
// polynomial), whose range reduction is fused as in libm's FMA build.
//
// vmath.cpp is compiled with -ffp-contract=off: every fused multiply-add
// is written out explicitly, where the code it replaced was fused, so the
// compiler cannot fuse one side of the identity and not the other.
#pragma once

#include <cstdint>
#include <span>

namespace itask::vmath {

/// GELU, tanh approximation: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))),
/// with tanh the fdlibm tanhf port.
float gelu_scalar(float x);

/// g · GELU'(x).
float gelu_grad_scalar(float x, float g);

/// INT8 affine quantization on the integer grid [qmin, qmax] (a sub-range
/// of int8): round(x / scale) half away from zero, plus zero_point,
/// saturated. Above the grid or +inf gives qmax, below it or −inf gives
/// qmin, NaN gives clamp(zero_point, qmin, qmax). Requires scale > 0 and
/// qmin <= qmax.
int8_t quantize_scalar(float x, float scale, int32_t zero_point,
                       int32_t qmin, int32_t qmax);

/// e^x, the glibc 2.36 expf port: the host expf's bits on every input on a
/// host whose libm runs its FMA variant, NaN payloads included.
float exp_scalar(float x);

/// 1 / (1 + exp_scalar(−x)).
float sigmoid_scalar(float x);

/// y[i] = gelu_scalar(x[i]). y may alias x; sizes must match.
void gelu(std::span<const float> x, std::span<float> y);

/// y[i] = gelu_grad_scalar(x[i], g[i]). y may alias x or g; sizes must
/// match.
void gelu_grad(std::span<const float> x, std::span<const float> g,
               std::span<float> y);

/// q[i] = quantize_scalar(x[i], scale, zero_point, qmin, qmax); sizes must
/// match.
void quantize(std::span<const float> x, std::span<int8_t> q, float scale,
              int32_t zero_point, int32_t qmin, int32_t qmax);

/// y[i] = exp_scalar(x[i]). y may alias x; sizes must match.
void exp(std::span<const float> x, std::span<float> y);

/// y[i] = sigmoid_scalar(x[i]). y may alias x; sizes must match.
void sigmoid(std::span<const float> x, std::span<float> y);

/// Softmax of one row, in place: max = row[0] then max = std::max(max, x)
/// left to right, e = exp_scalar(x − max), sum = 0 + e left to right, and
/// each e × (1 / sum).
void softmax(std::span<float> row);

/// Scaled-dot-product attention over qkv [b, t, 3D], D = heads·hd: head h
/// of Q, K and V is the hd-wide column block at h·hd, D + h·hd and
/// 2D + h·hd. Writes the context into ctx [b, t, D] at column h·hd and,
/// when `probs` is non-empty, the probabilities into probs [b·heads, t, t].
///
/// One tile per (image, head) holds up to 16 query rows in vector lanes.
/// Per row it computes exactly what gemm_bt → × scale → softmax → gemm_nn
/// computed: each score is 0 + an FMA chain over the head dimension from
/// +0 (restarted every gemm::kKC steps, as the GEMM's k slabs are), times
/// `scale`; then softmax(); then each context element is 0 + an FMA chain
/// over the keys, slabbed the same way.
void attention(std::span<const float> qkv, int64_t b, int64_t t,
               int64_t heads, int64_t hd, float scale, std::span<float> ctx,
               std::span<float> probs);

}  // namespace itask::vmath
