// Element kernels for the hot element loops of inference: tanh-GELU (value
// and gradient) and INT8 affine quantization.
//
// Each span function runs an AVX-512 loop when the build targets AVX-512F
// and a scalar loop otherwise; both are bit-identical, element for element,
// to the scalar functions declared beside them, on every input (±0,
// denormals, ±inf and NaN included). That identity is what lets forward(),
// infer() and backward() share these loops without moving any trained
// weight or served detection.
//
// The tanh inside GELU is a port of fdlibm's expm1f-based tanhf (the
// routine glibc 2.36 ships), so GELU does not depend on the host's libm.
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

}  // namespace itask::vmath
