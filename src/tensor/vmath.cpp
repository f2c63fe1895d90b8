#include "tensor/vmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "tensor/shape.h"

#if defined(__AVX512F__)
// GCC 12's avx512fintrin.h seeds unmasked intrinsics with
// _mm512_undefined_*(), which -Wuninitialized reports at every use (GCC
// bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

// Built with -ffp-contract=off (see vmath.h): each std::fma /
// _mm512_fmadd_ps / _mm512_fnmadd_ps below stands where the code this
// replaced was fused; every other product and sum rounds on its own.

namespace itask::vmath {

namespace {

// fdlibm expm1f constants (glibc sysdeps/ieee754/flt-32/s_expm1f.c).
constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

// GELU constants; kGeluA3 is the product the compiler folded in the
// original gelu_grad (3.0f * 0.044715f, rounded once).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGeluA3 = 3.0f * 0.044715f;
static_assert(std::bit_cast<uint32_t>(kGeluA3) == 0x3e095d4eu);

uint32_t bits_of(float x) { return std::bit_cast<uint32_t>(x); }
float from_bits(uint32_t b) { return std::bit_cast<float>(b); }

/// fdlibm's SET_FLOAT_WORD(y, i + (k << 23)): adds k to y's exponent.
float add_exponent(float y, int32_t k) {
  return from_bits(bits_of(y) + (static_cast<uint32_t>(k) << 23));
}

/// fdlibm expm1f for the arguments tanh passes, x ∈ (−2, 44). Only the
/// branches that domain reaches are ported: the overflow and non-finite
/// filters and the k = 1 reduction (0.35 < x < 1.04) never run there.
float expm1_scalar(float x) {
  const uint32_t hx = bits_of(x) & 0x7fffffffu;
  if (hx < 0x33000000u) return x;  // |x| < 2^-25
  int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > ln2/2: x = k·ln2 + r
    float hi = 0.0f;
    float lo = 0.0f;
    if (hx < 0x3f851592u) {  // |x| < 1.5·ln2, negative in this domain
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // exact
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c) - hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return add_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {
    const float one_minus_2k = from_bits(0x3f800000u - (0x1000000u >> k));
    return add_exponent(one_minus_2k - (e - x), k);  // 1 − 2^-k
  }
  const float pow2_neg_k = from_bits(static_cast<uint32_t>(0x7f - k) << 23);
  return add_exponent((x - (e + pow2_neg_k)) + 1.0f, k);
}

/// fdlibm tanhf.
float tanh_scalar(float x) {
  const uint32_t jx = bits_of(x);
  const uint32_t ix = jx & 0x7fffffffu;
  if (ix > 0x7f800000u) return x + x;  // NaN
  if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55, ±0 included
  float z = 1.0f;  // |x| >= 22 or ±inf: fdlibm's 1 − tiny rounds to 1
  if (ix < 0x41b00000u) {
    const float a = std::fabs(x);
    if (ix >= 0x3f800000u) {
      const float t = expm1_scalar(a + a);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_scalar(a * -2.0f);
      z = -t / (t + 2.0f);
    }
  }
  return (jx >> 31) != 0 ? -z : z;
}

float gelu_inner(float v) {
  return std::fma(kGeluA * v * v, v, v) * kGeluC;
}

#if defined(__AVX512F__)

__m512 splat(float v) { return _mm512_set1_ps(v); }
__m512i splat_i(int32_t v) { return _mm512_set1_epi32(v); }
__m512i as_int(__m512 v) { return _mm512_castps_si512(v); }
__m512 as_float(__m512i v) { return _mm512_castsi512_ps(v); }

__m512i sign_bit() { return splat_i(static_cast<int32_t>(0x80000000u)); }

__m512 add_exponent(__m512 y, __m512i k) {
  return as_float(_mm512_add_epi32(as_int(y), _mm512_slli_epi32(k, 23)));
}

__mmask16 tail_mask(size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

/// expm1_scalar on 16 lanes: every branch is evaluated and the result
/// blended by mask. The three reductions fold into one: k = 0 and k = −1
/// give the same hi/lo as fdlibm's special cases (0·ln2 and ±1·ln2 are
/// exact), so only k differs per lane.
__m512 expm1_lanes(__m512 x) {
  const __m512i hx = _mm512_and_si512(as_int(x), splat_i(0x7fffffff));
  const __mmask16 neg = _mm512_test_epi32_mask(as_int(x), sign_bit());
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(hx, splat_i(0x33000000));
  const __mmask16 reduce = _mm512_cmpgt_epi32_mask(hx, splat_i(0x3eb17218));
  const __mmask16 wide = _mm512_cmpge_epi32_mask(hx, splat_i(0x3f851592));
  const __m512 half = _mm512_mask_mov_ps(splat(0.5f), neg, splat(-0.5f));
  const __m512i k_wide = _mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(splat(kInvLn2), x), half));
  __m512i k = _mm512_maskz_mov_epi32(reduce, splat_i(-1));
  k = _mm512_mask_mov_epi32(k, wide, k_wide);
  const __m512 kf = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(kf, splat(kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(kf, splat(kLn2Lo));
  const __m512 r = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

  const __m512 hfx = _mm512_mul_ps(splat(0.5f), r);
  const __m512 hxs = _mm512_mul_ps(r, hfx);
  __m512 p = _mm512_add_ps(splat(kQ4), _mm512_mul_ps(hxs, splat(kQ5)));
  p = _mm512_add_ps(splat(kQ3), _mm512_mul_ps(hxs, p));
  p = _mm512_add_ps(splat(kQ2), _mm512_mul_ps(hxs, p));
  p = _mm512_add_ps(splat(kQ1), _mm512_mul_ps(hxs, p));
  const __m512 r1 = _mm512_add_ps(splat(1.0f), _mm512_mul_ps(hxs, p));
  const __m512 t = _mm512_sub_ps(splat(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(splat(6.0f), _mm512_mul_ps(r, t))));
  const __m512 y_k0 = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
  const __m512 e2 = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
  const __m512 y_km1 = _mm512_sub_ps(
      _mm512_mul_ps(splat(0.5f), _mm512_sub_ps(r, e2)), splat(0.5f));
  const __m512 d = _mm512_sub_ps(e2, r);
  const __m512 y_far = _mm512_sub_ps(
      add_exponent(_mm512_sub_ps(splat(1.0f), d), k), splat(1.0f));
  const __m512 one_minus_2k = as_float(_mm512_sub_epi32(
      splat_i(0x3f800000), _mm512_srav_epi32(splat_i(0x1000000), k)));
  const __m512 y_lt23 = add_exponent(_mm512_sub_ps(one_minus_2k, d), k);
  const __m512 pow2_neg_k = as_float(
      _mm512_slli_epi32(_mm512_sub_epi32(splat_i(0x7f), k), 23));
  const __m512 y_ge23 = add_exponent(
      _mm512_add_ps(_mm512_sub_ps(r, _mm512_add_ps(e2, pow2_neg_k)),
                    splat(1.0f)),
      k);

  __m512 y = y_ge23;
  y = _mm512_mask_mov_ps(y, _mm512_cmplt_epi32_mask(k, splat_i(23)), y_lt23);
  y = _mm512_mask_mov_ps(y,
                         _mm512_cmple_epi32_mask(k, splat_i(-2)) |
                             _mm512_cmpgt_epi32_mask(k, splat_i(56)),
                         y_far);
  y = _mm512_mask_mov_ps(y, _mm512_cmpeq_epi32_mask(k, splat_i(-1)), y_km1);
  y = _mm512_mask_mov_ps(y, _mm512_cmpeq_epi32_mask(k, splat_i(0)), y_k0);
  return _mm512_mask_mov_ps(y, tiny, x);
}

/// tanh_scalar on 16 lanes.
__m512 tanh_lanes(__m512 x) {
  const __m512i ix = _mm512_and_si512(as_int(x), splat_i(0x7fffffff));
  const __m512 a = as_float(ix);
  const __mmask16 ge1 = _mm512_cmpge_epi32_mask(ix, splat_i(0x3f800000));
  const __m512 arg = _mm512_mask_add_ps(_mm512_mul_ps(a, splat(-2.0f)), ge1,
                                        a, a);
  const __m512 t = expm1_lanes(arg);
  // One division serves both branches: 2/(t+2) where |x| >= 1, -t/(t+2)
  // below.
  const __m512 num = _mm512_mask_mov_ps(
      as_float(_mm512_xor_si512(as_int(t), sign_bit())), ge1, splat(2.0f));
  __m512 z = _mm512_div_ps(num, _mm512_add_ps(t, splat(2.0f)));
  z = _mm512_mask_sub_ps(z, ge1, splat(1.0f), z);
  z = _mm512_mask_mov_ps(z, _mm512_cmpge_epi32_mask(ix, splat_i(0x41b00000)),
                         splat(1.0f));
  z = as_float(_mm512_xor_si512(as_int(z),
                                _mm512_and_si512(as_int(x), sign_bit())));
  z = _mm512_mask_mul_ps(z, _mm512_cmplt_epi32_mask(ix, splat_i(0x24000000)),
                         _mm512_add_ps(splat(1.0f), x), x);
  return _mm512_mask_add_ps(
      z, _mm512_cmpgt_epi32_mask(ix, splat_i(0x7f800000)), x, x);
}

__m512 gelu_inner_lanes(__m512 v) {
  const __m512 a = _mm512_mul_ps(_mm512_mul_ps(v, splat(kGeluA)), v);
  return _mm512_mul_ps(_mm512_fmadd_ps(a, v, v), splat(kGeluC));
}

__m512 gelu_lanes(__m512 v) {
  const __m512 t = tanh_lanes(gelu_inner_lanes(v));
  return _mm512_mul_ps(_mm512_mul_ps(v, splat(0.5f)),
                       _mm512_add_ps(t, splat(1.0f)));
}

__m512 gelu_grad_lanes(__m512 x, __m512 g) {
  const __m512 t = tanh_lanes(gelu_inner_lanes(x));
  const __m512 dinner = _mm512_mul_ps(
      _mm512_fmadd_ps(_mm512_mul_ps(x, splat(kGeluA3)), x, splat(1.0f)),
      splat(kGeluC));
  const __m512 p = _mm512_mul_ps(
      _mm512_mul_ps(_mm512_mul_ps(x, splat(0.5f)),
                    _mm512_fnmadd_ps(t, t, splat(1.0f))),
      dinner);
  const __m512 dgelu =
      _mm512_fmadd_ps(splat(0.5f), _mm512_add_ps(t, splat(1.0f)), p);
  // See gelu_grad_scalar: a NaN dgelu wins over a NaN g.
  return _mm512_mask_mov_ps(_mm512_mul_ps(dgelu, g),
                            _mm512_cmp_ps_mask(dgelu, dgelu, _CMP_UNORD_Q),
                            dgelu);
}

/// quantize_scalar on 16 lanes; lo/hi are the grid bounds minus the zero
/// point, as floats.
__m512i quantize_lanes(__m512 x, __m512 scale, __m512 lo, __m512 hi,
                       __m512i zero_point) {
  __m512 q = _mm512_div_ps(x, scale);
  q = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(q, q, _CMP_ORD_Q), q);
  __m512 r = _mm512_roundscale_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __mmask16 away = _mm512_cmp_ps_mask(
      _mm512_abs_ps(_mm512_sub_ps(q, r)), splat(0.5f), _CMP_GE_OQ);
  const __m512 step = as_float(_mm512_or_si512(
      as_int(splat(1.0f)), _mm512_and_si512(as_int(q), sign_bit())));
  r = _mm512_mask_add_ps(r, away, r, step);
  r = _mm512_min_ps(_mm512_max_ps(r, lo), hi);
  return _mm512_add_epi32(_mm512_cvttps_epi32(r), zero_point);
}

#endif  // __AVX512F__

}  // namespace

float gelu_scalar(float x) {
  return 0.5f * x * (1.0f + tanh_scalar(gelu_inner(x)));
}

float gelu_grad_scalar(float x, float g) {
  const float t = tanh_scalar(gelu_inner(x));
  const float dinner = std::fma(kGeluA3 * x, x, 1.0f) * kGeluC;
  const float p = 0.5f * x * std::fma(-t, t, 1.0f) * dinner;
  const float dgelu = std::fma(0.5f, 1.0f + t, p);
  // x86 returns the first operand's NaN when both are NaN, and the code
  // this replaced multiplied dgelu·g; the multiply is commutative to the
  // compiler, so that choice is made explicit here.
  return std::isnan(dgelu) ? dgelu : dgelu * g;
}

int8_t quantize_scalar(float x, float scale, int32_t zero_point, int32_t qmin,
                       int32_t qmax) {
  float q = x / scale;
  if (std::isnan(q)) q = 0.0f;
  float r = std::trunc(q);
  if (std::fabs(q - r) >= 0.5f) r += std::copysign(1.0f, q);
  // Clamp before converting: ±inf and huge values saturate instead of
  // overflowing the integer conversion.
  r = std::clamp(r, static_cast<float>(qmin - zero_point),
                 static_cast<float>(qmax - zero_point));
  return static_cast<int8_t>(static_cast<int32_t>(r) + zero_point);
}

void gelu(std::span<const float> x, std::span<float> y) {
  ITASK_CHECK(x.size() == y.size(), "vmath::gelu: size mismatch");
  const size_t n = x.size();
  size_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(&y[i], gelu_lanes(_mm512_loadu_ps(&x[i])));
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(&y[i], m,
                          gelu_lanes(_mm512_maskz_loadu_ps(m, &x[i])));
    i = n;
  }
#endif
  for (; i < n; ++i) y[i] = gelu_scalar(x[i]);
}

void gelu_grad(std::span<const float> x, std::span<const float> g,
               std::span<float> y) {
  ITASK_CHECK(x.size() == g.size() && x.size() == y.size(),
              "vmath::gelu_grad: size mismatch");
  const size_t n = x.size();
  size_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(&y[i], gelu_grad_lanes(_mm512_loadu_ps(&x[i]),
                                            _mm512_loadu_ps(&g[i])));
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(&y[i], m,
                          gelu_grad_lanes(_mm512_maskz_loadu_ps(m, &x[i]),
                                          _mm512_maskz_loadu_ps(m, &g[i])));
    i = n;
  }
#endif
  for (; i < n; ++i) y[i] = gelu_grad_scalar(x[i], g[i]);
}

void quantize(std::span<const float> x, std::span<int8_t> q, float scale,
              int32_t zero_point, int32_t qmin, int32_t qmax) {
  ITASK_CHECK(x.size() == q.size(), "vmath::quantize: size mismatch");
  const size_t n = x.size();
  size_t i = 0;
#if defined(__AVX512F__)
  const __m512 vscale = splat(scale);
  const __m512 lo = splat(static_cast<float>(qmin - zero_point));
  const __m512 hi = splat(static_cast<float>(qmax - zero_point));
  const __m512i zp = splat_i(zero_point);
  for (; i + 16 <= n; i += 16)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&q[i]),
                     _mm512_cvtsepi32_epi8(quantize_lanes(
                         _mm512_loadu_ps(&x[i]), vscale, lo, hi, zp)));
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_cvtsepi32_storeu_epi8(
        &q[i], m,
        quantize_lanes(_mm512_maskz_loadu_ps(m, &x[i]), vscale, lo, hi, zp));
    i = n;
  }
#endif
  for (; i < n; ++i)
    q[i] = quantize_scalar(x[i], scale, zero_point, qmin, qmax);
}

}  // namespace itask::vmath
