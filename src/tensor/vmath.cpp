#include "tensor/vmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "tensor/arena.h"
#include "tensor/gemm.h"
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

// glibc 2.36 expf (sysdeps/ieee754/flt-32/e_expf.c, e_exp2f_data.c):
// exp(x) = 2^(k/32) · 2^(r/32) with k = round(x·32/ln2), 2^(k/32) from
// kExp2Tab and 2^(r/32) from a cubic in double precision.
// kExp2Tab[i] = bits(2^(i/32)) − (i << 47): adding k << 47 to entry k % 32
// gives the bits of 2^(k/32).
constexpr uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kShift = 0x1.8p+52;  // rounds x·32/ln2 to an integer
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
constexpr uint32_t kExpBig = 0x42b00000u;           // |x| >= 88, or NaN
constexpr float kExpOverflow = 0x1.62e42ep6f;       // log(0x1p128)
constexpr float kExpUnderflow = -0x1.9fe368p6f;     // log(0x1p-150)
constexpr float kExpMayUnderflow = -0x1.9d1d9ep6f;  // log(0x1p-149)
// __math_may_uflowf's result: the smallest denormal.
constexpr float kExpTiny = 0x1.4p-75f * 0x1.4p-75f;
static_assert(std::bit_cast<uint32_t>(kExpTiny) == 0x00000001u);

/// expf's main path, for |x| < 88 and the finite tails the special cases
/// let through.
float exp_core(float x) {
  const double xd = x;
  double kd = std::fma(kInvLn2N, xd, kShift);
  const uint64_t ki = std::bit_cast<uint64_t>(kd);
  kd -= kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExp2Tab[ki % 32] + (ki << 47));
  const double z = std::fma(kExpC0, r, kExpC1);
  const double r2 = r * r;
  double y = std::fma(kExpC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
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

/// exp_core on 8 lanes, in double.
__m512d exp_core_lanes(__m512d xd) {
  const __m512i tab0 = _mm512_loadu_si512(kExp2Tab);
  const __m512i tab1 = _mm512_loadu_si512(kExp2Tab + 8);
  const __m512i tab2 = _mm512_loadu_si512(kExp2Tab + 16);
  const __m512i tab3 = _mm512_loadu_si512(kExp2Tab + 24);
  const __m512d inv_ln2n = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  const __m512d kd_shifted = _mm512_fmadd_pd(inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd_shifted);
  const __m512d kd = _mm512_sub_pd(kd_shifted, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
  const __m512i idx = _mm512_and_si512(ki, _mm512_set1_epi64(31));
  __m512i t = _mm512_permutex2var_epi64(tab0, idx, tab1);
  t = _mm512_mask_mov_epi64(
      t, _mm512_test_epi64_mask(idx, _mm512_set1_epi64(16)),
      _mm512_permutex2var_epi64(tab2, idx, tab3));
  const __m512d s = _mm512_castsi512_pd(
      _mm512_add_epi64(t, _mm512_slli_epi64(ki, 47)));
  const __m512d z =
      _mm512_fmadd_pd(_mm512_set1_pd(kExpC0), r, _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y =
      _mm512_fmadd_pd(_mm512_set1_pd(kExpC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_mul_pd(y, s);
}

/// exp_scalar on 16 lanes: the main path in two double halves, then the
/// special cases blended by mask.
__m512 exp_lanes(__m512 x) {
  const __m256 lo = _mm512_castps512_ps256(x);
  const __m256 hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(
      _mm512_castps_pd(x), 1));
  const __m256 ylo = _mm512_cvtpd_ps(exp_core_lanes(_mm512_cvtps_pd(lo)));
  const __m256 yhi = _mm512_cvtpd_ps(exp_core_lanes(_mm512_cvtps_pd(hi)));
  __m512 y = _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castps_pd(_mm512_castps256_ps512(ylo)), _mm256_castps_pd(yhi),
      1));
  const __m512i ax = _mm512_and_si512(as_int(x), splat_i(0x7fffffff));
  if (_mm512_cmpge_epi32_mask(ax, splat_i(static_cast<int32_t>(kExpBig))) ==
      0)
    return y;
  y = _mm512_mask_mov_ps(
      y, _mm512_cmp_ps_mask(x, splat(kExpMayUnderflow), _CMP_LT_OQ),
      splat(kExpTiny));
  y = _mm512_mask_mov_ps(
      y, _mm512_cmp_ps_mask(x, splat(kExpUnderflow), _CMP_LT_OQ),
      _mm512_setzero_ps());
  y = _mm512_mask_mov_ps(
      y, _mm512_cmp_ps_mask(x, splat(kExpOverflow), _CMP_GT_OQ),
      splat(INFINITY));
  // NaN and +inf give x + x; −inf (an ordered x < kExpUnderflow) gives +0.
  return _mm512_mask_add_ps(
      y,
      _mm512_cmpge_epi32_mask(ax, splat_i(0x7f800000)) &
          ~_mm512_cmpeq_epi32_mask(as_int(x),
                                   splat_i(static_cast<int32_t>(0xff800000u))),
      x, x);
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

/// R FMA chains side by side, summed as the GEMM micro-kernel sums its
/// accumulators: each chain runs from +0 and restarts every gemm::kKC
/// steps, and each slab's chain is added to a total that starts at +0.
/// step(p, acc) advances all R chains by step p.
template <int R, typename Step>
void slabbed_chains(int64_t n, __m512 (&sum)[R], Step step) {
  for (int r = 0; r < R; ++r) sum[r] = _mm512_setzero_ps();
  for (int64_t p0 = 0; p0 < n; p0 += gemm::kKC) {
    __m512 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
    const int64_t p1 = std::min(n, p0 + gemm::kKC);
    for (int64_t p = p0; p < p1; ++p) step(p, acc);
    for (int r = 0; r < R; ++r) sum[r] = _mm512_add_ps(sum[r], acc[r]);
  }
}

/// Keys whose score chains run side by side.
constexpr int kTileKeys = 8;

/// Attention rows [i0, i0 + m), m <= 16, of one (image, head), one row per
/// lane. q, k and v point at the head's column block in its image's first
/// qkv row (row stride ld); ctx at the head's column block in its image's
/// first context row (row stride ldc); probs, when non-null, at the head's
/// [t, t] probabilities. work holds 16·(hd + t) floats.
void attention_rows(const float* q, const float* k, const float* v,
                    int64_t ld, int64_t t, int64_t hd, float scale,
                    int64_t i0, int64_t m, float* ctx, int64_t ldc,
                    float* probs, float* work) {
  float* qt = work;            // qt[p·16 + i] = Q(i0 + i, p)
  float* sc = work + 16 * hd;  // sc[j·16 + i]: score, then e, then prob
  const __m512i row_offsets = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      splat_i(static_cast<int32_t>(ld)));
  const __mmask16 rows = tail_mask(static_cast<size_t>(m));
  for (int64_t p = 0; p < hd; ++p)
    _mm512_storeu_ps(qt + p * 16, _mm512_mask_i32gather_ps(
                                      _mm512_setzero_ps(), rows, row_offsets,
                                      q + i0 * ld + p, 4));
  __m512 mx = _mm512_setzero_ps();
  for (int64_t j0 = 0; j0 < t; j0 += kTileKeys) {
    const float* kr[kTileKeys];
    for (int u = 0; u < kTileKeys; ++u)
      kr[u] = k + std::min<int64_t>(j0 + u, t - 1) * ld;
    __m512 s[kTileKeys];
    slabbed_chains(hd, s, [&](int64_t p, __m512(&acc)[kTileKeys]) {
      const __m512 qp = _mm512_loadu_ps(qt + p * 16);
      for (int u = 0; u < kTileKeys; ++u)
        acc[u] = _mm512_fmadd_ps(qp, splat(kr[u][p]), acc[u]);
    });
    for (int64_t u = 0; u < kTileKeys && j0 + u < t; ++u) {
      const int64_t j = j0 + u;
      const __m512 sj = _mm512_mul_ps(s[u], splat(scale));
      _mm512_storeu_ps(sc + j * 16, sj);
      // std::max(mx, s) is mx < s ? s : mx; vmaxps differs on NaN.
      mx = j == 0 ? sj
                  : _mm512_mask_mov_ps(
                        mx, _mm512_cmp_ps_mask(mx, sj, _CMP_LT_OQ), sj);
    }
  }
  __m512 denom = _mm512_setzero_ps();
  for (int64_t j = 0; j < t; ++j) {
    const __m512 e =
        exp_lanes(_mm512_sub_ps(_mm512_loadu_ps(sc + j * 16), mx));
    _mm512_storeu_ps(sc + j * 16, e);
    denom = _mm512_add_ps(denom, e);
  }
  const __m512 inv = _mm512_div_ps(splat(1.0f), denom);
  for (int64_t j = 0; j < t; ++j)
    _mm512_storeu_ps(sc + j * 16,
                     _mm512_mul_ps(_mm512_loadu_ps(sc + j * 16), inv));
  if (probs != nullptr)
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < t; ++j)
        probs[(i0 + i) * t + j] = sc[j * 16 + i];
  // Context: all 16 rows' chains side by side, one 16-column block at a
  // time; lanes past m compute on stale rows and are not stored.
  for (int64_t c = 0; c < hd; c += 16) {
    const __mmask16 cols =
        tail_mask(static_cast<size_t>(std::min<int64_t>(16, hd - c)));
    __m512 out[16];
    slabbed_chains(t, out, [&](int64_t j, __m512(&acc)[16]) {
      const __m512 vj = _mm512_maskz_loadu_ps(cols, v + j * ld + c);
      for (int i = 0; i < 16; ++i)
        acc[i] = _mm512_fmadd_ps(splat(sc[j * 16 + i]), vj, acc[i]);
    });
    for (int64_t i = 0; i < m; ++i)
      _mm512_mask_storeu_ps(ctx + (i0 + i) * ldc + c, cols, out[i]);
  }
}

#else  // !__AVX512F__

/// One chain of the AVX-512 slabbed_chains, in scalar code.
template <typename Step>
float slabbed_chain(int64_t n, Step step) {
  float sum = 0.0f;
  for (int64_t p0 = 0; p0 < n; p0 += gemm::kKC) {
    const int64_t p1 = std::min(n, p0 + gemm::kKC);
    float acc = 0.0f;
    for (int64_t p = p0; p < p1; ++p) acc = step(p, acc);
    sum += acc;
  }
  return sum;
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

float exp_scalar(float x) {
  const uint32_t ax = bits_of(x) & 0x7fffffffu;
  if (ax >= kExpBig) {
    if (bits_of(x) == 0xff800000u) return 0.0f;  // −inf
    if (ax >= 0x7f800000u) return x + x;          // NaN, +inf
    if (x > kExpOverflow) return INFINITY;
    if (x < kExpUnderflow) return 0.0f;
    if (x < kExpMayUnderflow) return kExpTiny;
  }
  return exp_core(x);
}

float sigmoid_scalar(float x) { return 1.0f / (1.0f + exp_scalar(-x)); }

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

void exp(std::span<const float> x, std::span<float> y) {
  ITASK_CHECK(x.size() == y.size(), "vmath::exp: size mismatch");
  const size_t n = x.size();
  size_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(&y[i], exp_lanes(_mm512_loadu_ps(&x[i])));
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(&y[i], m,
                          exp_lanes(_mm512_maskz_loadu_ps(m, &x[i])));
    i = n;
  }
#endif
  for (; i < n; ++i) y[i] = exp_scalar(x[i]);
}

void sigmoid(std::span<const float> x, std::span<float> y) {
  ITASK_CHECK(x.size() == y.size(), "vmath::sigmoid: size mismatch");
  const size_t n = x.size();
  size_t i = 0;
#if defined(__AVX512F__)
  const auto lanes = [](__m512 v) {
    const __m512 e =
        exp_lanes(as_float(_mm512_xor_si512(as_int(v), sign_bit())));  // −v
    return _mm512_div_ps(splat(1.0f), _mm512_add_ps(splat(1.0f), e));
  };
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(&y[i], lanes(_mm512_loadu_ps(&x[i])));
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(&y[i], m, lanes(_mm512_maskz_loadu_ps(m, &x[i])));
    i = n;
  }
#endif
  for (; i < n; ++i) y[i] = sigmoid_scalar(x[i]);
}

void softmax(std::span<float> row) {
  const size_t n = row.size();
  if (n == 0) return;
  float mx = row[0];
  for (size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  size_t j = 0;
#if defined(__AVX512F__)
  const __m512 vmx = splat(mx);
  for (; j + 16 <= n; j += 16)
    _mm512_storeu_ps(&row[j],
                     exp_lanes(_mm512_sub_ps(_mm512_loadu_ps(&row[j]), vmx)));
  if (j < n) {
    const __mmask16 m = tail_mask(n - j);
    _mm512_mask_storeu_ps(
        &row[j], m,
        exp_lanes(_mm512_sub_ps(_mm512_maskz_loadu_ps(m, &row[j]), vmx)));
    j = n;
  }
#endif
  for (; j < n; ++j) row[j] = exp_scalar(row[j] - mx);
  float denom = 0.0f;
  for (const float e : row) denom += e;
  const float inv = 1.0f / denom;
  for (float& e : row) e *= inv;
}

void attention(std::span<const float> qkv, int64_t b, int64_t t,
               int64_t heads, int64_t hd, float scale, std::span<float> ctx,
               std::span<float> probs) {
  const int64_t dim = heads * hd;
  const int64_t ld = 3 * dim;  // qkv row stride
  ITASK_CHECK(static_cast<int64_t>(qkv.size()) == b * t * ld &&
                  static_cast<int64_t>(ctx.size()) == b * t * dim &&
                  (probs.empty() ||
                   static_cast<int64_t>(probs.size()) == b * heads * t * t),
              "vmath::attention: size mismatch");
#if defined(__AVX512F__)
  ScratchVec<float> work(16 * (hd + t));
#else
  ScratchVec<float> work(t);
#endif
  for (int64_t bh = 0; bh < b * heads; ++bh) {
    const int64_t bi = bh / heads, col = (bh % heads) * hd;
    const float* q = qkv.data() + bi * t * ld + col;
    const float* k = q + dim;
    const float* v = q + 2 * dim;
    float* out = ctx.data() + bi * t * dim + col;
    float* p = probs.empty() ? nullptr : probs.data() + bh * t * t;
#if defined(__AVX512F__)
    for (int64_t i0 = 0; i0 < t; i0 += 16)
      attention_rows(q, k, v, ld, t, hd, scale, i0,
                     std::min<int64_t>(16, t - i0), out, dim, p, work.data());
#else
    float* row = work.data();
    for (int64_t i = 0; i < t; ++i) {
      const float* qi = q + i * ld;
      for (int64_t j = 0; j < t; ++j) {
        const float* kj = k + j * ld;
        row[j] = slabbed_chain(hd, [&](int64_t c, float acc) {
                   return std::fma(qi[c], kj[c], acc);
                 }) *
                 scale;
      }
      softmax(std::span(row, static_cast<size_t>(t)));
      if (p != nullptr) std::copy(row, row + t, p + i * t);
      for (int64_t c = 0; c < hd; ++c)
        out[i * dim + c] = slabbed_chain(t, [&](int64_t j, float acc) {
          return std::fma(row[j], v[j * ld + c], acc);
        });
    }
#endif
  }
}

}  // namespace itask::vmath
