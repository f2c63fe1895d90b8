// INT8 GEMM with INT32 accumulation — the numeric core of the quantized
// runtime and the operation the systolic-array simulator models.
//
// Two implementations share the semantics:
//  * int8_gemm_bt — the naive triple loop, retained as the parity oracle
//    (the functional systolic array asserts against it) and the "before"
//    side of bench_k0_gemm;
//  * int8_gemm_bt_packed — the deployed kernel: cache-blocked with int16
//    operand panels and int32 register-tile accumulators, plus a
//    precomputed per-output-row Σw table for the zero-point correction.
// Integer addition is associative, so both produce bit-identical results.
#pragma once

#include <cstdint>
#include <span>

#include "quant/qformat.h"
#include "tensor/tensor.h"

namespace itask::quant {

/// acc[m, n] = sum_k (a[m, k] - a_zero_point) * w[n, k]
/// (weights are symmetric so no weight zero-point term appears).
void int8_gemm_bt(std::span<const int8_t> a, int32_t a_zero_point,
                  std::span<const int8_t> w, std::span<int32_t> acc,
                  int64_t m, int64_t k, int64_t n);

/// Blocked/packed variant of int8_gemm_bt. `w_row_sums` is the per-output-row
/// Σw table (QuantizedWeight::row_sums, built once at finalize()); the
/// zero-point correction acc = a·w − zp·Σw then costs one multiply per
/// output instead of a weight pass per call. Bit-identical to int8_gemm_bt.
void int8_gemm_bt_packed(std::span<const int8_t> a, int32_t a_zero_point,
                         std::span<const int8_t> w,
                         std::span<const int32_t> w_row_sums,
                         std::span<int32_t> acc, int64_t m, int64_t k,
                         int64_t n);

/// A weight matrix widened and packed ONCE into the int16 k-pair NR-lane
/// panels int8_gemm_bt_packed otherwise builds per call (the vpmaddwd /
/// AVX512-VNNI operand shape), stored in the (KC-slab, NC-slab) order the
/// blocked loops visit them. Built once via QuantizedWeight::prepack() (by
/// the INT8 serving kernels QuantizedVit::finalize installs); read-only
/// after construction, safe to share across inference workers.
struct PackedWeightInt8 {
  int64_t k = 0;  // inner (reduction) extent
  int64_t n = 0;  // output columns (= weight rows in the [N,K] layout)
  std::vector<int16_t> data;

  int64_t bytes() const {
    return static_cast<int64_t>(data.size() * sizeof(int16_t));
  }
};

/// Packs a row-major [N, K] int8 weight matrix for int8_gemm_bt_prepacked.
PackedWeightInt8 pack_weights_int8(std::span<const int8_t> w, int64_t n,
                                   int64_t k);

/// int8_gemm_bt_packed with the weight pre-packed. Integer addition is
/// associative and the panels/loop order are identical, so this is
/// bit-identical to both packed and naive variants.
void int8_gemm_bt_prepacked(std::span<const int8_t> a, int32_t a_zero_point,
                            const PackedWeightInt8& w,
                            std::span<const int32_t> w_row_sums,
                            std::span<int32_t> acc, int64_t m);

/// Full quantized linear: quantizes `x` with `act`, runs the packed INT8
/// GEMM against `weight`, and dequantizes with per-row weight scales, adding
/// `bias`. x: [rows, in] FP32; returns [rows, out] FP32.
Tensor qlinear_forward(const Tensor& x, const QuantParams& act,
                       const QuantizedWeight& weight, const Tensor* bias);

}  // namespace itask::quant
