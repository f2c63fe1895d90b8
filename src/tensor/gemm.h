// Blocked, packed GEMM kernel layer — the single fp32 inner kernel every
// matmul/bmm variant in ops.h routes through (DESIGN.md §2 row 13), and
// every Linear and attention backward. Attention's forward does not: its
// per-(image, head) products are too small for a packed GEMM, so
// vmath::attention computes them in one tile with the same arithmetic.
//
// Strategy (the classic three-loop blocking used by BLIS-family libraries):
//  * k is split into KC slabs, n into NC slabs, m into MC slabs;
//  * within a slab, A is packed into MR-row panels and B into NR-column
//    panels, both k-major and zero-padded to full tiles, so the micro-kernel
//    always walks two contiguous streams with no edge handling;
//  * the micro-kernel keeps an MR×NR accumulator tile in registers,
//    vectorizing across the NR columns — independent outputs, not a
//    reduction, so it vectorizes without -ffast-math — and has no
//    data-dependent branches in the inner loop.
//
// The three storage variants (NN, B-transposed, A-transposed) differ only in
// the pack routines; the micro-kernel is shared.
//
// Semantics: every kernel *accumulates* (C += op(A)·op(B)); callers pass a
// zeroed C for a plain product. Results are deterministic call-to-call but
// differ from the naive reference kernels by fp32 reassociation (blocked
// summation order); see EXPERIMENTS.md K0 for the measured drift.
#pragma once

#include <cstdint>
#include <vector>

namespace itask::gemm {

/// Micro-tile extents. 8×16 fp32 accumulators = eight 512-bit (or sixteen
/// 256-bit) vector registers — sized for the FMA units this repo targets
/// with -march=native.
inline constexpr int64_t kMR = 8;
inline constexpr int64_t kNR = 16;

/// k-slab extent. A product with k > kKC sums each slab's FMA chain from +0
/// in registers and adds it into C, so every element's chain restarts each
/// kKC steps (vmath::attention mirrors that to stay bit-identical).
inline constexpr int64_t kKC = 256;

/// C[M,N] += A[M,K] · B[K,N] (all row-major).
///
/// In all three variants lda/ldb/ldc are the row strides of A, B and C as
/// stored; 0 (the default) means dense. A wider stride reads or writes a
/// column block of a wider matrix in place (MultiHeadAttention's per-head
/// slices of qkv): the packed panels hold the same values whatever the
/// source stride, so the result is bit-identical to the dense call on a
/// copied operand, and C elements outside the [M, N] view are not touched.
void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, int64_t lda = 0, int64_t ldb = 0, int64_t ldc = 0);

/// C[M,N] += A[M,K] · B[N,K]ᵀ (B stored row-major transposed — the Linear
/// weight layout).
void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, int64_t lda = 0, int64_t ldb = 0, int64_t ldc = 0);

/// C[M,N] += A[K,M]ᵀ · B[K,N] (the weight-gradient layout).
void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, int64_t lda = 0, int64_t ldb = 0, int64_t ldc = 0);

/// A weight matrix packed ONCE into the exact k-major NR-column panels the
/// blocked driver otherwise builds per call, stored in the (KC-slab,
/// NC-slab) order the driver visits them. Built at publish time for the
/// immutable models a core::DeploymentSnapshot captures (nn::Linear::
/// prepack_for_serving), so the per-request B pack on the serving path
/// drops to zero. Read-only after construction — safe to share across
/// concurrent inference workers.
struct PackedB {
  int64_t k = 0;  // inner (reduction) extent
  int64_t n = 0;  // output columns (= weight rows in the [N,K] layout)
  std::vector<float> data;

  int64_t bytes() const {
    return static_cast<int64_t>(data.size() * sizeof(float));
  }
};

/// Packs a row-major [N, K] weight matrix (the Linear/Bᵀ layout) for
/// gemm_bt_prepacked.
PackedB pack_weights_bt(const float* b, int64_t k, int64_t n);

/// C[M,N] += A[M,K] · Bᵀ with B pre-packed. Bit-identical to gemm_bt on the
/// same operands: the panels, micro-kernel and loop order are the same —
/// only where the packed B lives differs.
void gemm_bt_prepacked(const float* a, const PackedB& b, float* c, int64_t m);

/// Capacity (bytes) of the calling thread's packing workspaces. Bounded by
/// construction at pack_workspace_cap_bytes() — the workspaces reserve
/// exactly what a slab needs (no geometric overshoot) and a slab never
/// exceeds the KC×MC / KC×NC blocking extents. Storage is thread_local, so
/// it is released automatically when the owning thread exits.
int64_t pack_workspace_bytes();

/// The documented per-thread workspace bound: one A slab + one B slab.
int64_t pack_workspace_cap_bytes();

/// The pre-kernel-layer naive triple loops, retained verbatim as the parity
/// baseline for tests and the old-vs-new comparison in bench_k0_gemm. Same
/// accumulate semantics as the packed kernels.
namespace reference {

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void gemm_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void gemm_at(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);

}  // namespace reference

}  // namespace itask::gemm
