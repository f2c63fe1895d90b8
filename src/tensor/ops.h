// Free-function tensor operations: GEMM, elementwise math, reductions,
// softmax family. These are the numeric kernels the nn/ layers compose.
//
// Conventions:
//  * 2-D matmul treats tensors as [M, K] x [K, N] -> [M, N].
//  * Batched matmul operates on [B, M, K] x [B, K, N] -> [B, M, N].
//  * "lastdim" ops apply independently over the trailing axis.
#pragma once

#include "tensor/tensor.h"

namespace itask::ops {

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);   // Hadamard product.
Tensor add_scalar(const Tensor& a, float s);
/// Takes `a` by value so a moved-in tensor is scaled in place.
Tensor mul_scalar(Tensor a, float s);
void add_inplace(Tensor& a, const Tensor& b);
void axpy_inplace(Tensor& a, float alpha, const Tensor& b);  // a += alpha*b

/// Adds a 1-D bias of length C to every row of a [..., C] tensor.
Tensor add_rowwise(const Tensor& a, const Tensor& bias);
void add_rowwise_inplace(Tensor& a, const Tensor& bias);

// ---- matrix products ------------------------------------------------------

/// [M, K] x [K, N] -> [M, N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// [M, K] x [N, K]^T -> [M, N] (i.e. B is stored row-major transposed).
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// [K, M]^T x [K, N] -> [M, N].
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// [B, M, K] x [B, K, N] -> [B, M, N].
Tensor bmm(const Tensor& a, const Tensor& b);

/// Transpose of a 2-D tensor.
Tensor transpose2d(const Tensor& a);

// ---- nonlinearities -------------------------------------------------------

Tensor gelu(const Tensor& a);        // tanh approximation
Tensor gelu_grad(const Tensor& input, const Tensor& grad_out);
Tensor sigmoid(const Tensor& a);  // vmath::sigmoid
Tensor tanh_t(const Tensor& a);

// ---- softmax family (over the trailing axis) ------------------------------

/// vmath::softmax on every row. Takes `a` by value so a moved-in tensor is
/// normalised in place.
Tensor softmax_lastdim(Tensor a);
Tensor log_softmax_lastdim(const Tensor& a);

/// Backward of softmax given its *output* y and upstream gradient g:
/// dx = y * (g - sum(g*y)).
Tensor softmax_backward_lastdim(const Tensor& y, const Tensor& g);

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_value(const Tensor& a);

/// Index of the maximum element along the trailing axis; result shape is the
/// input shape with the trailing axis removed (flat vector of int64).
std::vector<int64_t> argmax_lastdim(const Tensor& a);

/// Sums over all leading axes, producing a 1-D tensor of the trailing size.
/// (This is the bias-gradient reduction.)
Tensor sum_to_lastdim(const Tensor& a);

/// L2 norm of all elements.
float l2_norm(const Tensor& a);

// ---- shape utilities ------------------------------------------------------

/// Concatenates 1-D tensors.
Tensor concat1d(const std::vector<Tensor>& parts);

/// Stacks equal-shaped tensors along a new leading axis.
Tensor stack(const std::vector<Tensor>& parts);

}  // namespace itask::ops
