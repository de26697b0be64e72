#pragma once

#include <vector>

#include "lcda/tensor/tensor.h"

namespace lcda::tensor {

/// C = A(MxK) * B(KxN). C must be MxN and is overwritten.
void gemm(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A^T(KxM -> MxK? no: A is KxM, result is MxN using A^T) * B(KxN).
/// Explicitly: C[m][n] = sum_k A[k][m] * B[k][n].
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c);

/// C[m][n] = sum_k A[m][k] * B[n][k]  (i.e. A * B^T).
void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c);

/// Geometry of a convolution / pooling window application.
struct ConvGeom {
  int in_h = 0, in_w = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;
  [[nodiscard]] int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  [[nodiscard]] int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// im2col for one image: input (C,H,W) -> columns (C*K*K, out_h*out_w).
/// `input` points at the start of an image inside an NCHW tensor.
void im2col(const float* input, int channels, const ConvGeom& g, float* columns);

/// col2im scatter-add inverse of im2col (gradient path).
void col2im(const float* columns, int channels, const ConvGeom& g, float* input_grad);

/// Convolution forward for a batch:
///   x (N,Cin,H,W), w (Cout,Cin,K,K), bias (Cout) -> y (N,Cout,outH,outW).
/// An empty `bias` means none. Throws std::invalid_argument when an operand's
/// shape disagrees with these or with `g`. `scratch` holds the kernel's
/// working buffers and is resized as needed (reused across calls to avoid
/// per-batch allocation).
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const ConvGeom& g, Tensor& y, std::vector<float>& scratch);

/// Convolution backward. Computes dx (same shape as x), dw, dbias given dy
/// (the shape of y). Any of the output pointers may be null to skip that
/// gradient. Throws std::invalid_argument on a mis-shaped operand.
void conv2d_backward(const Tensor& x, const Tensor& w, const ConvGeom& g,
                     const Tensor& dy, Tensor* dx, Tensor* dw, Tensor* dbias,
                     std::vector<float>& scratch);

/// 2x2 stride-2 max pooling forward; records argmax indices for backward.
void maxpool2x2_forward(const Tensor& x, Tensor& y, std::vector<int>& argmax);

/// Max pooling backward using recorded argmax indices.
void maxpool2x2_backward(const Tensor& dy, const std::vector<int>& argmax,
                         Tensor& dx);

/// Elementwise ReLU forward (y may alias x).
void relu_forward(const Tensor& x, Tensor& y);

/// ReLU backward: dx = dy where x > 0, else 0. `x` may be the forward's
/// input or its output, which is positive exactly where the input is.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Dense forward: x (N,In) * w (In,Out) + bias (Out) -> y (N,Out).
void dense_forward(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y);

/// Dense backward.
void dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* dbias);

/// Row-wise softmax: logits (N,C) -> probs (N,C). Numerically stabilized.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy of probs (N,C) against integer labels; also emits
/// dlogits = (probs - onehot)/N, the gradient w.r.t. the logits.
double cross_entropy_loss(const Tensor& probs, std::span<const int> labels,
                          Tensor& dlogits);

/// argmax per row of an (N,C) tensor.
std::vector<int> argmax_rows(const Tensor& t);

}  // namespace lcda::tensor
