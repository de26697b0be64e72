#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lcda/tensor/ops.h"
#include "lcda/tensor/tensor.h"
#include "lcda/util/rng.h"

namespace lcda::nn {

using tensor::Tensor;

/// A learnable parameter with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;
};

/// Base class for all layers.
///
/// Layers cache whatever they need from forward() for the subsequent
/// backward() call; a trainer must therefore call them in strict
/// forward-then-backward order per batch (the Sequential container enforces
/// this pattern).
///
/// Input lifetime: a layer may keep a pointer to the tensor forward() was
/// given instead of a copy (Conv2d and Dense do), so that tensor must stay
/// alive and unchanged until the matching backward() returns. Sequential
/// guarantees it: each layer's input is the previous layer's output buffer
/// or the caller's batch, which outlives the call.
///
/// Buffers: forward() and backward() return references to tensors the
/// layer keeps across calls and overwrites on the next one; a call with
/// the shapes of the previous one allocates nothing.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for input `x` (batched, NCHW or NC). See
  /// the class comment for how long `x` must live.
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Propagates `dy` (gradient w.r.t. this layer's output) and returns the
  /// gradient w.r.t. its input. Parameter gradients are accumulated into the
  /// layer's Param::grad tensors (overwritten each call, not summed).
  virtual const Tensor& backward(const Tensor& dy) = 0;

  /// Learnable parameters (possibly empty).
  virtual std::vector<Param*> params() { return {}; }

  /// Switches between training and inference behaviour (batch-norm uses
  /// batch statistics when training, running statistics otherwise).
  virtual void set_training(bool training) { (void)training; }

  /// Human-readable description, e.g. "Conv2d(16->32, k3)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Multiply-accumulate count for one sample (used for cost cross-checks).
  [[nodiscard]] virtual long long macs_per_sample() const { return 0; }
};

/// 2-D convolution with square kernels, stride 1 and "same" padding
/// (pad = k/2), matching the NACIM backbone.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int in_h, int in_w,
         util::Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] long long macs_per_sample() const override;

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel() const { return kernel_; }

 private:
  int in_c_, out_c_, kernel_;
  tensor::ConvGeom geom_;
  Param weight_;  // (Cout, Cin, K, K)
  Param bias_;    // (Cout)
  const Tensor* input_ = nullptr;  // forward's input, kept for backward
  Tensor output_;
  Tensor dx_;
  std::vector<float> scratch_;
};

/// Fully connected layer.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, util::Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] long long macs_per_sample() const override;

  [[nodiscard]] int in_features() const { return in_f_; }
  [[nodiscard]] int out_features() const { return out_f_; }

 private:
  int in_f_, out_f_;
  Param weight_;  // (In, Out)
  Param bias_;    // (Out)
  const Tensor* input_ = nullptr;  // forward's input, kept for backward
  Tensor output_;
  Tensor dx_;
};

/// Elementwise ReLU. Keeps no input: backward masks on the output, which
/// is positive exactly where the input was.
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  [[nodiscard]] std::string describe() const override { return "ReLU"; }

 private:
  Tensor output_;
  Tensor dx_;
};

/// 2x2 stride-2 max pooling (requires even spatial dims).
class MaxPool2x2 final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  [[nodiscard]] std::string describe() const override { return "MaxPool2x2"; }

 private:
  std::vector<int> argmax_;
  std::vector<int> in_shape_;
  Tensor output_;
  Tensor dx_;
};

/// Batch normalization over the channel dimension of NCHW tensors
/// (Ioffe & Szegedy 2015). Normalizes with batch statistics while training
/// and with exponential running statistics at inference; learnable
/// per-channel scale (gamma) and shift (beta).
///
/// Useful in this project beyond accuracy: normalized activations bound the
/// dynamic range that CiM ADCs must digitize, and batch-norm folding is the
/// standard deployment step for fixed-point accelerators.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(int channels, double momentum = 0.9, double epsilon = 1e-5);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  void set_training(bool training) override { training_ = training; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] bool training() const { return training_; }
  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  int channels_;
  double momentum_;
  double epsilon_;
  bool training_ = true;
  Param gamma_;  // (C)
  Param beta_;   // (C)
  Tensor running_mean_;
  Tensor running_var_;
  // Forward cache for backward.
  Tensor x_hat_;
  std::vector<double> batch_mean_;
  std::vector<double> batch_var_;
  Tensor output_;
  Tensor dx_;
};

/// Collapses (N,C,H,W) to (N, C*H*W).
class Flatten final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  [[nodiscard]] std::string describe() const override { return "Flatten"; }

 private:
  std::vector<int> in_shape_;
  Tensor output_;
  Tensor dx_;
};

}  // namespace lcda::nn
