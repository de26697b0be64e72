#include "lcda/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lcda::nn {

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int in_h, int in_w,
               util::Rng& rng)
    : in_c_(in_channels), out_c_(out_channels), kernel_(kernel) {
  if (kernel % 2 == 0) throw std::invalid_argument("Conv2d: kernel must be odd");
  geom_ = tensor::ConvGeom{in_h, in_w, kernel, /*stride=*/1, /*pad=*/kernel / 2};
  const int fan_in = in_channels * kernel * kernel;
  weight_.value = Tensor::he_normal({out_channels, in_channels, kernel, kernel},
                                    fan_in, rng);
  weight_.grad = Tensor::zeros({out_channels, in_channels, kernel, kernel});
  weight_.name = "conv.weight";
  bias_.value = Tensor::zeros({out_channels});
  bias_.grad = Tensor::zeros({out_channels});
  bias_.name = "conv.bias";
}

const Tensor& Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_c_ || x.dim(2) != geom_.in_h ||
      x.dim(3) != geom_.in_w) {
    throw std::invalid_argument("Conv2d::forward: bad input shape " + x.shape_str());
  }
  input_ = &x;
  output_.ensure_shape({x.dim(0), out_c_, geom_.out_h(), geom_.out_w()});
  tensor::conv2d_forward(x, weight_.value, bias_.value, geom_, output_, scratch_);
  return output_;
}

const Tensor& Conv2d::backward(const Tensor& dy) {
  if (input_ == nullptr) throw std::logic_error("Conv2d::backward before forward");
  dx_.ensure_shape(input_->shape());
  tensor::conv2d_backward(*input_, weight_.value, geom_, dy, &dx_, &weight_.grad,
                          &bias_.grad, scratch_);
  return dx_;
}

std::string Conv2d::describe() const {
  std::ostringstream os;
  os << "Conv2d(" << in_c_ << "->" << out_c_ << ", k" << kernel_ << ", "
     << geom_.in_h << 'x' << geom_.in_w << ')';
  return os.str();
}

long long Conv2d::macs_per_sample() const {
  return static_cast<long long>(out_c_) * geom_.out_h() * geom_.out_w() * in_c_ *
         kernel_ * kernel_;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, util::Rng& rng)
    : in_f_(in_features), out_f_(out_features) {
  weight_.value = Tensor::he_normal({in_features, out_features}, in_features, rng);
  weight_.grad = Tensor::zeros({in_features, out_features});
  weight_.name = "dense.weight";
  bias_.value = Tensor::zeros({out_features});
  bias_.grad = Tensor::zeros({out_features});
  bias_.name = "dense.bias";
}

const Tensor& Dense::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_f_) {
    throw std::invalid_argument("Dense::forward: bad input shape " + x.shape_str());
  }
  input_ = &x;
  output_.ensure_shape({x.dim(0), out_f_});
  tensor::dense_forward(x, weight_.value, bias_.value, output_);
  return output_;
}

const Tensor& Dense::backward(const Tensor& dy) {
  if (input_ == nullptr) throw std::logic_error("Dense::backward before forward");
  dx_.ensure_shape(input_->shape());
  tensor::dense_backward(*input_, weight_.value, dy, &dx_, &weight_.grad,
                         &bias_.grad);
  return dx_;
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "Dense(" << in_f_ << "->" << out_f_ << ')';
  return os.str();
}

long long Dense::macs_per_sample() const {
  return static_cast<long long>(in_f_) * out_f_;
}

// ------------------------------------------------------------------ ReLU

const Tensor& ReLU::forward(const Tensor& x) {
  output_.ensure_shape(x.shape());
  tensor::relu_forward(x, output_);
  return output_;
}

const Tensor& ReLU::backward(const Tensor& dy) {
  // max(x, 0) > 0 exactly where x > 0 (NaN and -0 map to 0), so the
  // output gives the same mask as the input would.
  dx_.ensure_shape(output_.shape());
  tensor::relu_backward(output_, dy, dx_);
  return dx_;
}

// ------------------------------------------------------------ MaxPool2x2

const Tensor& MaxPool2x2::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(2) % 2 != 0 || x.dim(3) % 2 != 0) {
    throw std::invalid_argument("MaxPool2x2: spatial dims must be even, got " +
                                x.shape_str());
  }
  in_shape_ = x.shape();
  output_.ensure_shape({x.dim(0), x.dim(1), x.dim(2) / 2, x.dim(3) / 2});
  tensor::maxpool2x2_forward(x, output_, argmax_);
  return output_;
}

const Tensor& MaxPool2x2::backward(const Tensor& dy) {
  dx_.ensure_shape(in_shape_);
  tensor::maxpool2x2_backward(dy, argmax_, dx_);
  return dx_;
}

// ------------------------------------------------------------ BatchNorm2d

BatchNorm2d::BatchNorm2d(int channels, double momentum, double epsilon)
    : channels_(channels), momentum_(momentum), epsilon_(epsilon) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels");
  if (momentum < 0.0 || momentum >= 1.0) {
    throw std::invalid_argument("BatchNorm2d: momentum out of [0,1)");
  }
  gamma_.value = Tensor::full({channels}, 1.0f);
  gamma_.grad = Tensor::zeros({channels});
  gamma_.name = "bn.gamma";
  beta_.value = Tensor::zeros({channels});
  beta_.grad = Tensor::zeros({channels});
  beta_.name = "bn.beta";
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::full({channels}, 1.0f);
}

const Tensor& BatchNorm2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d::forward: bad input " + x.shape_str());
  }
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const double count = static_cast<double>(n) * plane;

  output_.ensure_shape(x.shape());
  x_hat_.ensure_shape(x.shape());
  batch_mean_.assign(static_cast<std::size_t>(channels_), 0.0);
  batch_var_.assign(static_cast<std::size_t>(channels_), 0.0);

  for (int c = 0; c < channels_; ++c) {
    double mean = 0.0, var = 0.0;
    if (training_) {
      for (int i = 0; i < n; ++i) {
        const float* p = x.raw() +
                         (static_cast<std::size_t>(i) * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) mean += p[j];
      }
      mean /= count;
      for (int i = 0; i < n; ++i) {
        const float* p = x.raw() +
                         (static_cast<std::size_t>(i) * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          var += (p[j] - mean) * (p[j] - mean);
        }
      }
      var /= count;
      running_mean_[static_cast<std::size_t>(c)] = static_cast<float>(
          momentum_ * running_mean_[static_cast<std::size_t>(c)] +
          (1.0 - momentum_) * mean);
      running_var_[static_cast<std::size_t>(c)] = static_cast<float>(
          momentum_ * running_var_[static_cast<std::size_t>(c)] +
          (1.0 - momentum_) * var);
    } else {
      mean = running_mean_[static_cast<std::size_t>(c)];
      var = running_var_[static_cast<std::size_t>(c)];
    }
    batch_mean_[static_cast<std::size_t>(c)] = mean;
    batch_var_[static_cast<std::size_t>(c)] = var;

    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float b = beta_.value[static_cast<std::size_t>(c)];
    const auto m = static_cast<float>(mean);
    for (int i = 0; i < n; ++i) {
      const std::size_t base = (static_cast<std::size_t>(i) * channels_ + c) * plane;
      for (std::size_t j = 0; j < plane; ++j) {
        const float xh = (x[base + j] - m) * inv_std;
        x_hat_[base + j] = xh;
        output_[base + j] = g * xh + b;
      }
    }
  }
  return output_;
}

const Tensor& BatchNorm2d::backward(const Tensor& dy) {
  const int n = dy.dim(0), h = dy.dim(2), w = dy.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const double count = static_cast<double>(n) * plane;
  dx_.ensure_shape(dy.shape());

  for (int c = 0; c < channels_; ++c) {
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const double inv_std =
        1.0 / std::sqrt(batch_var_[static_cast<std::size_t>(c)] + epsilon_);

    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int i = 0; i < n; ++i) {
      const std::size_t base = (static_cast<std::size_t>(i) * channels_ + c) * plane;
      for (std::size_t j = 0; j < plane; ++j) {
        sum_dy += dy[base + j];
        sum_dy_xhat += static_cast<double>(dy[base + j]) * x_hat_[base + j];
      }
    }
    gamma_.grad[static_cast<std::size_t>(c)] = static_cast<float>(sum_dy_xhat);
    beta_.grad[static_cast<std::size_t>(c)] = static_cast<float>(sum_dy);

    if (training_) {
      // dx = g/std * (dy - mean(dy) - x_hat * mean(dy*x_hat))
      for (int i = 0; i < n; ++i) {
        const std::size_t base =
            (static_cast<std::size_t>(i) * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          const double term = dy[base + j] - sum_dy / count -
                              x_hat_[base + j] * sum_dy_xhat / count;
          dx_[base + j] = static_cast<float>(g * inv_std * term);
        }
      }
    } else {
      // Running statistics are constants at inference.
      for (int i = 0; i < n; ++i) {
        const std::size_t base =
            (static_cast<std::size_t>(i) * channels_ + c) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          dx_[base + j] = static_cast<float>(g * inv_std * dy[base + j]);
        }
      }
    }
  }
  return dx_;
}

std::string BatchNorm2d::describe() const {
  std::ostringstream os;
  os << "BatchNorm2d(" << channels_ << ')';
  return os.str();
}

// --------------------------------------------------------------- Flatten

const Tensor& Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  int features = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) features *= x.dim(i);
  output_.ensure_shape({x.dim(0), features});
  std::ranges::copy(x.data(), output_.raw());
  return output_;
}

const Tensor& Flatten::backward(const Tensor& dy) {
  dx_.ensure_shape(in_shape_);
  if (dy.size() != dx_.size()) {
    throw std::invalid_argument("Flatten::backward: bad gradient shape " +
                                dy.shape_str());
  }
  std::ranges::copy(dy.data(), dx_.raw());
  return dx_;
}

}  // namespace lcda::nn
