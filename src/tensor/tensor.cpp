#include "lcda/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lcda::tensor {

std::size_t shape_size(std::span<const int> shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("shape dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(std::initializer_list<int> shape)
    : Tensor(std::vector<int>(shape)) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_size(shape_)) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
}

Tensor Tensor::zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::he_normal(std::vector<int> shape, int fan_in, util::Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("he_normal: fan_in must be positive");
  Tensor t(std::move(shape));
  const double stddev = std::sqrt(2.0 / fan_in);
  for (auto& x : t.data_) x = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(std::vector<int> shape, float lo, float hi, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

int Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) throw std::out_of_range("Tensor::dim");
  return shape_[i];
}

float& Tensor::at(int i, int j) {
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}
float Tensor::at(int i, int j) const {
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float& Tensor::at(int n, int c, int h, int w) {
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  return data_[idx];
}
float Tensor::at(int n, int c, int h, int w) const {
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  return data_[idx];
}

Tensor Tensor::reshaped(std::vector<int> new_shape) const {
  if (shape_size(new_shape) != data_.size()) {
    throw std::invalid_argument("reshaped: element count mismatch");
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::ensure_shape(std::span<const int> shape) {
  if (std::ranges::equal(shape_, shape)) return;
  const std::size_t n = shape_size(shape);
  shape_.assign(shape.begin(), shape.end());
  data_.assign(n, 0.0f);
}

void Tensor::fill(float value) {
  for (auto& x : data_) x = value;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& x : data_) x *= s;
  return *this;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

double Tensor::l2_norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace lcda::tensor
