#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "lcda/util/rng.h"

namespace lcda::tensor {

/// Dense row-major float tensor. Layout convention for images is NCHW.
///
/// This is deliberately a simple value type: the training workloads in this
/// project are small CNNs, so clarity and testability win over fancy
/// expression templates. All shape errors throw std::invalid_argument.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape);

  /// Builds from explicit data (size must match the shape's element count).
  Tensor(std::vector<int> shape, std::vector<float> data);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape);
  [[nodiscard]] static Tensor full(std::vector<int> shape, float value);
  /// He-normal initialization with fan_in; standard for ReLU networks.
  [[nodiscard]] static Tensor he_normal(std::vector<int> shape, int fan_in,
                                        util::Rng& rng);
  /// Uniform in [lo, hi).
  [[nodiscard]] static Tensor uniform(std::vector<int> shape, float lo, float hi,
                                      util::Rng& rng);

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] int dim(std::size_t i) const;
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }
  [[nodiscard]] float* raw() { return data_.data(); }
  [[nodiscard]] const float* raw() const { return data_.data(); }

  /// Flat element access.
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// Multi-dimensional access (bounds-checked in debug builds only for 2- and
  /// 4-d convenience forms used throughout the nn library).
  [[nodiscard]] float& at(int i, int j);
  [[nodiscard]] float at(int i, int j) const;
  [[nodiscard]] float& at(int n, int c, int h, int w);
  [[nodiscard]] float at(int n, int c, int h, int w) const;

  /// Returns a reshaped copy sharing no storage; element count must match.
  [[nodiscard]] Tensor reshaped(std::vector<int> new_shape) const;

  /// Gives this tensor `shape` as the output buffer of a kernel that
  /// writes every element: an unchanged shape keeps the storage and its
  /// stale values, and a new one is zero-filled in the storage's capacity.
  /// Either way, once the storage has held this many elements, nothing is
  /// allocated.
  void ensure_shape(std::span<const int> shape);
  void ensure_shape(std::initializer_list<int> shape) {
    ensure_shape(std::span<const int>(shape.begin(), shape.size()));
  }

  /// In-place fill.
  void fill(float value);

  /// Elementwise in-place operations.
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float s);

  /// Sum of all elements / L2 norm — handy in tests and gradient checks.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double l2_norm() const;
  [[nodiscard]] float max_abs() const;

  /// "[2, 3, 4]" — for error messages.
  [[nodiscard]] std::string shape_str() const;

  /// True when shapes are identical.
  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

/// Number of elements implied by a shape; throws on non-positive dims.
[[nodiscard]] std::size_t shape_size(std::span<const int> shape);

}  // namespace lcda::tensor
