#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lcda::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; used by the Monte-Carlo evaluator
/// and the benchmark harnesses.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Standard error of the mean.
  [[nodiscard]] double sem() const;

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);
/// Linear-interpolated percentile, p in [0, 100]. Copies + sorts.
[[nodiscard]] double percentile(std::span<const double> xs, double p);
[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);

/// Exponential moving average, used by the RL baseline.
class Ema {
 public:
  explicit Ema(double decay) : decay_(decay) {}
  double update(double x);
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool initialized() const { return initialized_; }

 private:
  double decay_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace lcda::util
