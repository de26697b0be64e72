#pragma once

#include <unordered_set>

#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::search {

/// Uniform random search with optional duplicate avoidance — the weakest
/// sensible baseline and a useful control in the benchmarks.
class RandomOptimizer final : public Optimizer {
 public:
  explicit RandomOptimizer(SearchSpace space, bool avoid_duplicates = true,
                           int max_retries = 32);

  [[nodiscard]] Design propose(util::Rng& rng) override;
  void feedback(const Observation& obs) override;

  [[nodiscard]] std::size_t preferred_batch() const override { return 0; }

  /// The proposal stream never reads feedback, so the engine may propose
  /// arbitrarily far ahead of in-flight evaluations without changing it.
  [[nodiscard]] std::size_t pipeline_lookahead() const override {
    return static_cast<std::size_t>(-1);
  }

  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  SearchSpace space_;
  bool avoid_duplicates_;
  int max_retries_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace lcda::search
