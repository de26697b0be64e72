#pragma once

#include <vector>

#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"
#include "lcda/util/stats.h"

namespace lcda::search {

/// REINFORCE policy-gradient controller — the optimization strategy of the
/// NACIM baseline (paper Sec. IV: "NACIM, which employs reinforcement
/// learning as its optimization strategy").
///
/// The policy is a product of independent categorical distributions, one
/// per decision dimension (12 software + 5 hardware). Logits start at zero,
/// i.e. uniform — the "cold start" the paper criticizes: early proposals
/// are random and the controller must learn every heuristic from rewards.
class RlOptimizer final : public Optimizer {
 public:
  struct Options {
    double learning_rate = 0.12;
    double baseline_decay = 0.85;
    /// Temperature anneal: logits are divided by a temperature that decays
    /// from `initial_temperature` toward 1.0 with rate `temperature_decay`
    /// per feedback, sharpening the policy over time.
    double initial_temperature = 2.0;
    double temperature_decay = 0.995;
  };

  explicit RlOptimizer(SearchSpace space) : RlOptimizer(std::move(space), Options{}) {}
  RlOptimizer(SearchSpace space, Options opts);

  [[nodiscard]] Design propose(util::Rng& rng) override;
  void feedback(const Observation& obs) override;

  [[nodiscard]] std::string name() const override { return "NACIM-RL"; }

  /// Current probability vector of a dimension (exposed for tests).
  [[nodiscard]] std::vector<double> policy(std::size_t dim) const;

  [[nodiscard]] std::size_t episodes() const { return episodes_; }

 private:
  void fill_probabilities(std::size_t dim, std::vector<double>& out) const;
  void refresh_probabilities();

  SearchSpace space_;
  Options opts_;
  std::vector<std::vector<double>> logits_;  // [dim][choice]
  std::vector<int> last_choice_;             // indices of the last proposal
  util::Ema baseline_;
  double temperature_;
  std::size_t episodes_ = 0;

  /// Softmax of the current policy, one vector per dimension, recomputed
  /// in place only when logits or temperature changed. A propose →
  /// feedback episode therefore folds the softmax once instead of twice
  /// (and allocates nothing): the REINFORCE update needs the exact
  /// probabilities the proposal was drawn from, which are still cached.
  /// totals_ caches each dimension's left-to-right probability sum for
  /// Rng::weighted_index's precomputed-total overload (bit-identical
  /// draws, one fewer pass per dimension per proposal).
  std::vector<std::vector<double>> probs_;
  std::vector<double> totals_;
  bool probs_fresh_ = false;
};

}  // namespace lcda::search
