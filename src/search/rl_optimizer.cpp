#include "lcda/search/rl_optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace lcda::search {

RlOptimizer::RlOptimizer(SearchSpace space, Options opts)
    : space_(std::move(space)),
      opts_(opts),
      baseline_(opts.baseline_decay),
      temperature_(opts.initial_temperature) {
  logits_.resize(space_.dimensions());
  probs_.resize(space_.dimensions());
  totals_.assign(space_.dimensions(), 0.0);
  for (std::size_t d = 0; d < logits_.size(); ++d) {
    logits_[d].assign(space_.cardinality(d), 0.0);
    probs_[d].assign(space_.cardinality(d), 0.0);
  }
}

void RlOptimizer::fill_probabilities(std::size_t dim,
                                     std::vector<double>& out) const {
  const auto& logit = logits_[dim];
  out.resize(logit.size());
  const double t = std::max(1.0, temperature_);
  double mx = logit[0];
  for (double l : logit) mx = std::max(mx, l);
  double sum = 0.0;
  for (std::size_t i = 0; i < logit.size(); ++i) {
    out[i] = std::exp((logit[i] - mx) / t);
    sum += out[i];
  }
  for (double& x : out) x /= sum;
}

void RlOptimizer::refresh_probabilities() {
  for (std::size_t d = 0; d < logits_.size(); ++d) {
    fill_probabilities(d, probs_[d]);
    // Left-to-right, exactly as weighted_index's self-summing overload
    // would — the cached total must reproduce its bits.
    double total = 0.0;
    for (double p : probs_[d]) total += p;
    totals_[d] = total;
  }
  probs_fresh_ = true;
}

std::vector<double> RlOptimizer::policy(std::size_t dim) const {
  if (dim >= logits_.size()) throw std::out_of_range("RlOptimizer::policy");
  std::vector<double> p;
  fill_probabilities(dim, p);
  return p;
}

Design RlOptimizer::propose(util::Rng& rng) {
  if (!probs_fresh_) refresh_probabilities();
  last_choice_.clear();
  last_choice_.reserve(space_.dimensions());
  for (std::size_t d = 0; d < space_.dimensions(); ++d) {
    last_choice_.push_back(
        static_cast<int>(rng.weighted_index(probs_[d], totals_[d])));
  }
  return space_.decode(last_choice_);
}

void RlOptimizer::feedback(const Observation& obs) {
  // REINFORCE on the episode that produced `obs`. If feedback arrives for a
  // design other than the last proposal (e.g. replayed history), re-encode.
  const std::vector<int>* choice = &last_choice_;
  std::optional<std::vector<int>> encoded;
  if (last_choice_.empty() || !space_.decodes_to(last_choice_, obs.design)) {
    encoded = space_.try_encode(obs.design);
    if (!encoded) return;  // outside our space: ignore
    choice = &*encoded;
  }

  const double baseline =
      baseline_.initialized() ? baseline_.value() : obs.reward;
  const double advantage = obs.reward - baseline;
  baseline_.update(obs.reward);

  // The gradient needs the probabilities the policy holds *before* this
  // update — exactly what the cache still contains after the propose that
  // produced `obs` (logits and temperature are untouched in between).
  if (!probs_fresh_) refresh_probabilities();
  for (std::size_t d = 0; d < logits_.size(); ++d) {
    const auto& p = probs_[d];
    const auto chosen = static_cast<std::size_t>((*choice)[d]);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double grad = (i == chosen ? 1.0 - p[i] : -p[i]);
      logits_[d][i] += opts_.learning_rate * advantage * grad;
    }
  }
  temperature_ = 1.0 + (temperature_ - 1.0) * opts_.temperature_decay;
  probs_fresh_ = false;
  ++episodes_;
  last_choice_.clear();
}

}  // namespace lcda::search
