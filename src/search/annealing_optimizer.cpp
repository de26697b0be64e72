#include "lcda/search/annealing_optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lcda::search {

AnnealingOptimizer::AnnealingOptimizer(SearchSpace space, Options opts)
    : space_(std::move(space)),
      opts_(opts),
      temperature_(opts.initial_temperature) {
  if (opts.initial_temperature <= 0.0 || opts.cooling_rate <= 0.0 ||
      opts.cooling_rate >= 1.0 || opts.mutations_per_step < 1) {
    throw std::invalid_argument("AnnealingOptimizer: bad options");
  }
}

void AnnealingOptimizer::propose_batch_into(std::size_t n, util::Rng& rng,
                                            std::vector<Design>& out) {
  if (!accept_rng_seeded_) {
    accept_rng_ = rng.fork();
    accept_rng_seeded_ = true;
  }
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (current_genes_.empty()) {
      out.push_back(space_.sample(rng));
      continue;
    }
    std::vector<int> neighbour = current_genes_;
    for (int m = 0; m < opts_.mutations_per_step; ++m) {
      const std::size_t g = rng.index(neighbour.size());
      neighbour[g] = static_cast<int>(rng.index(space_.cardinality(g)));
    }
    out.push_back(space_.decode(neighbour));
  }
}

void AnnealingOptimizer::feedback_batch(std::span<const Observation> batch) {
  // One Metropolis step on the batch's best candidate, one cooling step.
  const Observation* best = nullptr;
  std::vector<int> best_genes;
  for (const Observation& obs : batch) {
    if (best && !(obs.reward > best->reward)) continue;
    if (auto genes = space_.try_encode(obs.design)) {
      best = &obs;
      best_genes = std::move(*genes);
    }
  }
  if (best) metropolis_step(std::move(best_genes), best->reward);
}

void AnnealingOptimizer::metropolis_step(std::vector<int> genes, double reward) {
  if (current_genes_.empty()) {
    current_genes_ = std::move(genes);
    current_reward_ = reward;
    return;
  }
  const double delta = reward - current_reward_;
  const bool accept =
      delta >= 0.0 || accept_rng_.chance(std::exp(delta / temperature_));
  if (accept) {
    current_genes_ = std::move(genes);
    current_reward_ = reward;
  }
  temperature_ = std::max(opts_.min_temperature,
                          temperature_ * opts_.cooling_rate);
}

}  // namespace lcda::search
