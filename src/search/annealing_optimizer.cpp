#include "lcda/search/annealing_optimizer.h"

#include <cmath>
#include <cstdint>
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

Design AnnealingOptimizer::propose(util::Rng& rng) {
  if (!accept_rng_seeded_) {
    accept_rng_ = rng.fork();
    accept_rng_seeded_ = true;
  }
  if (current_genes_.empty()) {
    const Design d = space_.sample(rng);
    pending_genes_ = space_.encode(d);
    return d;
  }
  std::vector<int> neighbour = current_genes_;
  for (int m = 0; m < opts_.mutations_per_step; ++m) {
    const std::size_t g = rng.index(neighbour.size());
    neighbour[g] = static_cast<int>(rng.index(space_.cardinality(g)));
  }
  pending_genes_ = neighbour;
  return space_.decode(neighbour);
}

void AnnealingOptimizer::propose_batch_into(std::size_t n, util::Rng& rng,
                                            std::vector<Design>& out) {
  out.clear();
  if (n == 1) {
    out.push_back(propose(rng));
    return;
  }
  if (!accept_rng_seeded_) {
    accept_rng_ = rng.fork();
    accept_rng_seeded_ = true;
  }
  pending_genes_.clear();
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
  if (batch.size() == 1) {
    feedback(batch.front());
    return;
  }
  // One Metropolis step on the batch's best candidate, one cooling step.
  const Observation* best = nullptr;
  for (const Observation& obs : batch) {
    if (!space_.contains(obs.design)) continue;
    if (!best || obs.reward > best->reward) best = &obs;
  }
  if (best) feedback(*best);
}

void AnnealingOptimizer::feedback(const Observation& obs) {
  std::vector<int> genes;
  if (!pending_genes_.empty() && space_.decode(pending_genes_) == obs.design) {
    genes = pending_genes_;
  } else {
    if (!space_.contains(obs.design)) return;
    genes = space_.encode(obs.design);
  }
  pending_genes_.clear();

  if (current_genes_.empty()) {
    current_genes_ = std::move(genes);
    current_reward_ = obs.reward;
    return;
  }
  const double delta = obs.reward - current_reward_;
  const bool accept =
      delta >= 0.0 || accept_rng_.chance(std::exp(delta / temperature_));
  if (accept) {
    current_genes_ = std::move(genes);
    current_reward_ = obs.reward;
  }
  temperature_ = std::max(opts_.min_temperature,
                          temperature_ * opts_.cooling_rate);
}

}  // namespace lcda::search
