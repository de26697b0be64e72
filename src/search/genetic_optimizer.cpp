#include "lcda/search/genetic_optimizer.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace lcda::search {

GeneticOptimizer::GeneticOptimizer(SearchSpace space, Options opts)
    : space_(std::move(space)), opts_(opts) {
  if (opts_.population < 2) throw std::invalid_argument("GeneticOptimizer: population");
  if (opts_.tournament < 1) throw std::invalid_argument("GeneticOptimizer: tournament");
}

const GeneticOptimizer::Scored& GeneticOptimizer::tournament_pick(
    util::Rng& rng) const {
  const Scored* best = nullptr;
  for (std::size_t i = 0; i < opts_.tournament; ++i) {
    const Scored& contender = scored_[rng.index(scored_.size())];
    if (!best || contender.fitness > best->fitness) best = &contender;
  }
  return *best;
}

Design GeneticOptimizer::propose(util::Rng& rng) {
  if (scored_.size() < opts_.population) {
    // Seeding phase: random designs until the population is full.
    const Design d = space_.sample(rng);
    pending_genes_ = space_.encode(d);
    return d;
  }
  // Breed: tournament-select parents, uniform crossover, mutate.
  std::vector<int> child = breed(rng);
  pending_genes_ = child;
  return space_.decode(child);
}

std::vector<int> GeneticOptimizer::breed(util::Rng& rng) const {
  const Scored& a = tournament_pick(rng);
  const Scored& b = tournament_pick(rng);
  std::vector<int> child = a.genes;
  if (rng.chance(opts_.crossover_rate)) {
    for (std::size_t g = 0; g < child.size(); ++g) {
      if (rng.chance(0.5)) child[g] = b.genes[g];
    }
  }
  for (std::size_t g = 0; g < child.size(); ++g) {
    if (rng.chance(opts_.mutation_rate)) {
      child[g] = static_cast<int>(rng.index(space_.cardinality(g)));
    }
  }
  return child;
}

void GeneticOptimizer::propose_batch_into(std::size_t n, util::Rng& rng,
                                          std::vector<Design>& out) {
  out.clear();
  if (n == 1) {
    out.push_back(propose(rng));
    return;
  }
  pending_genes_.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scored_.size() + out.size() < opts_.population ||
        scored_.size() < 2) {
      out.push_back(space_.sample(rng));
    } else {
      out.push_back(space_.decode(breed(rng)));
    }
  }
}

void GeneticOptimizer::feedback_batch(std::span<const Observation> batch) {
  if (batch.size() == 1) {
    feedback(batch.front());
    return;
  }
  // One generation lands at once; cull a single time afterwards so the
  // elite is chosen against the whole generation, not a rolling window.
  for (const Observation& obs : batch) add_scored(obs);
  maybe_cull();
}

void GeneticOptimizer::feedback(const Observation& obs) {
  add_scored(obs);
  maybe_cull();
}

void GeneticOptimizer::add_scored(const Observation& obs) {
  Scored s;
  if (!pending_genes_.empty() && space_.decode(pending_genes_) == obs.design) {
    s.genes = pending_genes_;
  } else {
    if (!space_.contains(obs.design)) return;
    s.genes = space_.encode(obs.design);
  }
  pending_genes_.clear();
  s.fitness = obs.reward;
  scored_.push_back(std::move(s));
}

void GeneticOptimizer::maybe_cull() {
  // Cull: keep the elite plus the freshest entries within 2x population.
  if (scored_.size() > opts_.population * 2) {
    std::vector<Scored> next(scored_.begin(), scored_.end());
    std::partial_sort(next.begin(),
                      next.begin() + static_cast<std::ptrdiff_t>(opts_.elite),
                      next.end(), [](const Scored& x, const Scored& y) {
                        return x.fitness > y.fitness;
                      });
    std::vector<Scored> kept(next.begin(),
                             next.begin() + static_cast<std::ptrdiff_t>(opts_.elite));
    // Freshest individuals fill the remainder.
    const std::size_t tail = opts_.population - std::min(opts_.population, opts_.elite);
    kept.insert(kept.end(), scored_.end() - static_cast<std::ptrdiff_t>(tail),
                scored_.end());
    scored_ = std::move(kept);
  }
}

}  // namespace lcda::search
