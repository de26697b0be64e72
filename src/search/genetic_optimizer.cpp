#include "lcda/search/genetic_optimizer.h"

#include <algorithm>
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

void GeneticOptimizer::propose_batch_into(std::size_t n, util::Rng& rng,
                                          std::vector<Design>& out) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scored_.size() + out.size() < opts_.population ||
        scored_.size() < 2) {
      // Seeding phase: random designs until the population is full.
      out.push_back(space_.sample(rng));
    } else {
      // Breed: tournament-select parents, uniform crossover, mutate.
      const Scored& a = tournament_pick(rng);
      const Scored& b = tournament_pick(rng);
      out.push_back(space_.decode(space_.offspring(
          a.genes, b.genes, opts_.crossover_rate, opts_.mutation_rate, rng)));
    }
  }
}

void GeneticOptimizer::feedback_batch(std::span<const Observation> batch) {
  // One generation lands at once; cull a single time afterwards so the
  // elite is chosen against the whole generation, not a rolling window.
  for (const Observation& obs : batch) {
    if (auto genes = space_.try_encode(obs.design)) {
      scored_.push_back({std::move(*genes), obs.reward});
    }
  }
  maybe_cull();
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
