#pragma once

#include <vector>

#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::search {

/// Genetic-algorithm design optimizer (the paper cites NSGA-Net [14] as the
/// other classical co-design strategy; this is a single-objective GA over
/// the encoded design vector with tournament selection, uniform crossover
/// and per-gene mutation).
class GeneticOptimizer final : public BatchOptimizer {
 public:
  struct Options {
    std::size_t population = 24;
    std::size_t tournament = 3;
    double crossover_rate = 0.9;
    double mutation_rate = 0.08;  ///< per gene
    std::size_t elite = 4;        ///< survivors kept when the pool is culled
  };

  explicit GeneticOptimizer(SearchSpace space)
      : GeneticOptimizer(std::move(space), Options{}) {}
  GeneticOptimizer(SearchSpace space, Options opts);

  /// Generational batch: n children bred from a snapshot of the current
  /// pool (the seeding phase fills with random designs first). The natural
  /// batch is one population.
  void propose_batch_into(std::size_t n, util::Rng& rng,
                          std::vector<Design>& out) override;
  void feedback_batch(std::span<const Observation> batch) override;
  [[nodiscard]] std::size_t preferred_batch() const override {
    return opts_.population;
  }

  [[nodiscard]] std::string name() const override { return "Genetic"; }

  [[nodiscard]] std::size_t population_size() const { return scored_.size(); }

 private:
  struct Scored {
    std::vector<int> genes;
    double fitness = 0.0;
  };

  [[nodiscard]] const Scored& tournament_pick(util::Rng& rng) const;
  void maybe_cull();

  SearchSpace space_;
  Options opts_;
  std::vector<Scored> scored_;
};

}  // namespace lcda::search
