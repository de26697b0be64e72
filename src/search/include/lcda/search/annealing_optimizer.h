#pragma once

#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::search {

/// Simulated-annealing design optimizer — a classical single-trajectory
/// baseline between random search and the population methods: propose a
/// neighbour of the current design, accept it if better, or with the
/// Metropolis probability exp(delta / T) if worse; T cools geometrically.
class AnnealingOptimizer final : public BatchOptimizer {
 public:
  struct Options {
    double initial_temperature = 0.25;  ///< in reward units
    double cooling_rate = 0.97;         ///< per accepted feedback
    double min_temperature = 0.005;
    /// Genes flipped per neighbour proposal.
    int mutations_per_step = 2;
  };

  explicit AnnealingOptimizer(SearchSpace space)
      : AnnealingOptimizer(std::move(space), Options{}) {}
  AnnealingOptimizer(SearchSpace space, Options opts);

  /// Speculative batch: n independent neighbours of the current state are
  /// proposed at once; feedback_batch applies one Metropolis step on the
  /// best of them and cools once, so a batch costs one "move" of the
  /// schedule while exploring n candidates. The trajectory itself stays
  /// sequential by default (no batch preference resolves to rounds of
  /// one); larger batches happen only when the caller sets an explicit
  /// batch_size.
  void propose_batch_into(std::size_t n, util::Rng& rng,
                          std::vector<Design>& out) override;
  void feedback_batch(std::span<const Observation> batch) override;
  [[nodiscard]] std::size_t preferred_batch() const override { return 0; }

  [[nodiscard]] std::string name() const override { return "Annealing"; }

  [[nodiscard]] double temperature() const { return temperature_; }
  [[nodiscard]] bool has_state() const { return !current_genes_.empty(); }

 private:
  /// Moves to `genes` if the Metropolis rule accepts them, then cools; the
  /// first call only sets the starting state.
  void metropolis_step(std::vector<int> genes, double reward);

  SearchSpace space_;
  Options opts_;
  std::vector<int> current_genes_;
  double current_reward_ = 0.0;
  double temperature_;
  /// Drives accept/reject draws; seeded on the first proposal so the whole
  /// trajectory is reproducible from the caller's RNG.
  util::Rng accept_rng_{0};
  bool accept_rng_seeded_ = false;
};

}  // namespace lcda::search
