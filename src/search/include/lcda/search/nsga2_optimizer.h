#pragma once

#include <vector>

#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::search {

/// A point in multi-objective space; both coordinates are maximized
/// (hardware cost is stored negated).
struct MoPoint {
  double accuracy = 0.0;
  double neg_cost = 0.0;
};

/// True when `a` Pareto-dominates `b` (both maximized).
[[nodiscard]] bool mo_dominates(const MoPoint& a, const MoPoint& b);

/// Fast non-dominated sort (Deb et al. 2002): returns the front rank of
/// each point (0 = non-dominated).
[[nodiscard]] std::vector<int> non_dominated_sort(const std::vector<MoPoint>& pts);

/// Crowding distance of each point *within its own front*; boundary points
/// get +infinity.
[[nodiscard]] std::vector<double> crowding_distance(const std::vector<MoPoint>& pts,
                                                    const std::vector<int>& ranks);

/// NSGA-II-style multi-objective design optimizer (the strategy family of
/// NSGA-Net, paper ref [14]). Unlike the scalarized RL/GA baselines it
/// optimizes (accuracy, hardware-cost) as a true bi-objective problem:
/// parents are chosen by (front rank, crowding distance) tournaments, so
/// the population spreads along the whole Pareto front rather than
/// collapsing onto the reward function's preferred corner.
class Nsga2Optimizer final : public BatchOptimizer {
 public:
  struct Options {
    std::size_t population = 24;
    double crossover_rate = 0.9;
    double mutation_rate = 0.08;
    /// Which Observation field is the cost objective.
    bool use_latency = false;
  };

  explicit Nsga2Optimizer(SearchSpace space)
      : Nsga2Optimizer(std::move(space), Options{}) {}
  Nsga2Optimizer(SearchSpace space, Options opts);

  /// Generational batch: the non-dominated sort and crowding distances are
  /// computed once per batch instead of once per proposal, and the
  /// environmental selection runs once after the whole generation lands.
  void propose_batch_into(std::size_t n, util::Rng& rng,
                          std::vector<Design>& out) override;
  void feedback_batch(std::span<const Observation> batch) override;
  [[nodiscard]] std::size_t preferred_batch() const override {
    return opts_.population;
  }

  [[nodiscard]] std::string name() const override { return "NSGA-II"; }

  /// The current non-dominated set of evaluated designs.
  [[nodiscard]] std::vector<Design> pareto_designs() const;

  [[nodiscard]] std::size_t archive_size() const { return archive_.size(); }

 private:
  struct Individual {
    std::vector<int> genes;
    MoPoint objectives;
  };

  void environmental_selection();
  [[nodiscard]] const Individual& tournament(util::Rng& rng,
                                             const std::vector<int>& ranks,
                                             const std::vector<double>& crowd) const;

  SearchSpace space_;
  Options opts_;
  std::vector<Individual> archive_;
};

}  // namespace lcda::search
