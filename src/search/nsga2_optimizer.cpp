#include "lcda/search/nsga2_optimizer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace lcda::search {

bool mo_dominates(const MoPoint& a, const MoPoint& b) {
  const bool no_worse = a.accuracy >= b.accuracy && a.neg_cost >= b.neg_cost;
  const bool better = a.accuracy > b.accuracy || a.neg_cost > b.neg_cost;
  return no_worse && better;
}

std::vector<int> non_dominated_sort(const std::vector<MoPoint>& pts) {
  const std::size_t n = pts.size();
  std::vector<int> rank(n, -1);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (mo_dominates(pts[i], pts[j])) {
        dominated_by[i].push_back(j);
      } else if (mo_dominates(pts[j], pts[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) {
      rank[i] = 0;
      current.push_back(i);
    }
  }
  int level = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) {
          rank[j] = level + 1;
          next.push_back(j);
        }
      }
    }
    current = std::move(next);
    ++level;
  }
  return rank;
}

std::vector<double> crowding_distance(const std::vector<MoPoint>& pts,
                                      const std::vector<int>& ranks) {
  const std::size_t n = pts.size();
  std::vector<double> crowd(n, 0.0);
  if (n == 0) return crowd;
  const int max_rank = *std::max_element(ranks.begin(), ranks.end());
  for (int r = 0; r <= max_rank; ++r) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < n; ++i) {
      if (ranks[i] == r) front.push_back(i);
    }
    if (front.size() <= 2) {
      for (std::size_t i : front) crowd[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    // Per objective: sort the front, boundary -> inf, interior -> normalized
    // neighbour gap.
    for (int obj = 0; obj < 2; ++obj) {
      auto value = [&](std::size_t i) {
        return obj == 0 ? pts[i].accuracy : pts[i].neg_cost;
      };
      std::sort(front.begin(), front.end(),
                [&](std::size_t a, std::size_t b) { return value(a) < value(b); });
      const double span = value(front.back()) - value(front.front());
      crowd[front.front()] = std::numeric_limits<double>::infinity();
      crowd[front.back()] = std::numeric_limits<double>::infinity();
      if (span <= 0.0) continue;
      for (std::size_t k = 1; k + 1 < front.size(); ++k) {
        crowd[front[k]] += (value(front[k + 1]) - value(front[k - 1])) / span;
      }
    }
  }
  return crowd;
}

Nsga2Optimizer::Nsga2Optimizer(SearchSpace space, Options opts)
    : space_(std::move(space)), opts_(opts) {
  if (opts_.population < 4) throw std::invalid_argument("Nsga2Optimizer: population");
}

const Nsga2Optimizer::Individual& Nsga2Optimizer::tournament(
    util::Rng& rng, const std::vector<int>& ranks,
    const std::vector<double>& crowd) const {
  const std::size_t a = rng.index(archive_.size());
  const std::size_t b = rng.index(archive_.size());
  if (ranks[a] != ranks[b]) return archive_[ranks[a] < ranks[b] ? a : b];
  return archive_[crowd[a] >= crowd[b] ? a : b];
}

void Nsga2Optimizer::propose_batch_into(std::size_t n, util::Rng& rng,
                                        std::vector<Design>& out) {
  out.clear();
  out.reserve(n);

  // Sort the archive once for the whole generation.
  std::vector<int> ranks;
  std::vector<double> crowd;
  if (archive_.size() >= 2) {
    std::vector<MoPoint> pts;
    pts.reserve(archive_.size());
    for (const auto& ind : archive_) pts.push_back(ind.objectives);
    ranks = non_dominated_sort(pts);
    crowd = crowding_distance(pts, ranks);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (archive_.size() + out.size() < opts_.population || archive_.size() < 2) {
      out.push_back(space_.sample(rng));
    } else {
      const Individual& a = tournament(rng, ranks, crowd);
      const Individual& b = tournament(rng, ranks, crowd);
      out.push_back(space_.decode(space_.offspring(
          a.genes, b.genes, opts_.crossover_rate, opts_.mutation_rate, rng)));
    }
  }
}

void Nsga2Optimizer::feedback_batch(std::span<const Observation> batch) {
  for (const Observation& obs : batch) {
    std::optional<std::vector<int>> genes = space_.try_encode(obs.design);
    if (!genes) continue;
    // Invalid designs are dominated by every valid one.
    MoPoint objectives{-1.0, -std::numeric_limits<double>::max()};
    if (obs.valid) {
      objectives = {obs.accuracy,
                    -(opts_.use_latency ? obs.latency_ns : obs.energy_pj)};
    }
    archive_.push_back({std::move(*genes), objectives});
  }
  if (archive_.size() > 2 * opts_.population) environmental_selection();
}

void Nsga2Optimizer::environmental_selection() {
  std::vector<MoPoint> pts;
  pts.reserve(archive_.size());
  for (const auto& ind : archive_) pts.push_back(ind.objectives);
  const auto ranks = non_dominated_sort(pts);
  const auto crowd = crowding_distance(pts, ranks);

  std::vector<std::size_t> order(archive_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (ranks[x] != ranks[y]) return ranks[x] < ranks[y];
    return crowd[x] > crowd[y];
  });
  std::vector<Individual> kept;
  kept.reserve(opts_.population);
  for (std::size_t k = 0; k < opts_.population && k < order.size(); ++k) {
    kept.push_back(archive_[order[k]]);
  }
  archive_ = std::move(kept);
}

std::vector<Design> Nsga2Optimizer::pareto_designs() const {
  std::vector<MoPoint> pts;
  pts.reserve(archive_.size());
  for (const auto& ind : archive_) pts.push_back(ind.objectives);
  const auto ranks = non_dominated_sort(pts);
  std::vector<Design> out;
  for (std::size_t i = 0; i < archive_.size(); ++i) {
    if (ranks[i] == 0 && pts[i].accuracy >= 0.0) {
      out.push_back(space_.decode(archive_[i].genes));
    }
  }
  return out;
}

}  // namespace lcda::search
