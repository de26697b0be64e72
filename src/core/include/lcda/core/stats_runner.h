#pragma once

#include <limits>
#include <string>
#include <vector>

#include "lcda/core/experiment.h"
#include "lcda/util/stats.h"

namespace lcda::core {

/// Aggregated multi-seed results of one strategy: mean/stddev of the
/// best-reward trajectory and scalar end-of-run statistics. This is what
/// credible benchmark tables should report instead of single-seed runs.
struct AggregateResult {
  Strategy strategy{};
  int episodes = 0;
  int seeds = 0;

  /// Per-episode statistics of the running-best reward across seeds.
  std::vector<util::OnlineStats> running_best;

  /// Final best reward across seeds.
  util::OnlineStats final_best;

  /// The reward threshold this aggregate was asked to time (NaN = none
  /// requested), so "asked but never reached" stays distinguishable from
  /// "not asked" in serialized output.
  double threshold = std::numeric_limits<double>::quiet_NaN();

  /// Episodes to reach the threshold (only seeds that reached it
  /// contribute); `reached` counts how many did.
  util::OnlineStats episodes_to_threshold;
  int reached = 0;

  /// Evaluation-cache traffic summed over all seeds (see RunResult).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t persistent_hits = 0;
  std::int64_t persistent_shared_hits = 0;
  std::int64_t persistent_skipped = 0;
  std::int64_t persistent_save_failures = 0;

  /// Checkpoint-restored episodes summed over all seeds (observability
  /// only — never serialized into the deterministic aggregate document).
  std::int64_t resumed_episodes = 0;

  [[nodiscard]] double mean_running_best(int episode) const {
    return running_best[static_cast<std::size_t>(episode)].mean();
  }
};

/// One seed's share of an AggregateResult: everything fold_aggregate reads
/// from a finished run. run_aggregate reduces each run to its record as
/// soon as the run ends, and distributed workers ship the same record in
/// their manifests (lcda::dist), so both paths fold identical values.
struct AggregateSeedRecord {
  double final_best = 0.0;
  std::vector<double> running_max;  ///< one value per episode
  int threshold_episode = -1;       ///< RunResult::episodes_to_reach; -1 = never
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t persistent_hits = 0;
  std::int64_t persistent_shared_hits = 0;
  std::int64_t persistent_skipped = 0;
  std::int64_t persistent_save_failures = 0;
  std::int64_t resumed_episodes = 0;
};

/// Reduces a finished run to its record; `threshold` NaN = none requested.
[[nodiscard]] AggregateSeedRecord aggregate_seed_record(const RunResult& run,
                                                        double threshold);

/// The one aggregate fold. It walks `records` (index = global seed index)
/// in order, because the Welford accumulators are order-sensitive in
/// floating point. Throws std::runtime_error on a record whose
/// running_max is not `episodes` long.
[[nodiscard]] AggregateResult fold_aggregate(
    Strategy strategy, int episodes, double threshold,
    const std::vector<AggregateSeedRecord>& records);

/// The per-seed config of global seed index `s` in a `seeds`-seed
/// aggregate/speedup study: the seed stream is derived by key
/// (util::derive_seed, order-independent), and the worker budget is split
/// between seed-level fan-out and the inner loop. Exposed so distributed
/// workers (lcda::dist) reproduce exactly the runs a single process would
/// have produced — any partition of the seed-index set is bit-compatible.
[[nodiscard]] ExperimentConfig aggregate_seed_config(
    const ExperimentConfig& config, int s, int seeds);

/// Seed index `s` of a runs-mode study (lcda_run's per-seed listing): the
/// base seed offset by `s` rather than derived by key, and the run's
/// "<Strategy>/seed<N>" label.
struct SeedRun {
  ExperimentConfig config;
  std::string label;
};
[[nodiscard]] SeedRun runs_mode_seed(Strategy strategy,
                                     const ExperimentConfig& config, int s);

/// Runs `strategy` for `episodes` episodes with seeds 1..seeds (offset by
/// config.seed) and aggregates. `threshold` feeds episodes_to_threshold;
/// pass NaN to skip.
[[nodiscard]] AggregateResult run_aggregate(Strategy strategy, int episodes,
                                            int seeds,
                                            const ExperimentConfig& config,
                                            double threshold);

/// Paired multi-seed speedup study: for each seed, LCDA episodes-to-thresh
/// vs NACIM episodes-to-thresh (threshold = fraction of that seed's NACIM
/// best). Returns per-seed speedups.
[[nodiscard]] std::vector<SpeedupReport> speedup_study(
    const ExperimentConfig& config, int seeds, double threshold_fraction = 0.95);

}  // namespace lcda::core
