#include "lcda/core/stats_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "lcda/util/thread_pool.h"

namespace lcda::core {

// The seed stream is derived by key (order-independent), and the worker
// budget is split between seed-level fan-out and the inner loop — seeds
// get the pool, and only the parallelism the fan-out cannot use
// (seeds < workers) is passed down, so the machine is never
// oversubscribed. Inner parallelism does not affect traces.
ExperimentConfig aggregate_seed_config(const ExperimentConfig& config, int s,
                                       int seeds) {
  ExperimentConfig cfg = config;
  cfg.seed = util::derive_seed(config.seed, static_cast<std::uint64_t>(s));
  const int par = util::ThreadPool::resolve_parallelism(config.parallelism);
  cfg.parallelism = std::max(1, par / std::max(seeds, 1));
  return cfg;
}

namespace {

std::unique_ptr<util::ThreadPool> make_pool(const ExperimentConfig& config) {
  const int par = util::ThreadPool::resolve_parallelism(config.parallelism);
  return par > 1 ? std::make_unique<util::ThreadPool>(par) : nullptr;
}

}  // namespace

AggregateSeedRecord aggregate_seed_record(const RunResult& run,
                                          double threshold) {
  AggregateSeedRecord r;
  r.final_best = run.best_reward();
  r.running_max = run.reward_running_max();
  if (!std::isnan(threshold)) r.threshold_episode = run.episodes_to_reach(threshold);
  for_each_cache_counter(
      [](const char*, std::int64_t& to, std::int64_t from) { to = from; }, r,
      run);
  r.resumed_episodes = run.resumed_episodes;
  return r;
}

AggregateResult fold_aggregate(Strategy strategy, int episodes, double threshold,
                               const std::vector<AggregateSeedRecord>& records) {
  AggregateResult agg;
  agg.strategy = strategy;
  agg.episodes = episodes;
  agg.seeds = static_cast<int>(records.size());
  agg.threshold = threshold;
  agg.running_best.resize(static_cast<std::size_t>(episodes));
  for (std::size_t s = 0; s < records.size(); ++s) {
    const AggregateSeedRecord& r = records[s];
    if (r.running_max.size() != agg.running_best.size()) {
      throw std::runtime_error("fold_aggregate: seed " + std::to_string(s) +
                               " has a wrong-length running_max");
    }
    for (std::size_t e = 0; e < r.running_max.size(); ++e) {
      agg.running_best[e].add(r.running_max[e]);
    }
    agg.final_best.add(r.final_best);
    for_each_cache_counter(
        [](const char*, std::int64_t& sum, std::int64_t v) { sum += v; }, agg,
        r);
    agg.resumed_episodes += r.resumed_episodes;
    if (!std::isnan(threshold) && r.threshold_episode >= 0) {
      agg.episodes_to_threshold.add(static_cast<double>(r.threshold_episode) + 1.0);
      ++agg.reached;
    }
  }
  return agg;
}

SeedRun runs_mode_seed(Strategy strategy, const ExperimentConfig& config,
                       int s) {
  SeedRun run{config, {}};
  run.config.seed = config.seed + static_cast<std::uint64_t>(s);
  run.label = std::string(strategy_name(strategy)) + "/seed" +
              std::to_string(run.config.seed);
  return run;
}

AggregateResult run_aggregate(Strategy strategy, int episodes, int seeds,
                              const ExperimentConfig& config, double threshold) {
  if (episodes <= 0 || seeds <= 0) {
    throw std::invalid_argument("run_aggregate: episodes/seeds must be positive");
  }
  // Fan the seeds out over the pool; every run's result is independent of
  // worker scheduling, and each run shrinks to its record the moment it
  // ends, so the study never holds more than the in-flight runs. All seeds
  // share one evaluator: its memos are content-keyed and hash-striped, so
  // each hardware config's cost plan is built once for the whole study
  // instead of once per seed, and concurrent seed-runs don't serialize on
  // a lock.
  std::vector<AggregateSeedRecord> records(static_cast<std::size_t>(seeds));
  const auto evaluator = make_evaluator(config);
  const auto pool = make_pool(config);
  util::parallel_for_each_index(
      pool.get(), static_cast<std::size_t>(seeds), [&](std::size_t s) {
        records[s] = aggregate_seed_record(
            run_strategy(strategy, episodes,
                         aggregate_seed_config(config, static_cast<int>(s), seeds),
                         evaluator.get()),
            threshold);
      });
  return fold_aggregate(strategy, episodes, threshold, records);
}

std::vector<SpeedupReport> speedup_study(const ExperimentConfig& config,
                                         int seeds, double threshold_fraction) {
  if (seeds <= 0) throw std::invalid_argument("speedup_study: seeds");
  std::vector<SpeedupReport> out(static_cast<std::size_t>(seeds));
  const auto evaluator = make_evaluator(config);
  const auto pool = make_pool(config);
  util::parallel_for_each_index(
      pool.get(), static_cast<std::size_t>(seeds), [&](std::size_t s) {
        out[s] = measure_speedup(
            aggregate_seed_config(config, static_cast<int>(s), seeds),
            threshold_fraction, evaluator.get());
      });
  return out;
}

}  // namespace lcda::core
