// Scaling study of the batched parallel evaluation engine: wall-clock of
// run_aggregate (8 seeds x NACIM-length runs) at increasing parallelism,
// with a bit-identity check against the sequential baseline. This is the
// acceptance harness for the engine refactor: speedup must come with
// byte-for-byte identical science.
//
// Usage: bench_engine_scaling [seeds] [episodes]
//   LCDA_PARALLELISM caps the sweep's largest setting (0 = all hardware
//   threads, the default). `--json=PATH` archives the sweep —
//   wall-clocks plus aggregate cache_hits/cache_misses — as JSON.
//
// A thin driver over the "paper-energy" scenario.
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/core/stats_runner.h"
#include "lcda/util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace lcda;
  using clock = std::chrono::steady_clock;
  const auto args = core::positional_args(argc, argv);
  const char* usage = "bench_engine_scaling [seeds] [episodes] [--json=PATH]";
  const int seeds = core::positive_count_arg(args, 0, 8, usage);
  const int episodes = core::positive_count_arg(args, 1, 300, usage);
  const int max_par = core::env_parallelism(/*fallback=*/0);

  core::ExperimentConfig cfg = core::scenario_by_name("paper-energy").config;
  cfg.seed = 1;

  auto timed_aggregate = [&](int parallelism) {
    core::ExperimentConfig run_cfg = cfg;
    run_cfg.parallelism = parallelism;
    const auto t0 = clock::now();
    const auto agg = core::run_aggregate(core::Strategy::kNacimRl, episodes,
                                         seeds, run_cfg,
                                         std::numeric_limits<double>::quiet_NaN());
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
        1000.0;
    return std::pair<double, core::AggregateResult>(ms, agg);
  };

  std::printf("# Engine scaling: run_aggregate(NACIM, %d episodes, %d seeds)\n",
              episodes, seeds);
  std::printf("%-12s %12s %10s %14s %12s\n", "parallelism", "wall(ms)",
              "speedup", "final best", "identical");

  const auto [base_ms, base_agg] = timed_aggregate(1);
  std::printf("%-12d %12.1f %9.2fx %14.4f %12s\n", 1, base_ms, 1.0,
              base_agg.final_best.mean(), "baseline");

  util::Json sweep = util::Json::array();
  const auto sweep_row = [](int parallelism, double ms,
                            const core::AggregateResult& agg) {
    util::Json row = util::Json::object();
    row["parallelism"] = parallelism;
    row["wall_ms"] = ms;
    row["final_best_mean"] = agg.final_best.mean();
    row["cache_hits"] = static_cast<long long>(agg.cache_hits);
    row["cache_misses"] = static_cast<long long>(agg.cache_misses);
    row["persistent_hits"] = static_cast<long long>(agg.persistent_hits);
    return row;
  };
  sweep.push_back(sweep_row(1, base_ms, base_agg));

  for (int par = 2; par <= max_par; par *= 2) {
    const auto [ms, agg] = timed_aggregate(par);
    bool identical = agg.final_best.mean() == base_agg.final_best.mean() &&
                     agg.final_best.min() == base_agg.final_best.min() &&
                     agg.final_best.max() == base_agg.final_best.max();
    for (std::size_t e = 0; identical && e < agg.running_best.size(); ++e) {
      identical = agg.running_best[e].mean() == base_agg.running_best[e].mean();
    }
    std::printf("%-12d %12.1f %9.2fx %14.4f %12s\n", par, ms, base_ms / ms,
                agg.final_best.mean(), identical ? "yes" : "NO");
    if (!identical) {
      std::printf("\nFATAL: parallel trace diverged from sequential trace\n");
      return 1;
    }
    sweep.push_back(sweep_row(par, ms, agg));
  }

  if (const std::string json_path = core::json_output_path(argc, argv);
      !json_path.empty()) {
    util::Json doc = util::Json::object();
    doc["experiment"] = "engine_scaling";
    doc["seeds"] = seeds;
    doc["episodes"] = episodes;
    doc["sweep"] = sweep;
    core::write_json_file(doc, json_path);
  }
  return 0;
}
