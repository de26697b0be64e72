#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/core/loop.h"
#include "lcda/core/stats_runner.h"
#include "lcda/util/json_lite.h"

namespace lcda::core {

/// JSON serialization of searches — the machine-readable output format of
/// the benchmark harnesses (one object per run, one array entry per
/// episode), for downstream plotting and archival.
[[nodiscard]] util::Json design_to_json(const search::Design& design);
[[nodiscard]] util::Json episode_to_json(const EpisodeRecord& episode);
[[nodiscard]] util::Json run_to_json(const RunResult& run, std::string_view label);

/// A whole experiment: several labelled runs plus shared metadata.
struct LabelledRun {
  std::string label;
  const RunResult* run = nullptr;
};
[[nodiscard]] util::Json experiment_to_json(std::string_view name,
                                            std::uint64_t seed,
                                            const std::vector<LabelledRun>& runs);

/// Multi-seed aggregate of one strategy (core::run_aggregate) as JSON:
/// final-best statistics, per-episode running-best mean/stddev, cache
/// traffic, and episodes-to-threshold when one was supplied.
[[nodiscard]] util::Json aggregate_to_json(const AggregateResult& agg);

/// SpeedupReport's serialized fields in document order: `f(key, field)`
/// once each. speedup_study_to_json and the distributed manifest's speedup
/// entries both walk this list.
template <typename Report, typename F>
void for_each_speedup_field(Report& r, F&& f) {
  f("threshold", r.threshold);
  f("lcda_episodes", r.lcda_episodes);
  f("nacim_episodes", r.nacim_episodes);
  f("lcda_best", r.lcda_best);
  f("nacim_best", r.nacim_best);
}

/// Per-seed LCDA-vs-NACIM speedup reports (core::speedup_study) as JSON:
/// one entry per seed plus the aggregate mean speedup over seeds where
/// both strategies reached the threshold.
[[nodiscard]] util::Json speedup_study_to_json(
    const std::vector<SpeedupReport>& reports);

/// CSV forms of the same results. Aggregate rows are one per episode
/// (label, episode, running-best mean/stddev/min/max across seeds);
/// speedup rows are one per seed.
void write_aggregate_csv(std::ostream& os, const AggregateResult& agg,
                         std::string_view label);
void write_speedup_csv(std::ostream& os,
                       const std::vector<SpeedupReport>& reports,
                       std::string_view label);

/// Writes a pretty-printed JSON document to `path` (throws on I/O failure).
void write_json_file(const util::Json& j, const std::string& path);

/// The JSON output path of a bench invocation: the first `--json=PATH`
/// argument, else "" (no JSON output).
[[nodiscard]] std::string json_output_path(int argc, char** argv);

/// Non-flag command-line arguments in order (everything not starting with
/// "--"), so benches keep their positional seed/count arguments alongside
/// `--json=`.
[[nodiscard]] std::vector<std::string> positional_args(int argc, char** argv);

/// The positional count `args[index]` of a bench invocation, `fallback`
/// when absent. Anything but a positive integer is an argument error, as
/// in lcda_run: it prints the value and `usage` to stderr and exits with
/// status 2, before any other output.
[[nodiscard]] int positive_count_arg(const std::vector<std::string>& args,
                                     std::size_t index, int fallback,
                                     const char* usage);

/// The positional seed `args[index]`, `fallback` when absent. Anything but
/// a non-negative integer is an argument error, as in positive_count_arg.
[[nodiscard]] std::uint64_t seed_arg(const std::vector<std::string>& args,
                                     std::size_t index, std::uint64_t fallback,
                                     const char* usage);

}  // namespace lcda::core
