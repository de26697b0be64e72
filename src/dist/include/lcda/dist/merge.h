#pragma once

#include <string>
#include <vector>

#include "lcda/core/stats_runner.h"
#include "lcda/dist/shard.h"
#include "lcda/util/json_lite.h"

namespace lcda::dist {

// Only this module writes and reads result manifests (format
// "lcda-shard-result-v1"): the header, and per mode an entry writer.

/// The result manifest of `spec`: the header load_shard_manifest checks,
/// the `entries` the *_entry writers below built, and `obs`, the shard's
/// metrics delta (lcda-metrics-v1). No merge reads `obs`, so the store
/// traffic and resumed episodes it carries never change a merged byte.
[[nodiscard]] util::Json shard_manifest(const ShardSpec& spec,
                                        util::Json entries, util::Json obs);

/// Loads the result manifest `spec.result_path` points at and verifies it
/// belongs to this spec: format tag, shard index, mode, and the spec
/// checksum the worker echoed back — a stale manifest in a reused shard
/// directory fails here instead of corrupting a merge. Throws
/// std::runtime_error on a missing/unreadable/foreign manifest.
[[nodiscard]] util::Json load_shard_manifest(const ShardSpec& spec);

/// An aggregate-mode entry: seed `seed`'s record, its doubles rendered
/// shortest-round-trip so they come back bit-exact. threshold_episode is
/// written only when `threshold` (the spec's) was requested, and
/// resumed_episodes never: it travels in the "obs" delta.
[[nodiscard]] util::Json aggregate_entry(
    int seed, const core::AggregateSeedRecord& record, double threshold);

/// One AggregateResult per study slot, in plan order, byte-identical to
/// core::run_aggregate's: the entries decode into the same per-seed
/// records and go through the same core::fold_aggregate. A slot's specs
/// must share one strategy, episode budget, seed count and threshold, and
/// its seed partition must cover 0..total_seeds-1 exactly once.
[[nodiscard]] std::vector<core::AggregateResult> merge_aggregate(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

/// A speedup-mode entry: seed `seed`'s report (core::for_each_speedup_field).
[[nodiscard]] util::Json speedup_entry(int seed,
                                       const core::SpeedupReport& report);

/// Reassembles a speedup study's per-seed reports in canonical seed order
/// — identical to core::speedup_study over the same config and seeds.
[[nodiscard]] std::vector<core::SpeedupReport> merge_speedup(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

/// One runs-mode run: the scalars lcda_run's per-run summary lines print,
/// plus the full run JSON (embedded verbatim in experiment documents) and
/// its trace CSV rows when they were built.
struct MergedRun {
  int seed = 0;
  std::string label;
  long long episodes = 0;
  util::Json run_json;  ///< null unless built
  std::string csv;      ///< empty unless built
  double best_reward = 0.0;
  int best_episode = -1;
  std::string best_design;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long persistent_hits = 0;
  long long persistent_shared_hits = 0;
  long long persistent_skipped = 0;
  long long persistent_save_failures = 0;
};

/// One finished run as its runs-mode record, the same whether a worker
/// publishes it or lcda_run prints it in-process. `json` and `csv` select
/// whether run_json and csv are built: per episode, each costs about as
/// much as a surrogate episode, so a run without --json or --trace skips
/// them.
[[nodiscard]] MergedRun run_record(int seed, const std::string& label,
                                   const core::RunResult& run, bool json,
                                   bool csv);

/// A runs-mode entry: the record as a worker's manifest carries it.
[[nodiscard]] util::Json run_entry(MergedRun run);

/// Reassembles runs-mode payloads in canonical order — study-major (the
/// planner's strategy order via study_slot), seeds ascending — the order
/// the single-process CLI produces its runs in. `specs` is the full plan
/// after the coordinator ran it, steal-appended specs included; seeds
/// published by two shards (steal races) are arbitrated to the lowest
/// shard index, and each study's partition must cover its seed range
/// exactly.
[[nodiscard]] std::vector<MergedRun> merge_runs(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests);

}  // namespace lcda::dist
