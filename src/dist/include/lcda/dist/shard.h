#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lcda/core/scenario.h"
#include "lcda/util/json_lite.h"

namespace lcda::core {
class PerformanceEvaluator;
}

namespace lcda::dist {

/// Which study a shard carries a slice of. `kRuns` is the CLI's per-seed
/// episode-listing mode (one RunResult per strategy x seed), `kAggregate`
/// and `kSpeedup` are the multi-seed statistics modes
/// (core::run_aggregate / core::speedup_study).
enum class ShardMode { kRuns, kAggregate, kSpeedup };

[[nodiscard]] std::string_view shard_mode_name(ShardMode m);
[[nodiscard]] ShardMode shard_mode_from_name(std::string_view name);

/// A self-contained slice of one study: everything a worker process needs
/// to reproduce its share of the seeds bit-for-bit, serialized as JSON and
/// dispatched to a resident `lcda_run --worker-loop` by path.
///
/// Seeds are GLOBAL indices into the study's seed list, not a worker-local
/// count: the aggregate/speedup modes derive each seed's stream with
/// util::derive_seed(config.seed, s) (order-independent by construction)
/// and the runs mode uses config.seed + s, so any partition of the index
/// set reproduces exactly the runs a single process would have produced.
struct ShardSpec {
  int index = 0;  ///< shard number, 0-based
  int count = 1;  ///< total shards in this study's plan

  ShardMode mode = ShardMode::kRuns;
  core::Scenario scenario;  ///< overrides already applied

  /// Strategy and resolved episode budget (runs/aggregate modes; the
  /// speedup study takes both budgets from the config).
  core::Strategy strategy = core::Strategy::kLcda;
  int episodes = 0;

  /// The study's FULL seed count. Workers replicate the single-process
  /// per-seed parallelism split (core::run_aggregate divides the worker
  /// budget by the total seed count), so a shard's runs match the
  /// reference runs in schedule as well as result.
  int total_seeds = 1;
  std::vector<int> seeds;  ///< global seed indices this shard owns

  /// Which planner study (strategy x episodes entry) this spec slices.
  /// Steal specs inherit it from their parent, so the merger can group a
  /// plan by study without relying on contiguous strategy-major order.
  int study_slot = 0;

  /// Aggregate-mode reward threshold (NaN = none) and speedup-mode
  /// threshold fraction.
  double threshold = std::numeric_limits<double>::quiet_NaN();
  double threshold_fraction = 0.95;

  /// Where the worker writes its result manifest (JSON; see merge.h).
  /// Left empty by the planner; the coordinator assigns it under the
  /// shard directory. Runs-mode manifests carry each run's trace CSV, so
  /// the merged --trace output diffs directly against golden traces.
  std::string result_path;

  /// Where the worker exports its span ring (Chrome trace-event JSON, see
  /// obs/trace.h) after publishing the manifest; empty disables tracing in
  /// the worker. Assigned per attempt by the coordinator when its
  /// trace_spans option is on; lcda_run gathers the files into one merged
  /// timeline. Bookkeeping, like result_path — not part of the checksum.
  std::string trace_path;

  /// Steal provenance: the shard index this spec's seeds were stolen from,
  /// -1 for planner-born shards.
  int stolen_from = -1;

  /// Retry count, rewritten into the spec by the coordinator (0 = first
  /// attempt). LCDA_FAULT's kill and wedge hooks arm on attempt 0 only,
  /// so an injected crash's retry runs clean.
  int attempt = 0;
};

/// ShardSpec <-> JSON (format "lcda-shard-spec-v1"). Round-trips every
/// field; from_json rejects a missing/foreign format tag.
[[nodiscard]] util::Json shard_spec_to_json(const ShardSpec& spec);
[[nodiscard]] ShardSpec shard_spec_from_json(const util::Json& j);

/// Shard spec file I/O. Loading rejects unreadable or malformed files.
[[nodiscard]] ShardSpec load_shard_spec(const std::string& path);
void save_shard_spec(const ShardSpec& spec, const std::string& path);

/// Checksum of a spec's study-identity fields (mode, scenario, strategy,
/// episodes, seed partition, thresholds) — NOT of its bookkeeping (paths,
/// attempt counter). Workers echo it into their manifest;
/// the merger refuses a manifest whose checksum disagrees with the spec,
/// which catches stale result files in a reused shard directory.
[[nodiscard]] std::uint64_t shard_spec_checksum(const ShardSpec& spec);

/// `v` as "0x"-prefixed hex, the form spec and manifest documents carry
/// checksums and fingerprints in.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// One strategy's slice of a study (the planner's input): the strategy and
/// its resolved episode budget.
struct StrategyStudy {
  core::Strategy strategy = core::Strategy::kLcda;
  int episodes = 0;
};

/// Decomposes a study into shard specs: each strategy's seed list is split
/// into at most `shards` balanced contiguous ranges (never more shards
/// than seeds), strategy-major. Deterministic: the same inputs always
/// produce the same partition. result_path is left empty for the
/// coordinator to assign. `shards` >= 1; speedup mode takes a single
/// (ignored) StrategyStudy entry.
[[nodiscard]] std::vector<ShardSpec> plan_shards(
    const core::Scenario& scenario, ShardMode mode,
    const std::vector<StrategyStudy>& strategies, int seeds, int shards,
    double threshold, double threshold_fraction);

/// Runs one shard in-process and returns its result manifest
/// (merge.h: shard_manifest): per-seed summaries in aggregate/speedup mode,
/// full run payloads (JSON trace + CSV text) in runs mode. This is the
/// worker's core, exposed for in-process testing of the merge contract;
/// the worker loop runs the same body, plus revocation checks and
/// per-seed events on its pipe.
///
/// `warm_evaluator` optionally supplies an evaluator that outlives the
/// spec (the resident worker loop passes its warm one so the striped memo
/// stays warm across specs); nullptr builds a fresh one per shard. Safe
/// because both evaluators are content-keyed and thread-safe — sharing
/// scope cannot change a result — and it must match the spec's evaluator
/// configuration, which the loop checks by evaluation fingerprint.
[[nodiscard]] util::Json run_shard(const ShardSpec& spec,
                                   core::PerformanceEvaluator* warm_evaluator =
                                       nullptr);

/// The hidden `lcda_run --worker-loop` entry point: a resident worker that
/// reads lcda-worker-cmd-v2 command lines (protocol.h) from stdin and
/// executes each `run <spec_path>`, streaming seed-start/seed-done events
/// and heartbeats on stdout, skipping seeds a `revoke` took away, and
/// ending each spec with `done <manifest_path>` / `failed <reason>`.
/// Across specs it keeps warm only what is content-keyed and therefore
/// result-neutral: one surrogate evaluator with its striped cost-plan
/// memo, rebuilt when a spec's core::evaluation_fingerprint differs from
/// the one it was built for. Everything stream- or seed-scoped (RNG
/// cursors, run caches, counters, the EvalStore session and the store
/// files it maps) is rebuilt per spec, so a pooled study merges
/// byte-identical to a single-process one. Exits 0 on
/// `shutdown` or stdin EOF, and dies with its parent (PR_SET_PDEATHSIG).
[[nodiscard]] int run_worker_loop();

}  // namespace lcda::dist
