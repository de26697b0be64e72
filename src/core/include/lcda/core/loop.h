#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "lcda/core/evaluator.h"
#include "lcda/core/reward.h"
#include "lcda/search/optimizer.h"
#include "lcda/util/rng.h"

namespace lcda::store {
class EvalStore;
}  // namespace lcda::store

namespace lcda::core {

/// One completed episode of the co-design loop.
struct EpisodeRecord {
  int episode = 0;
  search::Design design;
  double accuracy = 0.0;
  double energy_pj = 0.0;
  double latency_ns = 0.0;
  double area_mm2 = 0.0;
  double reward = 0.0;
  bool valid = false;
};

/// Store-level traffic counters mirrored out of store::EvalStore after a
/// run (core cannot depend on the store layer, so the shape is duplicated
/// here): full-key and shared-namespace lookup outcomes, files probed, and
/// bytes moved.
/// Real measurements of where answers came from, NOT part of a run's
/// deterministic result — a warm store turns misses into hits without
/// changing a single trace byte, which is exactly what these counters
/// exist to make observable.
struct StoreMetrics {
  std::int64_t hits = 0;            ///< full-key (own-stream) lookup hits
  std::int64_t misses = 0;          ///< full-key lookup misses
  std::int64_t shared_hits = 0;     ///< shared-namespace (bucket) hits
  std::int64_t shared_misses = 0;   ///< shared-namespace misses
  std::int64_t probes = 0;          ///< files binary-searched by lookups
  std::int64_t bytes_read = 0;      ///< record bytes decoded by probes
  std::int64_t bytes_published = 0; ///< segment bytes written by saves
};

/// Result of a full co-design run.
struct RunResult {
  std::vector<EpisodeRecord> episodes;
  int best_episode = -1;

  /// Evaluation-cache traffic: hits are episodes whose design was already
  /// evaluated (earlier episode or same batch) and reused its Evaluation;
  /// persistent_hits are episodes served byte-identically from the on-disk
  /// store under this study's own key (counted separately from both hits
  /// and misses). persistent_shared_hits are episodes served from ANOTHER
  /// study's record in the same evaluation-identity namespace: the
  /// deterministic part came from disk and the Monte-Carlo accuracy was
  /// replayed with this run's own RNG stream, so the trace still matches a
  /// cold run bit for bit. persistent_evictions counts records budget
  /// compactions dropped (filled in after the post-run save);
  /// persistent_skipped counts unusable store files (corrupt, foreign
  /// format, truncated) the run skipped, and persistent_save_failures
  /// counts saves that failed and were degraded to a warning — loudly
  /// visible here instead of either aborting a whole distributed worker or
  /// being silently treated as a cold start.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t persistent_hits = 0;
  std::int64_t persistent_shared_hits = 0;
  std::int64_t persistent_evictions = 0;
  std::int64_t persistent_skipped = 0;
  std::int64_t persistent_save_failures = 0;

  /// Store-level lookup/byte traffic for this run's EvalStore session
  /// (all zero when no persistent store was configured).
  StoreMetrics store;

  /// Episodes this run replayed from a checkpoint's round log instead of
  /// re-evaluating. Observability only, like `store`: NOT part of
  /// run_to_json's byte contract, because a resumed run must serialize
  /// byte-identically to an uninterrupted one.
  std::int64_t resumed_episodes = 0;

  /// Best episode, or a sentinel record (episode == -1, reward == -inf)
  /// when the run recorded no episodes.
  [[nodiscard]] const EpisodeRecord& best() const;

  /// Reward of best(); -inf when the run recorded no episodes.
  [[nodiscard]] double best_reward() const;

  /// Running maximum of the reward (what Fig. 3 projects).
  [[nodiscard]] std::vector<double> reward_running_max() const;

  /// First episode whose reward reaches `threshold`, or -1 if never.
  [[nodiscard]] int episodes_to_reach(double threshold) const;
};

/// The cache counters every serialized run and aggregate carries, in
/// document order (persistent_evictions is never serialized). Calls
/// `f(key, field...)` once per counter with that field of each struct in
/// `s`, so one list drives the JSON writers and readers, copies and sums.
template <typename F, typename... S>
void for_each_cache_counter(F&& f, S&... s) {
  f("cache_hits", s.cache_hits...);
  f("cache_misses", s.cache_misses...);
  f("persistent_hits", s.persistent_hits...);
  f("persistent_shared_hits", s.persistent_shared_hits...);
  f("persistent_skipped", s.persistent_skipped...);
  f("persistent_save_failures", s.persistent_save_failures...);
}

/// One finalized round's replay record — the unit of the checkpoint
/// subsystem's round log. It carries exactly what the round's evaluator
/// produced (the unique cache misses, in job order); everything else a
/// round did (optimizer mutations, RNG evolution, cache/duplicate decisions,
/// counters, records, feedback) is recomputed by replaying the round
/// through the normal planning path with these evaluations injected, so a
/// replayed round is bit-identical to the live one by construction.
struct RoundDelta {
  int first_episode = 0;
  std::vector<std::uint64_t> job_hashes;  ///< unique misses, job order
  std::vector<Evaluation> job_evals;      ///< their results, same order
};

/// What Options::on_snapshot receives once the run completes: every round
/// is already in the round log by then, so the episode count is all that
/// is left to say.
struct LoopSnapshot {
  int next_episode = 0;
};

/// Algorithm 2: LCDA(Model, Choices, EP, f).
///
/// Drives `optimizer` for `episodes` episodes in propose -> evaluate ->
/// feedback rounds. Each round asks the optimizer for a batch of proposals
/// (see Optimizer::propose_batch), fans their evaluations out over a thread
/// pool, and feeds the observations back in proposal order.
///
/// Determinism: identical results for every `parallelism` setting and for
/// every `pipeline_depth`. All random streams (proposals, per-episode
/// evaluation RNGs) are drawn on the driving thread in episode order before
/// any evaluation starts, and cache decisions are made at the same point,
/// so worker scheduling can never reorder a draw. Pipelined operation only
/// proposes ahead of in-flight evaluations when the optimizer declares its
/// proposal stream feedback-free (Optimizer::pipeline_lookahead), and
/// duplicates of still-evaluating designs resolve to the pending result, so
/// traces and cache counters match the strict schedule bit for bit.
/// `evaluator.evaluate` must tolerate concurrent calls with distinct RNGs
/// (both shipped evaluators do: they only touch local or internally
/// synchronized state).
class CodesignLoop {
 public:
  struct Options {
    int episodes = 20;  ///< the paper's EP

    /// Worker threads for evaluations. 1 = sequential (no pool); 0 = one
    /// per hardware thread. Does not change results, only wall-clock.
    int parallelism = 1;

    /// Proposals per round. 0 = auto: the optimizer's preferred_batch(),
    /// falling back to scalar rounds for optimizers with no preference
    /// (never to `parallelism` — batch composition must stay independent
    /// of the thread count or traces would diverge). Explicit values are
    /// still capped by the optimizer's preference, so a strictly
    /// sequential optimizer (LlmOptimizer) always runs scalar.
    std::size_t batch_size = 0;

    /// Reuse the Evaluation of a previously seen design (keyed on
    /// Design::hash) instead of re-evaluating. Population-based searches
    /// revisit designs constantly; hits surface in RunResult::cache_hits.
    bool cache_evaluations = true;

    /// Pipelined propose/evaluate overlap: how many rounds beyond the one
    /// currently evaluating the driving thread may propose and plan ahead,
    /// keeping the pool fed across round boundaries. Engages only when the
    /// optimizer grants lookahead (Optimizer::pipeline_lookahead() > 0 —
    /// i.e. its proposal stream provably ignores feedback) and a pool
    /// exists, so it can NEVER change a trace: RNG streams are still drawn
    /// on the driving thread in episode order, feedback is still delivered
    /// in round order, and duplicates of still-in-flight designs resolve to
    /// the pending evaluation exactly as same-batch duplicates do. 0
    /// disables pipelining.
    std::size_t pipeline_depth = 8;

    /// Optional on-disk evaluation store consulted after the in-memory
    /// cache (only when cache_evaluations is on) and filled with every
    /// fresh evaluation. Full-key hits are reused as-is; shared-namespace
    /// hits (another study's record for the same evaluation identity) are
    /// replayed through the evaluator with this run's own RNG stream, so
    /// either way the trace matches a cold run bit for bit. Not owned; the
    /// owner saves it after the run. The loop touches it only from the
    /// driving thread.
    store::EvalStore* persistent_store = nullptr;

    /// Called after each episode (progress reporting in benches/examples).
    /// Invoked on the driving thread, in episode order, after the episode's
    /// batch has been evaluated.
    std::function<void(const EpisodeRecord&)> on_episode;

    /// Any positive value turns checkpointing on; 0 disables it. It sets no
    /// cadence: every finalized round goes to on_round, and on_snapshot
    /// fires once, when the run completes. Logging never changes a trace
    /// byte.
    int checkpoint_every = 0;

    /// Completion sink (the ckpt module's RunCheckpointer). Driving thread.
    std::function<void(const LoopSnapshot&)> on_snapshot;

    /// Round-log sink: one finalized round's delta, in round order, from
    /// episode 0 — replayed rounds included, so every log is a whole
    /// history. Driving thread.
    std::function<void(const RoundDelta&)> on_round;

    /// Rounds loaded by the checkpoint layer; empty = cold start. Not
    /// owned. The loop replays them from the fresh optimizer and RNG it
    /// was given; a round that does not match its record is evaluated
    /// live from there on — the loop never aborts on checkpoint problems.
    std::span<const RoundDelta> resume;
  };

  CodesignLoop(search::Optimizer& optimizer, PerformanceEvaluator& evaluator,
               RewardFunction reward, Options opts);

  /// Runs the loop to completion. Deterministic given `rng`'s seed.
  [[nodiscard]] RunResult run(util::Rng& rng);

 private:
  [[nodiscard]] std::size_t effective_batch(std::size_t remaining) const;

  search::Optimizer* optimizer_;
  PerformanceEvaluator* evaluator_;
  RewardFunction reward_;
  Options opts_;
};

}  // namespace lcda::core
