#pragma once

#include <string>
#include <vector>

#include "lcda/dist/shard.h"

namespace lcda::dist {

/// Process-level shard executor, an event-driven scheduler over a
/// persistent worker pool: each of the `max_parallel` slots IS a resident
/// `<worker_command> --worker-loop` process, and its stdin/stdout pipe
/// (lcda-worker-cmd-v2, protocol.h) is the only channel between the two.
/// Shard specs go down as `run` commands; seed-start/seed-done events,
/// heartbeats and the final `done` / `failed` reply come back up, in
/// order, on the same pipe. Fork/exec, store open and evaluator memo
/// warm-up are paid once per slot, not once per shard attempt. The event
/// loop multiplexes those lines with process exits (Subprocess::try_wait —
/// a worker that dies mid-spec is detected the same poll) and blocks in
/// poll(2) on the pipes between scans (no busy loop). A dead or wedged
/// resident worker is simply dropped; the next dispatch to its slot
/// respawns a replacement and the in-flight spec is retried.
///
/// On top of plain execution it mitigates stragglers and dead workers:
///
/// - **Progress tracking.** The seed events tell the coordinator how far
///   each shard has got, and every line a worker writes proves it alive.
/// - **Work stealing.** When a slot is idle and nothing is queued, a
///   shard whose progress has stalled — no seed started or finished for
///   longer than 2 x the median observed per-seed wall, judged only after
///   its first event — has its not-yet-started seeds revoked (a `revoke`
///   command; the worker skips them) and re-dispatched to idle slots as
///   fresh specs. Legal because seed derivation is order-independent and
///   the merger accepts arbitrary partitions; the merged bytes cannot
///   change, only the wall clock. A revoke that arrives after the worker
///   started the seed anyway leaves two byte-identical copies, and the
///   merger keeps the lowest shard index's.
/// - **Health tracking.** A busy worker that writes no line (heartbeats
///   included) for `heartbeat_timeout_ms` is declared dead, stopped
///   (SIGTERM -> grace -> SIGKILL), and its shard retried without waiting
///   for the process to exit.
///
/// A failed shard is retried up to `max_retries` extra attempts before
/// the run gives up with the worker's captured stderr in the error. On
/// success every spec's result_path names a fresh manifest for the
/// merger.
class Coordinator {
 public:
  struct Options {
    /// Program (and any leading arguments) of the worker; the coordinator
    /// appends "--worker-loop". Typically the running lcda_run binary
    /// itself (util::self_executable_path).
    std::vector<std::string> worker_command;

    /// Where shard specs, manifests and span traces live. Created when
    /// missing; the caller owns cleanup.
    std::string shard_dir;

    int max_parallel = 1;  ///< concurrent worker processes (slots)
    int max_retries = 2;   ///< extra attempts per shard after the first

    /// Shard lifecycle narration on stderr (spawn / done / retry / steal
    /// lines).
    bool verbose = true;

    /// Work stealing. A running shard is a straggler when its progress
    /// has STALLED: no seed started or finished for longer than 2 x the
    /// observed median per-seed wall (heartbeats prove liveness, not
    /// progress, and do not reset the clock). The stall bar is floored at
    /// 10 ms so scan jitter on sub-millisecond seeds cannot trip it.
    /// Judging the GAP between events rather than a remaining-wall
    /// projection keeps the detector honest on oversubscribed boxes, where
    /// CPU queueing inflates every projection but healthy shards still
    /// emit events at per-seed cadence. Stealing only happens when a slot
    /// is idle, so it can never slow a saturated study.
    bool enable_steal = true;

    /// How long a busy worker may stay silent — no seed event, reply or
    /// heartbeat (one every kHeartbeatMs) — before it is declared dead; 0
    /// disables reaping.
    int heartbeat_timeout_ms = 10000;

    /// Stamp a per-attempt trace_path into every dispatched spec, so
    /// workers export their span ring (lcda::obs) next to their manifest
    /// and the caller can gather the files into one merged timeline.
    bool trace_spans = false;
  };

  /// Per-shard scheduling record, one per spec in the final plan.
  struct ShardStats {
    int index = 0;
    int stolen_from = -1;    ///< parent shard for steal specs
    int attempts = 1;        ///< dispatches of this shard (one per attempt)
    int slot = -1;           ///< last slot it ran on
    double wall_ms = 0.0;    ///< total busy wall across attempts
    int seeds = 0;           ///< seeds the spec owned at the end
  };

  /// Study-level scheduling outcome, surfaced through `--json` (as the
  /// "dist" object) and the one-line stderr summary.
  struct Stats {
    int planned = 0;    ///< specs at entry
    int spawned = 0;    ///< shard dispatches (one per attempt)
    int pool_workers = 0;  ///< resident worker processes launched (incl.
                           ///< replacements)
    int retries = 0;
    int steals = 0;     ///< steal specs created
    int stolen_seeds = 0;
    /// Straggler-detector visibility: candidates the stall judgement ran
    /// on at all, and candidates over the threshold bar that only the
    /// 10 ms floor suppressed. Both zero distinguishes "detection never
    /// ran" (no idle slot, no running candidate) from a genuinely healthy
    /// study that was judged and passed.
    int steal_considered = 0;
    int steal_suppressed_min_stale = 0;
    int dead_workers = 0;  ///< heartbeat-staleness kills
    std::vector<ShardStats> shards;
  };

  explicit Coordinator(Options opts);

  /// Runs every shard to completion, mutating the plan in place: the
  /// coordinator assigns result (and trace) paths under shard_dir, bumps
  /// attempt counters across retries, and APPENDS the specs it creates by
  /// stealing. After it returns, loading every spec's manifest and merging
  /// yields bytes identical to the single-process study. Throws
  /// std::runtime_error when a shard exhausts its attempts or a worker
  /// cannot be spawned.
  void run(std::vector<ShardSpec>& specs);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Options opts_;
  Stats stats_;
};

}  // namespace lcda::dist
