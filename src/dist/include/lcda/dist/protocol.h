#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lcda::dist {

/// The coordinator <-> resident-worker pipe protocol, and the only channel
/// between the two: one JSON object per line, format `lcda-worker-cmd-v2`,
/// commands down the worker's stdin and replies, per-seed events and
/// heartbeats up its stdout. Line-delimited so a reader never needs to know
/// a message's length in advance, and JSON so paths with arbitrary bytes
/// survive the trip. A malformed or torn line parses to std::nullopt, never
/// to a crash: the coordinator skips it, an idle worker answers `failed`.
inline constexpr const char* kWorkerCmdFormat = "lcda-worker-cmd-v2";

/// How often a resident worker emits a heartbeat line, so a worker grinding
/// inside one long seed still shows it is alive.
inline constexpr int kHeartbeatMs = 250;

/// Coordinator -> worker. `run` names a shard-spec file to execute and
/// carries the seeds already revoked from that shard (so a retry still
/// honours earlier steals); `revoke` adds seeds the coordinator stole from
/// the spec in flight, which the worker then skips; `shutdown` asks the
/// worker to finish nothing further and exit 0 (the worker also treats
/// stdin EOF as shutdown, so a coordinator crash can never leave an
/// immortal worker reading a closed pipe).
struct WorkerCommand {
  enum class Kind { kRun, kRevoke, kShutdown };
  Kind kind = Kind::kRun;
  std::string spec_path;     ///< kRun only
  std::vector<int> revoked;  ///< kRun and kRevoke: global seed indices

  bool operator==(const WorkerCommand&) const = default;
};

/// Worker -> coordinator. `seed-start` / `seed-done` (with the seed's wall
/// clock) stream the spec's progress; `heartbeat` only proves liveness.
/// The spec then ends in exactly one `done`, carrying the path of the
/// manifest it published, or `failed` with a reason (no manifest, but the
/// worker survived and can take another command).
struct WorkerReply {
  enum class Kind { kSeedStart, kSeedDone, kHeartbeat, kDone, kFailed };
  Kind kind = Kind::kDone;
  int seed = 0;               ///< kSeedStart / kSeedDone
  double wall_ms = 0.0;       ///< kSeedDone
  std::string manifest_path;  ///< kDone only
  std::string reason;         ///< kFailed only

  bool operator==(const WorkerReply&) const = default;
};

/// Serialize to a single newline-terminated JSON line.
[[nodiscard]] std::string encode_worker_command(const WorkerCommand& cmd);
[[nodiscard]] std::string encode_worker_reply(const WorkerReply& reply);

/// Parse one line (with or without its trailing newline). Returns
/// std::nullopt for anything that is not a well-formed v2 message:
/// invalid JSON, wrong/missing format tag, unknown kind, a missing or
/// mistyped field (a `run` without a spec path, a seed that is not a
/// non-negative int, a negative or non-finite wall clock).
[[nodiscard]] std::optional<WorkerCommand> parse_worker_command(
    std::string_view line);
[[nodiscard]] std::optional<WorkerReply> parse_worker_reply(
    std::string_view line);

/// Reassembles complete lines from arbitrary pipe-read chunks. feed()
/// whatever read() returned — message fragments, many messages at once, a
/// torn tail — and next_line() hands back each complete line (without the
/// newline) in order, or std::nullopt while the current line is still
/// partial. The partial tail survives in pending() until its newline
/// arrives, so a message split across reads is never lost or misparsed.
class LineBuffer {
 public:
  void feed(std::string_view chunk) { pending_.append(chunk); }

  [[nodiscard]] std::optional<std::string> next_line();

  /// Bytes received but not yet terminated by a newline.
  [[nodiscard]] const std::string& pending() const { return pending_; }

 private:
  std::string pending_;
};

}  // namespace lcda::dist
