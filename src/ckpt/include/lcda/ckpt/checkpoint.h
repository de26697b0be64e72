#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/core/loop.h"
#include "lcda/util/bytes.h"

/// lcda::ckpt — crash-resumable checkpoints of a CodesignLoop run.
///
/// A study's checkpoint state lives in `<root>/<hex identity>/` where
/// `identity` is the study fingerprint (config + strategy + episodes), so
/// different studies sharing one --checkpoint-dir never collide and a
/// stale checkpoint from an edited scenario is simply never found.
///
/// The checkpoint is a round log, one file per writer, named
/// `rounds-<pid>-<n>.log` (unique to the writing process and run, so a
/// stolen seed and the late-revoked copy its first worker started anyway
/// never share a file) until the run completes and renames it to
/// `rounds-done.log`:
///
///   magic "LCDARND1" | u64 identity, then one record per finalized round
///   from episode 0 on, [u64 len | u64 fnv1a64(payload) | payload],
///   appended and flushed as the round finalizes.
///
/// A resume replays the longest valid log from a freshly built optimizer
/// and RNG, which re-derives everything else the run holds (optimizer
/// state, RNG cursor, records, counters, the evaluation cache and the store
/// session). The reader stops at the first short, corrupt or out-of-order
/// record, so a tail torn by a crash costs at most the rounds after it —
/// they are re-evaluated live. Every failure degrades with a counted
/// warning, never an abort.
namespace lcda::ckpt {

inline constexpr std::string_view kRoundLogMagic = "LCDARND1";

/// Value codecs, exposed for tests. Each decode returns false (leaving
/// the output unspecified) on a truncated or malformed reader.
void encode_evaluation(util::BinaryWriter& w, const core::Evaluation& ev);
[[nodiscard]] bool decode_evaluation(util::BinaryReader& r, core::Evaluation& ev);

/// Round-log record payload for one finalized round.
[[nodiscard]] std::string encode_round(const core::RoundDelta& delta);
[[nodiscard]] bool decode_round(std::string_view payload, core::RoundDelta& out);

/// `<root>/<16-hex-digit identity>` — the per-study checkpoint directory.
[[nodiscard]] std::filesystem::path study_checkpoint_dir(
    const std::string& root, std::uint64_t identity);

/// The rounds of the study's log with the most valid records, in round
/// order; empty (a cold start) when no log holds any. Never throws on bad
/// file contents.
[[nodiscard]] std::vector<core::RoundDelta> load_resume(
    const std::string& root, std::uint64_t identity);

/// The CodesignLoop checkpoint sink: wire `on_snapshot`/`on_round` into
/// CodesignLoop::Options. Single-threaded (the loop invokes both hooks on
/// the driving thread only).
///
/// on_round appends to this writer's own log, created on the first round;
/// on_snapshot, called once when the run completes, renames it to the
/// completed-log name and deletes the study's other logs, so a finished
/// study holds exactly one.
///
/// Honors the torn-log fault injection (util/fault.h): it truncates the
/// record it targets, then exits the process with status 42 — simulating
/// a crash that tore the file.
class RunCheckpointer {
 public:
  struct Options {
    std::string directory;        ///< checkpoint root (--checkpoint-dir)
    std::uint64_t identity = 0;   ///< study fingerprint
  };

  explicit RunCheckpointer(Options opts);

  void on_snapshot(const core::LoopSnapshot& snap);
  void on_round(const core::RoundDelta& delta);

  /// Completed runs whose log this instance kept as the study's only one.
  [[nodiscard]] int snapshots_written() const { return snapshots_written_; }

 private:
  bool open_log();

  Options opts_;
  std::filesystem::path dir_;
  std::filesystem::path path_;  ///< this writer's log, once opened
  std::ofstream log_;
  std::string record_buf_;      ///< reused record buffer
  bool failed_ = false;         ///< a write failed: the log is not whole
  int snapshots_written_ = 0;
};

}  // namespace lcda::ckpt
