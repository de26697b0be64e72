#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lcda/core/evaluator.h"
#include "lcda/store/segment.h"

namespace lcda::store {

/// On-disk budget for one store directory. Both caps are 0 = unlimited.
/// Enforced by compaction with oldest-first eviction (per-record sequence
/// numbers round-trip through segments, so age survives merges; EvalStore
/// says what "oldest" means across studies): a save that leaves the store
/// over budget triggers a compaction pass, and `lcda_run --store-compact`
/// applies a budget by hand. Eviction never changes a trace — an evicted
/// entry is simply re-evaluated on the next run, deterministically, to the
/// identical value.
struct Budget {
  std::size_t max_entries = 0;  ///< cap on stored evaluations
  std::size_t max_bytes = 0;    ///< cap on total segment+index bytes
};

/// Content-addressed evaluation store behind `--cache-dir`: a lookup/insert
/// map from design hash to Evaluation that survives across runs.
///
/// On-disk layout under one `directory` shared by every study and worker
/// process (nothing else in it is read):
///
///   segments/seg-<ns>-<pid>-<n>-<hash>.seg   append-only per-process segments
///   index/bucket-<i>-of-<N>.seg              compacted index buckets
///
/// (the name grammar is in segment.h).
///
/// Records are keyed by (eval_fingerprint, design_hash, stream_fingerprint)
/// — the study fingerprint split into its evaluation-identity part (space,
/// evaluator, reward, noise: what legally determines an Evaluation) and its
/// stream-identity part (seed, strategy, episode budget, batch size: what
/// shapes the RNG stream). A full-key hit returns the byte-identical
/// Evaluation the same study computed before. A pair-key hit under a
/// *different* stream (lookup_shared) returns the deterministic part, which
/// the caller re-derives its own accuracy from by replaying the Monte-Carlo
/// draws with its own RNG stream — cross-study reuse that stays bit-exact.
///
/// Shared lookups consult ONLY the compacted index buckets, never live
/// segments: buckets change only under an explicit `--store-compact`, so a
/// run's shared-hit counters can never depend on what a concurrent process
/// published a moment earlier. Full-key lookups consult everything that can
/// hold their key — any record they can find is one this exact study wrote:
/// this run's inserts, the one index bucket bucket_of() names, every live
/// segment named for this study's namespace, and every segment whose name
/// carries no namespace. An open maps exactly those files (all buckets,
/// since keys spread over them) and skips segments named for other studies
/// by name, unopened, which keeps an open's and a lookup's cost independent
/// of how many other studies share the directory. A store numbers its new
/// records after every record of the files it maps, so oldest-first
/// eviction is a time order within one study, and between compacted
/// records and those saved by a later open; between two studies'
/// uncompacted segments it compares each study's own count.
///
/// Saves append one new segment with this run's fresh entries (O(new), not
/// O(store)) and publish it via temp file + atomic rename; they never
/// rewrite existing files. Save failures degrade to a counted stderr
/// warning (save_failures()) instead of throwing — an I/O hiccup at the
/// finish line must not kill the study whose results are already in hand.
///
/// Unusable files (bad magic, checksum mismatch, truncation) are skipped
/// and counted per file (skipped_files()), with one stderr warning per file
/// per process; records that fail their checksum inside an otherwise
/// healthy file are skipped and counted per record (corrupt_records()).
/// Worst case is a cold start, never an abort.
///
/// Not thread-safe; the co-design loop consults one instance from its
/// driving thread. Multi-process safe: segments are immutable after their
/// atomic publish, and compaction keeps every record reachable (new bucket
/// files are published before the merged inputs are deleted; mmap'd views
/// survive the unlink) — concurrent readers, writers and one compactor can
/// share a directory.
class EvalStore {
 public:
  struct Options {
    std::string directory;
    std::uint64_t eval_fingerprint = 0;    ///< evaluation-identity namespace
    std::uint64_t stream_fingerprint = 0;  ///< stream-identity namespace
    /// Ignored. It named the flat-JSON v1 cache file the store used to
    /// import; that migration is gone, so a v1 cache simply runs cold. The
    /// member stays only because the benchmark probe (perfbench/probe.cpp)
    /// still assigns it.
    std::uint64_t legacy_fingerprint = 0;
    Budget budget;
    std::size_t buckets = 16;  ///< index shard count used by compaction
  };

  /// Lookup/byte traffic of one store session, split by namespace:
  /// full-key (this study's own stream) vs shared (cross-study bucket)
  /// outcomes, files binary-searched by both kinds of lookup, record bytes
  /// decoded by probes, and segment bytes published by saves.
  /// Observability only — a warm store shifts these without changing any
  /// result.
  struct Metrics {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t shared_hits = 0;
    std::uint64_t shared_misses = 0;
    std::uint64_t probes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_published = 0;
  };

  explicit EvalStore(Options opts);

  /// Full-key lookup: this study's own namespace, all sources that can
  /// hold it (this run's inserts, index buckets, live segments not named
  /// for another namespace).
  [[nodiscard]] std::optional<core::Evaluation> lookup(
      std::uint64_t design_hash) const;

  /// Cross-study lookup: any stream's record for this evaluation identity
  /// that carries replay parameters. Compacted index buckets only (see the
  /// class comment for why). The returned Evaluation's accuracy fields
  /// belong to the *producing* stream — callers must replay the
  /// Monte-Carlo draws (PerformanceEvaluator::replay_evaluation) before
  /// using it.
  [[nodiscard]] std::optional<core::Evaluation> lookup_shared(
      std::uint64_t design_hash) const;

  /// Records a fresh evaluation under this study's full key. No-op when the
  /// key was already inserted this session. Evaluations whose
  /// invalid_reason exceeds the record's fixed-width capacity are not
  /// persisted (the design re-evaluates deterministically next run).
  void insert(std::uint64_t design_hash, const core::Evaluation& ev);

  /// Publishes this session's new entries as one segment (O(new entries))
  /// and — when a budget is configured and the store looks over it — runs
  /// a compaction pass. Returns false (and counts, and warns once) on I/O
  /// failure instead of throwing.
  bool save();

  [[nodiscard]] const std::string& directory() const { return opts_.directory; }
  /// Entries this session inserted; disk-resident records are not counted
  /// here.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Records dropped by budget compactions this instance triggered.
  [[nodiscard]] std::size_t evictions() const { return evictions_; }
  /// Unusable files skipped at open, among those it maps (buckets, this
  /// study's segments, untagged names); a damaged segment named for
  /// another namespace is never opened, so never counted here.
  [[nodiscard]] std::size_t skipped_files() const { return skipped_files_; }
  /// Records whose checksum failed during this instance's lookups.
  [[nodiscard]] std::size_t corrupt_records() const { return corrupt_records_; }
  /// save() calls that failed and were degraded to a warning.
  [[nodiscard]] std::size_t save_failures() const { return save_failures_; }
  /// This session's lookup/byte traffic (see Metrics).
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

 private:
  struct Entry {
    core::Evaluation evaluation;
    std::uint64_t seq = 0;
    bool published = false;  ///< already in a segment written by this save
  };
  /// One file a lookup of this study can search: an index bucket, a live
  /// segment named for this study's namespace, or a file whose name claims
  /// nothing. The mapping lives exactly as long as this store; segments
  /// named for other namespaces are never opened.
  struct MappedFile {
    SegmentView view;
    bool is_bucket = false;
    std::size_t bucket_index = 0;
    std::size_t bucket_count = 1;
  };

  void open_directory();
  [[nodiscard]] std::optional<core::Evaluation> probe_file(
      const MappedFile& file, std::uint64_t design_hash, bool shared) const;
  [[nodiscard]] bool over_budget_estimate() const;

  Options opts_;
  std::uint64_t namespace_ = 0;  ///< segment_namespace of this study's key
  std::vector<MappedFile> files_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t next_seq_ = 0;  ///< after every record of files_
  std::size_t evictions_ = 0;
  std::size_t skipped_files_ = 0;
  mutable std::size_t corrupt_records_ = 0;
  std::size_t save_failures_ = 0;
  mutable Metrics metrics_;  ///< lookup() is const; counting is not a result
};

/// Integrity report of `lcda_run --store-fsck` / fsck().
struct FsckReport {
  std::size_t files = 0;        ///< segment/bucket files scanned
  std::size_t records = 0;      ///< records whose checksum verified
  std::size_t bad_files = 0;    ///< unusable files (header/size/magic)
  /// Checksum or sort-order violations, and records whose file's name
  /// places them wrongly (lookups skip files by name, so none could ever
  /// find such a record).
  std::size_t bad_records = 0;
  [[nodiscard]] bool clean() const { return bad_files == 0 && bad_records == 0; }
};

/// Full-scan verification of every segment and index bucket under
/// `directory`: header integrity, per-record checksums, sort order, and
/// every claim a file's name makes — each record of `bucket-<i>-of-<N>.seg`
/// in bucket <i> by bucket_of(), each record of a tagged segment in its
/// namespace.
/// Read-only; safe against live writers (a file that vanishes mid-scan is
/// skipped silently, not counted as damage).
[[nodiscard]] FsckReport fsck(const std::string& directory);

/// Result of one compaction pass.
struct CompactionReport {
  std::size_t input_files = 0;        ///< segments + old buckets merged
  std::size_t skipped_files = 0;      ///< unreadable inputs dropped whole
  std::size_t records_kept = 0;
  std::size_t duplicates_dropped = 0;  ///< same full key republished
  std::size_t corrupt_dropped = 0;     ///< failed per-record checksum
  std::size_t evicted = 0;             ///< dropped oldest-first for budget
};

/// Merges every segment and bucket under `directory` into `buckets` fresh
/// index buckets: drops corrupt records (skip-and-count), dedupes records
/// republished under the same full key (keeping the oldest sequence
/// number), and enforces `budget` oldest-first. It reads every file
/// whatever its name claims, so a record fsck finds in the wrong file
/// lands in its own bucket. Safe with live readers and writers: new
/// buckets are published atomically BEFORE the merged inputs are unlinked,
/// so every record stays reachable at every instant, and a segment
/// published concurrently with the pass simply survives to the next one.
/// Throws std::runtime_error only when the directory itself is unusable
/// (cannot create/publish the index).
CompactionReport compact_store(const std::string& directory, Budget budget,
                               std::size_t buckets);

}  // namespace lcda::store
