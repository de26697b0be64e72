#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/core/evaluator.h"
#include "lcda/util/mmap_file.h"

namespace lcda::store {

/// Binary segment file format ("lcda-store-v2"). A segment is an immutable,
/// atomically published file holding fixed-width evaluation records sorted
/// by (eval_fingerprint, design_hash, stream_fingerprint, seq):
///
///   [32-byte header][record 0][record 1]...[record count-1]
///
/// header:  magic "LCDASTR2" | u64 count | u64 max_seq | u64 fnv1a64 of the
///          first 24 bytes
/// record:  328 bytes, all integers little-endian, doubles as IEEE-754 bit
///          patterns (bit-exact round trips — the property that keeps warm
///          reruns trace-identical), terminated by a u64 fnv1a64 checksum
///          of the record's first 320 bytes.
///
/// Both the per-process append segments (`segments/`) and the compacted
/// index buckets (`index/`) use this one format; a bucket is just a segment
/// whose record set is the bucket's partition of the whole store.
///
/// File names are part of the format, because readers skip files by name:
///
///   segments/seg-<ns>-<pid>-<n>-<hash>.seg   a live segment
///   index/bucket-<i>-of-<N>.seg              a compacted index bucket
///
/// <ns> and <hash> are 16 lowercase hex digits; <pid>, <n>, <i> and <N> are
/// decimal without leading zeros. A live segment holds the records of one
/// (evaluation, stream) namespace, and <ns> is segment_namespace() of it, so
/// a full-key lookup skips every segment named for another namespace. A
/// bucket holds exactly the records bucket_of() places in bucket <i> of <N>,
/// so a lookup skips every bucket but its key's. Any other name (an older
/// store's `seg-<pid>-<n>-<hash>.seg`, a hand-copied file) claims nothing
/// and is probed by every lookup. The formatters below write every name,
/// and each parser accepts exactly the names its formatter writes.
inline constexpr char kSegmentMagic[8] = {'L', 'C', 'D', 'A',
                                          'S', 'T', 'R', '2'};
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kRecordSize = 328;
/// Capacity of a record's inline invalid_reason text. Evaluations whose
/// reason exceeds it are simply not persisted (the design is re-evaluated
/// deterministically on the next run), keeping records fixed-width.
inline constexpr std::size_t kMaxReason = 96;

/// One decoded store record: the three-part content key, the insertion
/// sequence number (smaller = older; the compactor's oldest-first eviction
/// order), and the evaluation payload. `evaluation.has_replay_params`
/// round-trips through a record flag, so cross-study consumers know whether
/// the deterministic part supports a Monte-Carlo replay.
struct StoreRecord {
  std::uint64_t eval_fingerprint = 0;
  std::uint64_t design_hash = 0;
  std::uint64_t stream_fingerprint = 0;
  std::uint64_t seq = 0;
  core::Evaluation evaluation;

  /// Key order used throughout the store (sorting, probing, dedupe).
  [[nodiscard]] bool key_less(const StoreRecord& other) const {
    if (eval_fingerprint != other.eval_fingerprint) {
      return eval_fingerprint < other.eval_fingerprint;
    }
    if (design_hash != other.design_hash) return design_hash < other.design_hash;
    if (stream_fingerprint != other.stream_fingerprint) {
      return stream_fingerprint < other.stream_fingerprint;
    }
    return seq < other.seq;
  }
};

/// True when `record` fits the fixed-width layout (its invalid_reason text
/// is at most kMaxReason bytes).
[[nodiscard]] bool record_encodable(const StoreRecord& record);

/// Encodes `record` into exactly kRecordSize bytes at `out` (checksum
/// included). Pre-condition: record_encodable(record).
void encode_record(const StoreRecord& record, std::uint8_t* out);

/// Decodes the record at `bytes` (kRecordSize long). Does NOT verify the
/// checksum — call record_checksum_ok first.
[[nodiscard]] StoreRecord decode_record(const std::uint8_t* bytes);

/// Verifies the trailing checksum of the record at `bytes`.
[[nodiscard]] bool record_checksum_ok(const std::uint8_t* bytes);

/// Read view over one mmap'd segment file: zero-copy binary probes into the
/// sorted record array. open() validates the header (magic, version, count
/// vs file size, header checksum); per-record checksums are verified lazily
/// by the probe's caller, so opening a store costs O(files), not O(records).
class SegmentView {
 public:
  /// Maps and validates `path`. On failure returns std::nullopt and, if
  /// `error` is non-null, a one-line reason ("" means the file vanished —
  /// ENOENT, the live-compaction race — which callers skip silently).
  [[nodiscard]] static std::optional<SegmentView> open(const std::string& path,
                                                      std::string* error);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max_seq() const { return max_seq_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Pointer to record `i`'s bytes (kRecordSize long).
  [[nodiscard]] const std::uint8_t* record(std::size_t i) const {
    return file_.data() + kHeaderSize + i * kRecordSize;
  }

  /// First index whose key is >= (eval_fp, design_hash, 0), i.e. the start
  /// of that pair's run of records; count() when past the end.
  [[nodiscard]] std::size_t lower_bound(std::uint64_t eval_fp,
                                        std::uint64_t design_hash) const;

  /// True when record `i` carries exactly this (eval_fp, design_hash) pair.
  [[nodiscard]] bool matches_pair(std::size_t i, std::uint64_t eval_fp,
                                  std::uint64_t design_hash) const;

 private:
  util::MmapFile file_;
  std::string path_;
  std::size_t count_ = 0;
  std::uint64_t max_seq_ = 0;
};

/// Serializes `records` (must already be sorted by StoreRecord::key_less)
/// into a segment byte buffer, header and checksums included.
[[nodiscard]] std::vector<std::uint8_t> serialize_segment(
    const std::vector<StoreRecord>& records);

/// Sorted list of the "*.seg" files directly under `directory` (which may
/// not exist — empty result). Sorted so every reader maps files in one
/// deterministic order.
[[nodiscard]] std::vector<std::string> list_segment_files(
    const std::string& directory);

/// Namespace tag of a live segment holding the records of one (evaluation,
/// stream) fingerprint pair.
[[nodiscard]] std::uint64_t segment_namespace(std::uint64_t eval_fp,
                                              std::uint64_t stream_fp);

/// The fields of a live segment's name: its namespace tag, the writing
/// process, that process's segment counter and the file's content hash.
struct SegmentName {
  std::uint64_t ns = 0;
  std::uint64_t pid = 0;
  std::uint64_t n = 0;
  std::uint64_t hash = 0;
};

/// "seg-<ns>-<pid>-<n>-<hash>.seg".
[[nodiscard]] std::string segment_name(const SegmentName& name);

/// Parses a filename that segment_name() writes; false for any other name,
/// the older untagged "seg-<pid>-<n>-<hash>.seg" included. Never allocates.
[[nodiscard]] bool parse_segment_name(std::string_view filename,
                                      SegmentName* name);

/// Index bucket of the (eval_fp, design_hash) pair among `buckets` (> 0).
[[nodiscard]] std::size_t bucket_of(std::uint64_t eval_fp,
                                    std::uint64_t design_hash,
                                    std::size_t buckets);

/// "bucket-<index>-of-<count>.seg".
[[nodiscard]] std::string bucket_name(std::size_t index, std::size_t count);

/// Parses a filename that bucket_name() writes (index < count) into its
/// shard coordinates; false for any other name. Never allocates.
[[nodiscard]] bool parse_bucket_name(std::string_view filename,
                                     std::size_t* index, std::size_t* count);

/// The last component of `path` ("a/b/c.seg" -> "c.seg"), as a view into it.
[[nodiscard]] std::string_view file_name(std::string_view path);

/// Publishes `bytes` as `path` through a uniquely named temp file in the
/// same directory and an atomic rename (concurrent writers can never tear
/// each other). Throws std::runtime_error on I/O failure — EvalStore::save
/// converts that into a counted, non-fatal warning.
void publish_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

}  // namespace lcda::store
