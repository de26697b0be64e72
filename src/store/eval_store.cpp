#include "lcda/store/eval_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/logging.h"
#include "lcda/util/rng.h"

namespace lcda::store {

namespace fs = std::filesystem;

EvalStore::EvalStore(Options opts)
    : opts_(std::move(opts)),
      namespace_(segment_namespace(opts_.eval_fingerprint,
                                   opts_.stream_fingerprint)) {
  if (opts_.directory.empty()) {
    throw std::invalid_argument("EvalStore: empty directory");
  }
  if (opts_.buckets == 0) opts_.buckets = 1;
  open_directory();
}

void EvalStore::open_directory() {
  obs::Span span("store.open");
  // Maps only what a lookup of this study can search: every index bucket,
  // the live segments named for this study's namespace, and the names that
  // claim no namespace. Another study's segment is skipped by its name,
  // before it is opened, so however many studies share the directory an
  // open maps its own files only (the listing still names them all). The
  // sequence counter and the budget estimate need nothing mapped from the
  // others (see next_seq_ and over_budget_estimate).
  //
  // Index buckets first, then live segments: lookups walk files_ in order,
  // so the compacted (stable) tier is preferred when a record exists in
  // both. Either copy is byte-identical, the order just keeps probes
  // touching the fewest files.
  //
  // A file that vanishes between the listing and its open means a
  // concurrent compaction published new buckets and unlinked its inputs
  // mid-scan — the records are safe, but only in buckets newer than the
  // ones this scan already mapped. Restart the whole scan (listing
  // included) so buckets and segments come from one post-publication
  // generation; a handful of attempts always suffices because each retry
  // needs a *fresh* compaction pass inside a microsecond window.
  //
  // Segments are LISTED before buckets (and still probed after them). A
  // compaction publishes its buckets before it unlinks its input segments,
  // so a segment listing either still names those inputs or was taken
  // after the publication, and then the bucket listing that follows sees
  // the new buckets. Listed the other way round, a whole compaction can
  // slip between the two listings: old buckets, no inputs, nothing
  // vanished — and the moved records are missed.
  const std::uint64_t entry_next_seq = next_seq_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const bool last_attempt = attempt == 3;
    files_.clear();
    next_seq_ = entry_next_seq;
    const std::vector<std::string> segments =
        list_segment_files(opts_.directory + "/segments");
    std::vector<std::string> paths =
        list_segment_files(opts_.directory + "/index");
    const std::size_t index_files = paths.size();
    paths.insert(paths.end(), segments.begin(), segments.end());
    bool vanished = false;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const std::string_view name = file_name(paths[p]);
      MappedFile file;
      if (p < index_files) {
        file.is_bucket =
            parse_bucket_name(name, &file.bucket_index, &file.bucket_count);
      } else if (SegmentName segment; parse_segment_name(name, &segment) &&
                                      segment.ns != namespace_) {
        continue;  // a tagged segment holds its namespace's records only
      }
      std::string error;
      std::optional<SegmentView> view = SegmentView::open(paths[p], &error);
      if (!view) {
        if (!error.empty()) {
          // Unusable file: skip it (counted, warned once per process) and
          // run cold on whatever it held instead of aborting — a
          // distributed shard retry must be able to get past a bad file,
          // and the next --store-compact drops it.
          ++skipped_files_;
          // Keyed by path: the EvalStores of one run (aggregate seed
          // fan-out) all map its buckets, so each warns once per process.
          util::warn_once(paths[p], "store",
                          "skipping unusable store file: " + error);
        } else if (!last_attempt) {
          // "" means the file vanished under a concurrent compaction,
          // which is not damage — rescan from the listing.
          vanished = true;
          break;
        }
        continue;
      }
      next_seq_ = std::max(next_seq_, view->max_seq() + 1);
      file.view = std::move(*view);
      files_.push_back(std::move(file));
    }
    if (!vanished) return;
  }
}

std::optional<core::Evaluation> EvalStore::probe_file(
    const MappedFile& file, std::uint64_t design_hash, bool shared) const {
  if (file.is_bucket &&
      bucket_of(opts_.eval_fingerprint, design_hash, file.bucket_count) !=
          file.bucket_index) {
    return std::nullopt;
  }
  ++metrics_.probes;
  const SegmentView& view = file.view;
  for (std::size_t i = view.lower_bound(opts_.eval_fingerprint, design_hash);
       view.matches_pair(i, opts_.eval_fingerprint, design_hash); ++i) {
    if (!record_checksum_ok(view.record(i))) {
      // Damaged record inside a healthy file: skip it (counted) and keep
      // probing — worst case this key re-evaluates cold. Never fatal.
      ++corrupt_records_;
      continue;
    }
    metrics_.bytes_read += kRecordSize;
    StoreRecord record = decode_record(view.record(i));
    if (shared) {
      if (record.evaluation.has_replay_params) {
        return std::move(record.evaluation);
      }
    } else if (record.stream_fingerprint == opts_.stream_fingerprint) {
      return std::move(record.evaluation);
    }
  }
  return std::nullopt;
}

std::optional<core::Evaluation> EvalStore::lookup(
    std::uint64_t design_hash) const {
  obs::Span span("store.lookup");
  if (const auto it = entries_.find(design_hash); it != entries_.end()) {
    ++metrics_.hits;
    return it->second.evaluation;
  }
  for (const MappedFile& file : files_) {
    if (auto hit = probe_file(file, design_hash, /*shared=*/false)) {
      ++metrics_.hits;
      return hit;
    }
  }
  ++metrics_.misses;
  return std::nullopt;
}

std::optional<core::Evaluation> EvalStore::lookup_shared(
    std::uint64_t design_hash) const {
  obs::Span span("store.lookup");
  // Compacted buckets only — never live segments, never this session's
  // entries. Buckets change only under an explicit --store-compact, so
  // whether a sibling study's record is visible here cannot depend on
  // concurrent-process timing, and shared-hit counters stay deterministic
  // (single-process == distributed, run-to-run).
  for (const MappedFile& file : files_) {
    if (!file.is_bucket) continue;
    if (auto hit = probe_file(file, design_hash, /*shared=*/true)) {
      ++metrics_.shared_hits;
      return hit;
    }
  }
  ++metrics_.shared_misses;
  return std::nullopt;
}

void EvalStore::insert(std::uint64_t design_hash, const core::Evaluation& ev) {
  if (ev.cost.invalid_reason.size() > kMaxReason) return;
  if (entries_.emplace(design_hash, Entry{ev, next_seq_, false}).second) {
    ++next_seq_;
  }
}

bool EvalStore::over_budget_estimate() const {
  if (opts_.budget.max_entries == 0 && opts_.budget.max_bytes == 0) {
    return false;
  }
  // Upper-bound estimate from the sizes of every listed file — other
  // studies' segments, which this store never maps, and the segment this
  // save just published included. Duplicates across files and damaged
  // files inflate it, which only makes compaction run a pass it would
  // otherwise skip — never miss one.
  std::size_t records = 0, bytes = 0;
  for (const char* subdirectory : {"/index", "/segments"}) {
    for (const std::string& path :
         list_segment_files(opts_.directory + subdirectory)) {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(path, ec);
      if (ec) continue;  // unlinked by a concurrent compaction
      bytes += size;
      if (size > kHeaderSize) records += (size - kHeaderSize) / kRecordSize;
    }
  }
  return (opts_.budget.max_entries > 0 && records > opts_.budget.max_entries) ||
         (opts_.budget.max_bytes > 0 && bytes > opts_.budget.max_bytes);
}

bool EvalStore::save() {
  obs::Span span("store.save");
  // Save-latency histogram: once per run, so the per-call registry lock
  // and clock reads are nowhere near a hot path. Inert while metrics are
  // off (the clock is not even read).
  obs::Histogram save_us = obs::Registry::instance().histogram("store.save_us");
  std::int64_t t0_us = 0;
  if (save_us.live()) {
    t0_us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
  }
  const auto observe_save = [&] {
    if (t0_us != 0) {
      save_us.observe(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count() -
                      t0_us);
    }
  };
  std::vector<StoreRecord> fresh;
  for (const auto& [hash, entry] : entries_) {
    if (entry.published) continue;
    StoreRecord record;
    record.eval_fingerprint = opts_.eval_fingerprint;
    record.design_hash = hash;
    record.stream_fingerprint = opts_.stream_fingerprint;
    record.seq = entry.seq;
    record.evaluation = entry.evaluation;
    if (record_encodable(record)) fresh.push_back(std::move(record));
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const StoreRecord& a, const StoreRecord& b) {
              return a.key_less(b);
            });

  if (!fresh.empty()) {
    try {
      fs::create_directories(opts_.directory + "/segments");
      const std::vector<std::uint8_t> bytes = serialize_segment(fresh);
      const std::uint64_t content_hash = util::fnv1a64(std::string_view(
          reinterpret_cast<const char*>(bytes.data()), bytes.size()));
      static std::atomic<std::uint64_t> segment_counter{0};
      const std::string path =
          opts_.directory + "/segments/" +
          segment_name({namespace_, static_cast<std::uint64_t>(::getpid()),
                        segment_counter.fetch_add(1), content_hash});
      publish_file(path, bytes);
      metrics_.bytes_published += bytes.size();
    } catch (const std::exception& e) {
      // A study's results are already in hand by the time it saves; an I/O
      // failure here degrades to a counted warning (mirroring the
      // load-side skip-and-count rule) instead of killing the run. The
      // entries stay unpublished, so a later save retries.
      ++save_failures_;
      util::warn_once(opts_.directory + "/save", "store",
                      std::string("save failed (cache not persisted): ") +
                          e.what());
      observe_save();
      return false;
    }
    for (auto& [hash, entry] : entries_) entry.published = true;
  }

  if (over_budget_estimate()) {
    try {
      const CompactionReport report =
          compact_store(opts_.directory, opts_.budget, opts_.buckets);
      evictions_ += report.evicted;
    } catch (const std::exception& e) {
      ++save_failures_;
      util::warn_once(opts_.directory + "/compact", "store",
                      std::string("budget compaction failed: ") + e.what());
      observe_save();
      return false;
    }
  }
  observe_save();
  return true;
}

}  // namespace lcda::store
