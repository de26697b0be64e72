#include "lcda/store/eval_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::store {

namespace fs = std::filesystem;

namespace {

/// One stderr warning per file path per process: a store maps many files
/// and several EvalStore instances per run (aggregate seed fan-out) map the
/// same ones, so an unusable file must not spam a warning per instance.
void warn_once(const std::string& path, const std::string& message) {
  static std::mutex mutex;
  static std::unordered_set<std::string> warned;
  std::lock_guard<std::mutex> lock(mutex);
  if (warned.insert(path).second) {
    std::fprintf(stderr, "EvalStore: %s\n", message.c_str());
  }
}

std::uint64_t pair_shard(std::uint64_t eval_fp, std::uint64_t design_hash,
                         std::size_t buckets) {
  return util::hash_combine(eval_fp, design_hash) %
         static_cast<std::uint64_t>(buckets);
}

/// Process-wide cache of mmap'd segment views, keyed by path and validated
/// by inode identity. Only *live segment files* are cacheable: their names
/// embed pid+counter+content-hash, so a path is never reused for different
/// bytes and a (ino, size, mtime) match IS the file on disk. Index buckets
/// are explicitly NOT cached — compaction rename-replaces them at fixed
/// paths, and on filesystems that recycle inode numbers a later bucket
/// generation can land on a freed inode with equal size inside the same
/// timestamp tick, making (ino, size, mtime) collide across generations
/// and the cache serve a pre-publication view whose records have since
/// moved out of the (now unlinked) input segments. This is what keeps a
/// resident worker's store effectively open across specs (and across the
/// per-seed EvalStore instances of one aggregate run): the O(files)
/// directory listing still happens per open, so the visible file set and
/// every counter match a cold open exactly, but re-mapping and re-reading
/// segment headers does not (buckets are few — one mmap each per open).
///
/// A stat that fails, or a view that fails to open, evicts the path. The
/// cache is capped; overflowing it just drops warm state (correctness
/// never depends on a cache hit). Thread-safe: several worker threads may
/// construct EvalStores concurrently, and SegmentView is read-only.
class SegmentViewCache {
 public:
  /// Mirrors SegmentView::open's contract: nullptr with empty `*error`
  /// means "file vanished" (not damage), nullptr with a message means an
  /// unusable file.
  std::shared_ptr<const SegmentView> open(const std::string& path,
                                          std::string* error,
                                          bool cacheable) {
    if (!cacheable) {
      std::optional<SegmentView> view = SegmentView::open(path, error);
      if (!view) return nullptr;
      return std::make_shared<const SegmentView>(std::move(*view));
    }
    struct ::stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      cache_.erase(path);
      if (error != nullptr) error->clear();  // vanished, like a lost race
      return nullptr;
    }
    const Identity id{st.st_ino, static_cast<std::uint64_t>(st.st_size),
                      static_cast<std::int64_t>(st.st_mtim.tv_sec),
                      static_cast<std::int64_t>(st.st_mtim.tv_nsec)};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = cache_.find(path);
      if (it != cache_.end() && it->second.identity == id) {
        if (error != nullptr) error->clear();
        return it->second.view;
      }
    }
    std::optional<SegmentView> view = SegmentView::open(path, error);
    if (!view) {
      std::lock_guard<std::mutex> lock(mutex_);
      cache_.erase(path);
      return nullptr;
    }
    auto shared = std::make_shared<const SegmentView>(std::move(*view));
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_.size() >= kMaxCached && cache_.count(path) == 0) {
      cache_.clear();  // crude, rare, and only costs warmth
    }
    cache_[path] = CachedView{id, shared};
    return shared;
  }

 private:
  struct Identity {
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::int64_t mtime_s = 0;
    std::int64_t mtime_ns = 0;
    bool operator==(const Identity& o) const {
      return ino == o.ino && size == o.size && mtime_s == o.mtime_s &&
             mtime_ns == o.mtime_ns;
    }
  };
  struct CachedView {
    Identity identity;
    std::shared_ptr<const SegmentView> view;
  };

  static constexpr std::size_t kMaxCached = 1024;
  std::mutex mutex_;
  std::unordered_map<std::string, CachedView> cache_;
};

std::shared_ptr<const SegmentView> open_segment_cached(const std::string& path,
                                                       std::string* error,
                                                       bool cacheable) {
  static SegmentViewCache cache;
  return cache.open(path, error, cacheable);
}

}  // namespace

EvalStore::EvalStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.directory.empty()) {
    throw std::invalid_argument("EvalStore: empty directory");
  }
  if (opts_.buckets == 0) opts_.buckets = 1;
  open_directory();
}

void EvalStore::open_directory() {
  obs::Span span("store.open");
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
  const std::uint64_t entry_next_seq = next_seq_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const bool last_attempt = attempt == 3;
    files_.clear();
    next_seq_ = entry_next_seq;
    std::vector<std::string> paths =
        list_segment_files(opts_.directory + "/index");
    const std::size_t index_files = paths.size();
    for (const std::string& path :
         list_segment_files(opts_.directory + "/segments")) {
      paths.push_back(path);
    }
    bool vanished = false;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      // Buckets live at fixed rename-replaced paths, so their views must
      // be opened fresh (see SegmentViewCache); immutable segments are
      // served warm.
      const bool cacheable = p >= index_files;
      std::string error;
      std::shared_ptr<const SegmentView> view =
          open_segment_cached(paths[p], &error, cacheable);
      if (!view) {
        if (!error.empty()) {
          // Unusable file: skip it (counted, warned once per process) and
          // run cold on whatever it held instead of aborting — a
          // distributed shard retry must be able to get past a bad file,
          // and the next --store-compact drops it.
          ++skipped_files_;
          warn_once(paths[p], "skipping unusable store file: " + error);
        } else if (!last_attempt) {
          // "" means the file vanished under a concurrent compaction,
          // which is not damage — rescan from the listing.
          vanished = true;
          break;
        }
        continue;
      }
      MappedFile file;
      file.bucket_count = 1;
      if (p < index_files) {
        const std::string name = fs::path(paths[p]).filename().string();
        file.is_bucket =
            parse_bucket_name(name, &file.bucket_index, &file.bucket_count);
      }
      next_seq_ = std::max(next_seq_, view->max_seq() + 1);
      file.view = std::move(view);
      files_.push_back(std::move(file));
    }
    if (!vanished) return;
  }
}

std::optional<core::Evaluation> EvalStore::probe_file(
    const MappedFile& file, std::uint64_t design_hash, bool shared) const {
  if (file.is_bucket &&
      pair_shard(opts_.eval_fingerprint, design_hash, file.bucket_count) !=
          file.bucket_index) {
    return std::nullopt;
  }
  const SegmentView& view = *file.view;
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
  // Upper-bound estimate from open-time file headers plus this session's
  // published entries; duplicates across segments inflate it, which only
  // makes compaction run a pass it would otherwise skip — never miss one.
  std::size_t records = 0, bytes = 0;
  for (const MappedFile& file : files_) {
    records += file.view->count();
    bytes += kHeaderSize + file.view->count() * kRecordSize;
  }
  std::size_t published = 0;
  for (const auto& [hash, entry] : entries_) {
    if (entry.published) ++published;
  }
  records += published;
  bytes += published * kRecordSize + (published > 0 ? kHeaderSize : 0);
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
      static std::atomic<unsigned long> segment_counter{0};
      const std::string path =
          opts_.directory + "/segments/seg-" +
          std::to_string(static_cast<long>(::getpid())) + "-" +
          std::to_string(segment_counter.fetch_add(1)) + "-" +
          util::hex_u64(content_hash) + ".seg";
      publish_file(path, bytes);
      metrics_.bytes_published += bytes.size();
    } catch (const std::exception& e) {
      // A study's results are already in hand by the time it saves; an I/O
      // failure here degrades to a counted warning (mirroring the
      // load-side skip-and-count rule) instead of killing the run. The
      // entries stay unpublished, so a later save retries.
      ++save_failures_;
      warn_once(opts_.directory + "/save",
                std::string("save failed (cache not persisted): ") + e.what());
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
      warn_once(opts_.directory + "/compact",
                std::string("budget compaction failed: ") + e.what());
      observe_save();
      return false;
    }
  }
  observe_save();
  return true;
}

}  // namespace lcda::store
