#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "lcda/obs/trace.h"
#include "lcda/store/eval_store.h"

namespace lcda::store {

namespace fs = std::filesystem;

namespace {

struct ScannedInputs {
  std::vector<std::string> readable;    ///< files that opened cleanly
  std::vector<std::string> damaged;     ///< files that failed header checks
  std::vector<SegmentView> views;       ///< parallel to `readable`
  std::size_t index_views = 0;          ///< views[0, index_views) are in index/
};

/// Opens every *.seg under segments/ and index/. A file that vanishes
/// mid-scan (a concurrent compaction finished first) is skipped silently.
ScannedInputs scan_inputs(const std::string& directory) {
  ScannedInputs inputs;
  std::vector<std::string> paths = list_segment_files(directory + "/index");
  const std::size_t index_files = paths.size();
  for (const std::string& path : list_segment_files(directory + "/segments")) {
    paths.push_back(path);
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::string error;
    std::optional<SegmentView> view = SegmentView::open(paths[p], &error);
    if (!view) {
      if (!error.empty()) inputs.damaged.push_back(paths[p]);
      continue;
    }
    if (p < index_files) ++inputs.index_views;
    inputs.readable.push_back(paths[p]);
    inputs.views.push_back(std::move(*view));
  }
  return inputs;
}

}  // namespace

FsckReport fsck(const std::string& directory) {
  FsckReport report;
  const ScannedInputs inputs = scan_inputs(directory);
  report.bad_files = inputs.damaged.size();
  for (std::size_t v = 0; v < inputs.views.size(); ++v) {
    const SegmentView& view = inputs.views[v];
    ++report.files;
    // What the file's name claims, read as EvalStore reads it: bucket
    // names in index/, namespace tags in segments/.
    const std::string_view name = file_name(view.path());
    std::size_t bucket = 0, buckets = 0;
    SegmentName segment;
    const bool is_bucket =
        v < inputs.index_views && parse_bucket_name(name, &bucket, &buckets);
    const bool tagged =
        v >= inputs.index_views && parse_segment_name(name, &segment);
    bool have_prev = false;
    StoreRecord prev;
    for (std::size_t i = 0; i < view.count(); ++i) {
      if (!record_checksum_ok(view.record(i))) {
        ++report.bad_records;
        have_prev = false;  // can't order-check against a corrupt record
        continue;
      }
      StoreRecord record = decode_record(view.record(i));
      if (have_prev && record.key_less(prev)) {
        ++report.bad_records;  // sort-order violation breaks binary probes
      } else if (is_bucket && bucket_of(record.eval_fingerprint,
                                        record.design_hash,
                                        buckets) != bucket) {
        ++report.bad_records;  // lookups for its key skip this bucket
      } else if (tagged &&
                 segment_namespace(record.eval_fingerprint,
                                   record.stream_fingerprint) != segment.ns) {
        ++report.bad_records;  // lookups for its key skip this segment
      }
      prev = std::move(record);
      have_prev = true;
      ++report.records;
    }
  }
  return report;
}

CompactionReport compact_store(const std::string& directory, Budget budget,
                               std::size_t buckets) {
  obs::Span span("store.compact");
  if (buckets == 0) buckets = 1;
  CompactionReport report;
  ScannedInputs inputs = scan_inputs(directory);
  report.input_files = inputs.readable.size();
  report.skipped_files = inputs.damaged.size();

  std::vector<StoreRecord> records;
  for (const SegmentView& view : inputs.views) {
    for (std::size_t i = 0; i < view.count(); ++i) {
      if (!record_checksum_ok(view.record(i))) {
        ++report.corrupt_dropped;
        continue;
      }
      records.push_back(decode_record(view.record(i)));
    }
  }

  // Dedupe re-published full keys, keeping the oldest sequence number so a
  // record's age is stable across arbitrarily many compactions.
  std::sort(records.begin(), records.end(),
            [](const StoreRecord& a, const StoreRecord& b) {
              return a.key_less(b);
            });
  std::vector<StoreRecord> kept;
  kept.reserve(records.size());
  for (StoreRecord& record : records) {
    if (!kept.empty() &&
        kept.back().eval_fingerprint == record.eval_fingerprint &&
        kept.back().design_hash == record.design_hash &&
        kept.back().stream_fingerprint == record.stream_fingerprint) {
      ++report.duplicates_dropped;  // kept.back() has the smaller seq
      continue;
    }
    kept.push_back(std::move(record));
  }

  // Budget: oldest-first eviction by (seq, key) — total order, so the
  // surviving set is a pure function of the input record set.
  std::size_t drop = 0;
  if (budget.max_entries > 0 && kept.size() > budget.max_entries) {
    drop = kept.size() - budget.max_entries;
  }
  if (budget.max_bytes > 0) {
    const std::size_t fixed = buckets * kHeaderSize;
    const std::size_t fit = budget.max_bytes > fixed
                                ? (budget.max_bytes - fixed) / kRecordSize
                                : 0;
    if (kept.size() - drop > fit) drop = kept.size() - fit;
  }
  if (drop > 0) {
    std::vector<std::size_t> order(kept.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (kept[a].seq != kept[b].seq) return kept[a].seq < kept[b].seq;
      return kept[a].key_less(kept[b]);
    });
    std::vector<char> dropped(kept.size(), 0);
    for (std::size_t i = 0; i < drop; ++i) dropped[order[i]] = 1;
    std::vector<StoreRecord> survivors;
    survivors.reserve(kept.size() - drop);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (!dropped[i]) survivors.push_back(std::move(kept[i]));
    }
    kept = std::move(survivors);
    report.evicted = drop;
  }
  report.records_kept = kept.size();

  // Partition the (still sorted) survivors into their buckets and publish
  // every bucket — atomically, BEFORE any input is deleted, so concurrent
  // readers can reach every record at every instant. Empty buckets are
  // published too: the rename wipes stale same-name predecessors.
  std::vector<std::vector<StoreRecord>> parts(buckets);
  for (StoreRecord& record : kept) {
    parts[bucket_of(record.eval_fingerprint, record.design_hash, buckets)]
        .push_back(std::move(record));
  }
  std::error_code ec;
  fs::create_directories(directory + "/index", ec);
  if (ec) {
    throw std::runtime_error("compact_store: cannot create " + directory +
                             "/index: " + ec.message());
  }
  std::unordered_set<std::string> published;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::string path = directory + "/index/" + bucket_name(b, buckets);
    publish_file(path, serialize_segment(parts[b]));
    published.insert(path);
  }

  // Only now unlink the merged inputs (and damaged files — this is the
  // repair pass that actually drops them). A bucket that was just
  // republished under its own name, damaged or not, was replaced by the
  // rename, so it must survive. Live readers keep their mmap'd views.
  for (const auto* paths : {&inputs.readable, &inputs.damaged}) {
    for (const std::string& path : *paths) {
      if (published.count(path) == 0) fs::remove(path, ec);
    }
  }
  return report;
}

}  // namespace lcda::store
