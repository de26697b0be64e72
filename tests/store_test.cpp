// The content-addressed evaluation store: record/segment format, budgets,
// corruption recovery, multi-process safety, and the cross-study shared
// namespace (lookup_shared + Monte-Carlo replay).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/experiment.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/store/eval_store.h"
#include "lcda/store/segment.h"
#include "lcda/util/bytes.h"

namespace {

using namespace lcda;
namespace fs = std::filesystem;

/// A unique fresh temp directory per test.
std::string temp_dir(const char* tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string("lcda_store_test_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// An Evaluation whose every numeric field is a recognizable function of
/// `marker`, with deliberately non-representable decimals so byte-exact
/// round trips are actually exercised.
core::Evaluation make_eval(std::uint64_t marker) {
  const double m = static_cast<double>(marker);
  core::Evaluation ev;
  ev.accuracy = m / 3.0;
  ev.accuracy_stddev = m / 7.0 + 1e-17;
  ev.replay_mean = m / 11.0;
  ev.replay_spread = m / 13.0;
  ev.has_replay_params = true;
  ev.cost.valid = true;
  ev.cost.area_arrays_mm2 = m / 17.0;
  ev.cost.area_buffer_mm2 = m / 19.0;
  ev.cost.area_digital_mm2 = m / 23.0;
  ev.cost.area_noc_mm2 = m / 29.0;
  ev.cost.area_total_mm2 = m / 31.0;
  ev.cost.energy_adc_pj = m / 37.0;
  ev.cost.energy_xbar_pj = m / 41.0;
  ev.cost.energy_dac_pj = m / 43.0;
  ev.cost.energy_digital_pj = m / 47.0;
  ev.cost.energy_buffer_pj = m / 53.0;
  ev.cost.energy_noc_pj = m / 59.0;
  ev.cost.energy_total_pj = m * 6.02e7 / 61.0;
  ev.cost.latency_ns = m * 1e9 / 67.0;
  ev.cost.leakage_mw = m / 71.0;
  ev.cost.programming_energy_pj = m / 73.0;
  ev.cost.weight_sigma = m / 79.0 + 1e-18;
  ev.cost.total_weights = static_cast<long long>(marker * 1001);
  ev.cost.total_cells = static_cast<long long>(marker * 2003);
  ev.cost.max_adc_deficit_bits = static_cast<int>(marker % 5);
  return ev;
}

/// Field-by-field byte equality via the checkpoint codec, which writes
/// every scalar field (replay ones included) as raw bits.
std::string eval_bytes(const core::Evaluation& ev) {
  std::string out;
  util::BinaryWriter w(out);
  ckpt::encode_evaluation(w, ev);
  return out;
}

void expect_same_eval(const core::Evaluation& a, const core::Evaluation& b) {
  EXPECT_EQ(eval_bytes(a), eval_bytes(b));
}

store::EvalStore::Options opts(const std::string& dir,
                               std::uint64_t eval_fp = 0x11,
                               std::uint64_t stream_fp = 0x22) {
  store::EvalStore::Options o;
  o.directory = dir;
  o.eval_fingerprint = eval_fp;
  o.stream_fingerprint = stream_fp;
  return o;
}

std::uintmax_t total_store_bytes(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::vector<std::string> segment_files(const std::string& dir) {
  return store::list_segment_files(dir + "/segments");
}

/// Episode trace only — cache counters legitimately differ between runs.
std::string trace_text(const core::RunResult& run) {
  return core::run_to_json(run, "run").at("trace").dump();
}

// ------------------------------------------------------- record format

TEST(StoreRecord, RoundTripsBitForBit) {
  store::StoreRecord record;
  record.eval_fingerprint = 0xdeadbeefcafef00dULL;
  record.design_hash = 0x0123456789abcdefULL;
  record.stream_fingerprint = 0xfedcba9876543210ULL;
  record.seq = 42;
  record.evaluation = make_eval(9);
  record.evaluation.cost.valid = false;
  record.evaluation.cost.invalid_reason = "area 80.1 mm^2 over budget";

  ASSERT_TRUE(store::record_encodable(record));
  std::uint8_t bytes[store::kRecordSize];
  store::encode_record(record, bytes);
  ASSERT_TRUE(store::record_checksum_ok(bytes));
  const store::StoreRecord back = store::decode_record(bytes);
  EXPECT_EQ(back.eval_fingerprint, record.eval_fingerprint);
  EXPECT_EQ(back.design_hash, record.design_hash);
  EXPECT_EQ(back.stream_fingerprint, record.stream_fingerprint);
  EXPECT_EQ(back.seq, record.seq);
  expect_same_eval(back.evaluation, record.evaluation);

  // Any flipped payload byte fails the checksum.
  bytes[100] ^= 0x01;
  EXPECT_FALSE(store::record_checksum_ok(bytes));
}

TEST(StoreRecord, OverlongInvalidReasonIsNotEncodable) {
  store::StoreRecord record;
  record.evaluation.cost.invalid_reason.assign(store::kMaxReason + 1, 'x');
  EXPECT_FALSE(store::record_encodable(record));
  record.evaluation.cost.invalid_reason.assign(store::kMaxReason, 'x');
  EXPECT_TRUE(store::record_encodable(record));
}

TEST(Segment, BucketNamesParseBackToShardCoordinates) {
  std::size_t index = 99, count = 0;
  EXPECT_TRUE(store::parse_bucket_name("bucket-3-of-16.seg", &index, &count));
  EXPECT_EQ(index, 3u);
  EXPECT_EQ(count, 16u);
  EXPECT_FALSE(store::parse_bucket_name("seg-123-0-abc.seg", &index, &count));
  EXPECT_FALSE(store::parse_bucket_name("bucket-3-of-.seg", &index, &count));
  EXPECT_FALSE(store::parse_bucket_name("bucket-3-of-16.seg.tmp", &index, &count));
}

// --------------------------------------------------------- basic store

TEST(EvalStore, InsertSaveReopenServesByteIdenticalEvaluations) {
  const std::string dir = temp_dir("roundtrip");
  {
    store::EvalStore store(opts(dir));
    for (std::uint64_t h = 1; h <= 5; ++h) store.insert(h, make_eval(h));
    EXPECT_TRUE(store.save());
    EXPECT_EQ(store.save_failures(), 0u);
  }
  ASSERT_EQ(segment_files(dir).size(), 1u);

  store::EvalStore back(opts(dir));
  EXPECT_EQ(back.size(), 0u);  // everything lives on disk now
  for (std::uint64_t h = 1; h <= 5; ++h) {
    const auto hit = back.lookup(h);
    ASSERT_TRUE(hit.has_value()) << "hash " << h;
    expect_same_eval(*hit, make_eval(h));
  }
  EXPECT_FALSE(back.lookup(6).has_value());

  // A different stream must not see these as full-key hits.
  store::EvalStore foreign(opts(dir, 0x11, 0x9999));
  EXPECT_FALSE(foreign.lookup(1).has_value());
}

TEST(EvalStore, SaveWithNothingNewPublishesNothing) {
  const std::string dir = temp_dir("idempotent");
  store::EvalStore store(opts(dir));
  store.insert(1, make_eval(1));
  EXPECT_TRUE(store.save());
  EXPECT_TRUE(store.save());  // no fresh entries: no second segment
  EXPECT_EQ(segment_files(dir).size(), 1u);
  store.insert(2, make_eval(2));
  EXPECT_TRUE(store.save());  // O(new): only the fresh entry is written
  const auto files = segment_files(dir);
  ASSERT_EQ(files.size(), 2u);
}

// ------------------------------------------------------------- budgets

TEST(EvalStore, EntryBudgetEvictsOldestFirstAcrossReopen) {
  const std::string dir = temp_dir("evict_entries");
  store::EvalStore::Options o = opts(dir);
  o.budget = store::Budget{3, 0};
  {
    store::EvalStore store(o);
    for (std::uint64_t h = 1; h <= 5; ++h) store.insert(h, make_eval(h));
    EXPECT_TRUE(store.save());
    EXPECT_EQ(store.evictions(), 2u);
  }
  store::EvalStore back(o);
  EXPECT_FALSE(back.lookup(1).has_value());  // oldest went first
  EXPECT_FALSE(back.lookup(2).has_value());
  EXPECT_TRUE(back.lookup(3).has_value());
  expect_same_eval(*back.lookup(5), make_eval(5));

  // Ages survive compaction: a tightened budget trims the oldest
  // SURVIVORS, even on a warm save with zero inserts.
  o.budget = store::Budget{2, 0};
  store::EvalStore tight(o);
  EXPECT_TRUE(tight.save());
  EXPECT_EQ(tight.evictions(), 1u);
  store::EvalStore after(o);
  EXPECT_FALSE(after.lookup(3).has_value());
  EXPECT_TRUE(after.lookup(4).has_value());
  EXPECT_TRUE(after.lookup(5).has_value());
}

TEST(EvalStore, ByteBudgetBoundsTheStoreSize) {
  const std::string dir = temp_dir("evict_bytes");
  constexpr std::size_t kMaxBytes = 4096;
  store::EvalStore::Options o = opts(dir);
  o.budget = store::Budget{0, kMaxBytes};
  o.buckets = 2;
  {
    store::EvalStore store(o);
    for (std::uint64_t h = 1; h <= 200; ++h) store.insert(h, make_eval(h));
    EXPECT_TRUE(store.save());
    EXPECT_GT(store.evictions(), 0u);
  }
  EXPECT_LE(total_store_bytes(dir), kMaxBytes);
  // Newest entries are the survivors.
  store::EvalStore back(o);
  EXPECT_TRUE(back.lookup(200).has_value());
  EXPECT_FALSE(back.lookup(1).has_value());
}

// ----------------------------------------------- corruption & recovery

TEST(EvalStore, UnusableFilesAreSkippedCountedAndWarnedOncePerProcess) {
  // A bad store file must not abort the run (a distributed shard retry
  // would then fail on it forever): the store starts cold on that file,
  // counts the skip, and the next --store-compact drops the file.
  const std::string dir = temp_dir("corrupt_file");
  {
    store::EvalStore fresh(opts(dir));
    fresh.insert(1, make_eval(1));
    EXPECT_TRUE(fresh.save());
  }
  const std::string segment = segment_files(dir).at(0);
  std::ofstream(segment, std::ios::trunc) << "{ not a segment";

  testing::internal::CaptureStderr();
  store::EvalStore cold(opts(dir));
  EXPECT_EQ(cold.skipped_files(), 1u);
  EXPECT_FALSE(cold.lookup(1).has_value());
  cold.insert(2, make_eval(2));
  EXPECT_TRUE(cold.save());
  // A second instance (aggregate seed fan-out maps the same files many
  // times per run) counts the skip again but does NOT warn again.
  store::EvalStore again(opts(dir));
  EXPECT_EQ(again.skipped_files(), 1u);
  EXPECT_TRUE(again.lookup(2).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  std::size_t warnings = 0;
  for (std::size_t pos = 0; (pos = err.find(segment, pos)) != std::string::npos;
       ++pos) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u) << err;

  // Compaction is the repair pass: it drops the damaged file for good.
  const store::CompactionReport report = store::compact_store(dir, {}, 4);
  EXPECT_EQ(report.skipped_files, 1u);
  EXPECT_FALSE(fs::exists(segment));
  store::EvalStore healthy(opts(dir));
  EXPECT_EQ(healthy.skipped_files(), 0u);
  EXPECT_TRUE(healthy.lookup(2).has_value());
}

TEST(EvalStore, TornRecordInsideHealthySegmentIsSkippedAndCounted) {
  const std::string dir = temp_dir("torn_record");
  {
    store::EvalStore fresh(opts(dir));
    for (std::uint64_t h = 1; h <= 3; ++h) fresh.insert(h, make_eval(h));
    EXPECT_TRUE(fresh.save());
  }
  // Flip one payload byte of the middle record (hashes 1..3 sort in order).
  const std::string segment = segment_files(dir).at(0);
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(store::kHeaderSize +
                                        store::kRecordSize + 100));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(static_cast<std::streamoff>(store::kHeaderSize +
                                        store::kRecordSize + 100));
    f.write(&byte, 1);
  }

  store::EvalStore store(opts(dir));
  EXPECT_EQ(store.skipped_files(), 0u);  // the file itself is healthy
  EXPECT_TRUE(store.lookup(1).has_value());
  EXPECT_FALSE(store.lookup(2).has_value());  // checksum-guarded skip
  EXPECT_TRUE(store.lookup(3).has_value());
  EXPECT_EQ(store.corrupt_records(), 1u);

  const store::FsckReport before = store::fsck(dir);
  EXPECT_EQ(before.bad_records, 1u);
  EXPECT_EQ(before.records, 2u);
  EXPECT_FALSE(before.clean());

  const store::CompactionReport report = store::compact_store(dir, {}, 2);
  EXPECT_EQ(report.corrupt_dropped, 1u);
  EXPECT_EQ(report.records_kept, 2u);
  EXPECT_TRUE(store::fsck(dir).clean());
}

TEST(EvalStore, TruncatedSegmentIsSkippedNotFatal) {
  const std::string dir = temp_dir("truncated");
  {
    store::EvalStore fresh(opts(dir));
    for (std::uint64_t h = 1; h <= 5; ++h) fresh.insert(h, make_eval(h));
    EXPECT_TRUE(fresh.save());
  }
  const std::string segment = segment_files(dir).at(0);
  fs::resize_file(segment,
                  store::kHeaderSize + 2 * store::kRecordSize + 37);

  store::EvalStore store(opts(dir));
  EXPECT_EQ(store.skipped_files(), 1u);  // count no longer matches the size
  EXPECT_FALSE(store.lookup(1).has_value());

  const store::FsckReport report = store::fsck(dir);
  EXPECT_EQ(report.bad_files, 1u);
  EXPECT_FALSE(report.clean());
  (void)store::compact_store(dir, {}, 2);
  EXPECT_FALSE(fs::exists(segment));
  EXPECT_TRUE(store::fsck(dir).clean());
}

TEST(EvalStore, SaveFailureDegradesToCountedWarningAndRetries) {
  const std::string dir = temp_dir("save_failure");
  // A regular file squatting on segments/ makes every publish fail.
  std::ofstream(dir + "/segments") << "squatter";
  store::EvalStore store(opts(dir));
  store.insert(1, make_eval(1));
  EXPECT_FALSE(store.save());
  EXPECT_EQ(store.save_failures(), 1u);
  // The entry stayed unpublished, so clearing the obstruction lets a later
  // save persist it after all.
  fs::remove(dir + "/segments");
  EXPECT_TRUE(store.save());
  store::EvalStore back(opts(dir));
  EXPECT_TRUE(back.lookup(1).has_value());
}

// ------------------------------------------- compaction & liveness

TEST(EvalStore, CompactionDedupesRepublishedKeysKeepingTheOldestAge) {
  const std::string dir = temp_dir("dedupe");
  {
    store::EvalStore a(opts(dir));
    a.insert(7, make_eval(7));
    EXPECT_TRUE(a.save());
  }
  // Two workers racing on the same study republish the same full key;
  // simulate the race by copying the segment under a second name.
  const std::string original = segment_files(dir).at(0);
  fs::copy_file(original, dir + "/segments/seg-999-0-copy.seg");

  const store::CompactionReport report = store::compact_store(dir, {}, 2);
  EXPECT_EQ(report.duplicates_dropped, 1u);
  EXPECT_EQ(report.records_kept, 1u);
  // Compacting again is a fixed point.
  const store::CompactionReport again = store::compact_store(dir, {}, 2);
  EXPECT_EQ(again.duplicates_dropped, 0u);
  EXPECT_EQ(again.records_kept, 1u);
  store::EvalStore back(opts(dir));
  EXPECT_TRUE(back.lookup(7).has_value());
}

TEST(EvalStore, LiveReadersSurviveACompactionPass) {
  const std::string dir = temp_dir("live_readers");
  {
    store::EvalStore writer(opts(dir));
    for (std::uint64_t h = 1; h <= 10; ++h) writer.insert(h, make_eval(h));
    EXPECT_TRUE(writer.save());
  }
  store::EvalStore reader(opts(dir));  // maps the segment now...
  (void)store::compact_store(dir, {}, 4);
  EXPECT_TRUE(segment_files(dir).empty());  // ...which is unlinked now
  for (std::uint64_t h = 1; h <= 10; ++h) {
    // The mmap'd view outlives the unlink: every record stays reachable.
    expect_same_eval(*reader.lookup(h), make_eval(h));
  }
  store::EvalStore fresh(opts(dir));  // and the buckets serve newcomers
  EXPECT_TRUE(fresh.lookup(10).has_value());
}

TEST(EvalStore, SharedLookupsConsultOnlyCompactedBuckets) {
  const std::string dir = temp_dir("shared_buckets");
  {
    store::EvalStore producer(opts(dir, 0x11, /*stream=*/0x1));
    producer.insert(5, make_eval(5));
    EXPECT_TRUE(producer.save());
  }
  // Before compaction the record only lives in a segment: full-key lookups
  // under another stream miss, and — deliberately — so do shared lookups;
  // otherwise shared-hit counters would depend on which sibling process
  // happened to publish first.
  {
    store::EvalStore consumer(opts(dir, 0x11, /*stream=*/0x2));
    EXPECT_FALSE(consumer.lookup(5).has_value());
    EXPECT_FALSE(consumer.lookup_shared(5).has_value());
  }
  (void)store::compact_store(dir, {}, 4);
  store::EvalStore consumer(opts(dir, 0x11, /*stream=*/0x2));
  EXPECT_FALSE(consumer.lookup(5).has_value());  // still not its own key
  const auto shared = consumer.lookup_shared(5);
  ASSERT_TRUE(shared.has_value());
  EXPECT_TRUE(shared->has_replay_params);
  expect_same_eval(*shared, make_eval(5));
  // A different evaluation identity shares nothing.
  store::EvalStore other_eval(opts(dir, 0x9999, 0x2));
  EXPECT_FALSE(other_eval.lookup_shared(5).has_value());
}

// ----------------------------------------------------- store metrics

TEST(EvalStore, MetricsCountLookupsAndBytes) {
  const std::string dir = temp_dir("metrics");
  {
    store::EvalStore producer(opts(dir, 0x11, 0x1));
    producer.insert(5, make_eval(5));
    EXPECT_EQ(producer.metrics().bytes_published, 0u);  // nothing saved yet
    EXPECT_TRUE(producer.save());
    // One published segment: header plus the single record.
    EXPECT_GE(producer.metrics().bytes_published, store::kRecordSize);
  }
  store::EvalStore reader(opts(dir, 0x11, 0x1));
  EXPECT_FALSE(reader.lookup(6).has_value());
  ASSERT_TRUE(reader.lookup(5).has_value());  // from the published segment
  reader.insert(7, make_eval(7));
  ASSERT_TRUE(reader.lookup(7).has_value());  // from the session map
  const store::EvalStore::Metrics& m = reader.metrics();
  EXPECT_EQ(m.hits, 2u);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_GE(m.bytes_read, store::kRecordSize);  // disk probes, hit or miss
  EXPECT_EQ(m.bytes_published, 0u);             // this instance saved nothing

  // Shared lookups count in their own namespace: a miss before compaction
  // publishes buckets, a hit after.
  store::EvalStore consumer(opts(dir, 0x11, 0x2));
  EXPECT_FALSE(consumer.lookup_shared(5).has_value());
  EXPECT_EQ(consumer.metrics().shared_misses, 1u);
  (void)store::compact_store(dir, {}, 4);
  store::EvalStore warm(opts(dir, 0x11, 0x2));
  ASSERT_TRUE(warm.lookup_shared(5).has_value());
  EXPECT_EQ(warm.metrics().shared_hits, 1u);
  EXPECT_EQ(warm.metrics().shared_misses, 0u);
}

// ------------------------------------------------- multi-process hammer

TEST(EvalStore, EightConcurrentWritersAndReadersStayConsistent) {
  // 8 writer threads sharing one directory (distinct streams of one
  // evaluation identity — the distributed seed fan-out shape), each
  // publishing several segments and re-reading its own records, while a
  // 9th thread repeatedly compacts. Every record must survive, fsck must
  // come back clean, and the whole dance must be TSan-clean.
  const std::string dir = temp_dir("hammer");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 40;
  constexpr std::uint64_t kEvalFp = 0x5eed;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, t] {
      store::EvalStore store(
          opts(dir, kEvalFp, 100 + static_cast<std::uint64_t>(t)));
      for (std::uint64_t j = 0; j < kPerThread; ++j) {
        const std::uint64_t h = static_cast<std::uint64_t>(t) * 1000 + j;
        store.insert(h, make_eval(h + 1));
        if (j % 10 == 9) ASSERT_TRUE(store.save());
      }
      ASSERT_TRUE(store.save());
      // Reader pass under concurrent compaction: a fresh instance must see
      // every record this thread just published.
      store::EvalStore back(
          opts(dir, kEvalFp, 100 + static_cast<std::uint64_t>(t)));
      for (std::uint64_t j = 0; j < kPerThread; ++j) {
        const std::uint64_t h = static_cast<std::uint64_t>(t) * 1000 + j;
        const auto hit = back.lookup(h);
        ASSERT_TRUE(hit.has_value()) << "thread " << t << " hash " << h;
        expect_same_eval(*hit, make_eval(h + 1));
      }
    });
  }
  threads.emplace_back([&dir] {
    for (int i = 0; i < 5; ++i) {
      (void)store::compact_store(dir, {}, 8);
    }
  });
  for (std::thread& thread : threads) thread.join();

  (void)store::compact_store(dir, {}, 8);
  const store::FsckReport report = store::fsck(dir);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    store::EvalStore final_check(
        opts(dir, kEvalFp, 100 + static_cast<std::uint64_t>(t)));
    for (std::uint64_t j = 0; j < kPerThread; ++j) {
      EXPECT_TRUE(
          final_check.lookup(static_cast<std::uint64_t>(t) * 1000 + j)
              .has_value());
    }
  }
}

// -------------------------------------------------- cross-study reuse

TEST(CrossStudyReuse, SecondSeedReplaysSharedRecordsBitExact) {
  // The two-scenario sweep: study A (seed 1) fills the store and a
  // compaction publishes the index; study B (seed 2, same evaluation
  // identity, tiny space so the seeds propose overlapping designs) must
  // reuse A's deterministic work through the shared namespace — and still
  // produce EXACTLY the trace its own cold run produces, because the
  // Monte-Carlo accuracy draws are replayed with B's own RNG stream.
  const std::string dir = temp_dir("sweep");
  core::ExperimentConfig config;
  config.space.conv_layers = 2;
  config.space.channel_choices = {16, 32};
  config.space.kernel_choices = {3};
  config.space.hw.devices = {cim::DeviceType::kFefet};
  config.space.hw.bits_per_cell = {2};
  config.space.hw.adc_bits = {6};
  config.space.hw.xbar_sizes = {128};
  config.space.hw.col_mux = {8};
  config.persistent_cache_dir = dir;
  config.seed = 1;
  (void)core::run_strategy(core::Strategy::kRandom, 8, config);
  (void)store::compact_store(dir, {}, 4);

  core::ExperimentConfig b = config;
  b.seed = 2;
  core::ExperimentConfig b_cold = b;
  b_cold.persistent_cache_dir.clear();
  const core::RunResult cold = core::run_strategy(core::Strategy::kRandom, 8, b_cold);
  const core::RunResult warm = core::run_strategy(core::Strategy::kRandom, 8, b);
  EXPECT_GT(warm.persistent_shared_hits, 0);
  EXPECT_EQ(warm.persistent_hits, 0);  // nothing under B's own stream yet
  EXPECT_EQ(trace_text(warm), trace_text(cold));

  // And B's own warm rerun now prefers its full keys over shared replay.
  const core::RunResult rerun = core::run_strategy(core::Strategy::kRandom, 8, b);
  EXPECT_GT(rerun.persistent_hits, 0);
  EXPECT_EQ(rerun.cache_misses, 0);
  EXPECT_EQ(trace_text(rerun), trace_text(cold));
}

}  // namespace
