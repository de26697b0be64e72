// lcda::obs — the metrics registry, span tracer and snapshot algebra.
// The load-bearing test is the first one: engine output must be
// byte-identical with observability fully on and fully off, at every
// parallelism. It runs first because the registry/tracer singletons can
// be enabled but never disabled — the obs-off baseline must be captured
// before any other test arms them.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lcda/core/experiment.h"
#include "lcda/core/scenario.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/rng.h"

namespace {

using namespace lcda;

/// One small engine run rendered as the golden-trace CSV format.
std::string run_csv(int parallelism) {
  core::Scenario s = core::scenario_by_name("paper-energy");
  s.config.lcda_episodes = 6;
  s.config.parallelism = parallelism;
  const core::RunResult run =
      core::run_strategy(core::Strategy::kLcda, 6, s.config);
  std::ostringstream os;
  core::write_run_csv(os, run, "lcda/p" + std::to_string(parallelism));
  return os.str();
}

// ---------------------------------------------------------------------
// Byte invariance: the whole point of the obs contract. Must run before
// any test that enables the singletons (gtest runs tests in definition
// order within a file; each *_test.cpp is its own binary).
// ---------------------------------------------------------------------

TEST(ObsByteInvariance, EngineBytesIdenticalWithObsOnAndOff) {
  ASSERT_FALSE(obs::Registry::instance().enabled())
      << "another test armed the registry first; this test must run first";
  ASSERT_FALSE(obs::SpanTracer::instance().enabled());

  const std::string off_p1 = run_csv(1);
  const std::string off_p4 = run_csv(4);
  obs::add_counter("test.off", 5);  // off: a no-op that records nothing

  obs::Registry::instance().enable();
  obs::SpanTracer::instance().enable();

  EXPECT_EQ(off_p1, run_csv(1));
  EXPECT_EQ(off_p4, run_csv(4));

  // The instrumented runs actually metered: the engine mirrored its
  // counters and the round spans landed in the ring.
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("engine.runs"), 2);
  EXPECT_GE(snap.counter("engine.episodes"), 12);
  EXPECT_EQ(snap.counters.count("test.off"), 0u);
  EXPECT_GT(obs::SpanTracer::instance().size(), 0u);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(ObsMetrics, AddCounterSurvivesThreadHammer) {
  obs::Registry::instance().enable();

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAddsPerThread; ++i) obs::add_counter("test.hammer", 1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.hammer"),
            static_cast<long long>(kThreads) * kAddsPerThread);
}

TEST(ObsMetrics, InertHistogramIsASafeNoOp) {
  obs::Histogram histogram;  // default-constructed: inert
  EXPECT_FALSE(histogram.live());
  histogram.observe(7);  // must not crash
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Registry::instance().enable();
  obs::Histogram h = obs::Registry::instance().histogram("test.edges");
  ASSERT_TRUE(h.live());
  const long long last = obs::kLatencyBoundsUs.back();
  h.observe(0);          // bucket 0: v <= 1
  h.observe(1);          // bucket 0: edge is inclusive
  h.observe(2);          // bucket 1: 1 < v <= 2
  h.observe(3);          // bucket 2: 2 < v <= 5
  h.observe(last);       // last bound's bucket: edge is inclusive
  h.observe(last + 1);   // overflow bucket
  h.observe(1LL << 40);  // overflow bucket

  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  const auto it = snap.histograms.find("test.edges");
  ASSERT_NE(it, snap.histograms.end());
  const obs::HistogramData& hist = it->second;
  EXPECT_TRUE(std::equal(hist.bounds.begin(), hist.bounds.end(),
                         obs::kLatencyBoundsUs.begin(),
                         obs::kLatencyBoundsUs.end()));
  const std::size_t buckets = obs::kLatencyBoundsUs.size() + 1;
  ASSERT_EQ(hist.counts.size(), buckets);  // overflow last
  std::vector<long long> want(buckets, 0);
  want[0] = 2;
  want[1] = 1;
  want[2] = 1;
  want[buckets - 2] = 1;
  want[buckets - 1] = 2;
  EXPECT_EQ(hist.counts, want);
  EXPECT_EQ(hist.sum, 0 + 1 + 2 + 3 + last + (last + 1) + (1LL << 40));
  EXPECT_EQ(hist.total_count(), 7);
}

obs::MetricsSnapshot make_snapshot(long long a, std::vector<long long> counts,
                                   long long sum) {
  obs::MetricsSnapshot s;
  s.counters["c"] = a;
  obs::HistogramData h;
  h.bounds = {10, 20};
  h.counts = std::move(counts);
  h.sum = sum;
  s.histograms["h"] = h;
  return s;
}

TEST(ObsMetrics, SnapshotMergeIsAssociative) {
  const obs::MetricsSnapshot a = make_snapshot(1, {1, 0, 0}, 3);
  const obs::MetricsSnapshot b = make_snapshot(2, {0, 2, 0}, 30);
  const obs::MetricsSnapshot c = make_snapshot(4, {0, 0, 3}, 300);

  obs::MetricsSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  obs::MetricsSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  obs::MetricsSnapshot right = a;
  right.merge(bc);

  EXPECT_EQ(left.to_json().dump(), right.to_json().dump());
  EXPECT_EQ(left.counter("c"), 7);
  EXPECT_EQ(left.histograms.at("h").sum, 333);
  EXPECT_EQ(left.histograms.at("h").total_count(), 6);
}

TEST(ObsMetrics, DeltaSinceIsolatesTheChange) {
  obs::Registry::instance().enable();
  obs::add_counter("test.delta", 5);
  const obs::MetricsSnapshot base = obs::Registry::instance().snapshot();
  obs::add_counter("test.delta", 11);
  const obs::MetricsSnapshot delta =
      obs::Registry::instance().snapshot().delta_since(base);
  EXPECT_EQ(delta.counter("test.delta"), 11);
}

TEST(ObsMetrics, SnapshotJsonRoundTrips) {
  const obs::MetricsSnapshot s = make_snapshot(42, {1, 2, 3}, 99);
  const util::Json doc = s.to_json();
  EXPECT_EQ(doc.at("format").as_string(), "lcda-metrics-v2");
  EXPECT_FALSE(doc.contains("gauges"));
  const obs::MetricsSnapshot back = obs::MetricsSnapshot::from_json(doc);
  EXPECT_EQ(doc.dump(), back.to_json().dump());
}

// ---------------------------------------------------------------------
// Span tracer: the streamed timeline
// ---------------------------------------------------------------------

/// The process ring streamed as one lane.
std::string render_ring(int pid, std::string_view name) {
  obs::ChromeTraceWriter writer;
  obs::SpanTracer::instance().render(writer, pid, name);
  return writer.finish();
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();  // idempotent; first capacity (the default) wins
  tracer.clear();
  ASSERT_EQ(tracer.dropped(), 0u);

  { obs::Span first("the-very-first-span"); }
  const std::size_t kRecorded = obs::SpanTracer::kDefaultCapacity + 10;
  for (std::size_t i = 1; i < kRecorded; ++i) obs::Span span("filler");

  EXPECT_EQ(tracer.size(), obs::SpanTracer::kDefaultCapacity);
  EXPECT_EQ(tracer.dropped(), kRecorded - obs::SpanTracer::kDefaultCapacity);

  // Oldest-first eviction: the first span was overwritten, every held
  // span is one record, and the drop count travels with the lane.
  const obs::TraceLane lane = obs::read_chrome_trace(render_ring(0, "test"));
  EXPECT_EQ(lane.dropped, tracer.dropped());
  EXPECT_EQ(lane.spans.size(), obs::SpanTracer::kDefaultCapacity);
  EXPECT_EQ(std::count_if(lane.spans.begin(), lane.spans.end(),
                          [](const obs::TraceSpan& s) {
                            return std::string_view(s.name) != "filler";
                          }),
            0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTrace, SpanIsOneRecordWrittenWhenItEnds) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();
  tracer.clear();
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(tracer.size(), 1u);  // inner has ended, outer has not
  }
  std::thread([] { obs::Span span("other-thread"); }).join();
  ASSERT_EQ(tracer.size(), 3u);

  const std::string text = render_ring(7, "test-process");
  EXPECT_EQ(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"E\""), std::string::npos);
  const obs::TraceLane lane = obs::read_chrome_trace(text);
  ASSERT_EQ(lane.spans.size(), 3u);
  const obs::TraceSpan& inner = lane.spans[0];
  const obs::TraceSpan& outer = lane.spans[1];
  const obs::TraceSpan& other = lane.spans[2];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(other.name, "other-thread");
  EXPECT_GE(inner.dur_us, 2000);  // the begin is the span's, not the record's
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_NE(other.tid, outer.tid);
  EXPECT_GE(other.ts_us, outer.ts_us + outer.dur_us);  // one clock
  tracer.clear();
}

TEST(ObsTrace, AppendChromeEventsRewritesPidAndSkipsMetadata) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();
  tracer.clear();
  { obs::Span s("worker-span"); }
  util::Json worker_doc = tracer.export_chrome(12345, "original");
  worker_doc["obs_dropped_events"] = 17;
  // Records no ring holds are skipped: another phase, a negative duration.
  for (const auto& [ph, dur] : {std::pair<const char*, long long>{"B", 0},
                                std::pair<const char*, long long>{"X", -1}}) {
    util::Json e = util::Json::object();
    e["name"] = std::string("skipped");
    e["ph"] = std::string(ph);
    e["ts"] = 1;
    e["dur"] = dur;
    e["pid"] = 12345;
    e["tid"] = 1;
    worker_doc["traceEvents"].push_back(e);
  }
  tracer.clear();
  { obs::Span s("coordinator-span"); }
  util::Json merged = tracer.export_chrome(0, "coordinator");

  obs::append_chrome_events(merged["traceEvents"], worker_doc, 101,
                            "worker shard 1");
  const util::Json& events = merged.at("traceEvents");
  bool saw_worker_span = false, saw_lane_name = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      if (e.at("pid").as_int() == 101) {
        saw_lane_name = true;
        EXPECT_EQ(e.at("args").at("name").as_string(), "worker shard 1");
        EXPECT_EQ(e.at("args").at("dropped_events").as_int(), 17);
      }
      continue;
    }
    EXPECT_EQ(ph, "X");
    EXPECT_NE(e.at("name").as_string(), "skipped");
    if (e.at("name").as_string() == "worker-span") {
      saw_worker_span = true;
      EXPECT_EQ(e.at("pid").as_int(), 101);  // re-pinned to the shard lane
    }
  }
  EXPECT_TRUE(saw_worker_span);
  EXPECT_TRUE(saw_lane_name);
  tracer.clear();
}

// ------------------------------------------ streamed vs DOM, differential

namespace reference {

// The writer's format built as a util::Json tree, one object per span in
// the order given: the oracle for the streamed text.

util::Json export_chrome(const std::vector<obs::TraceSpan>& spans,
                         std::uint64_t dropped, int pid,
                         std::string_view process_name) {
  util::Json arr = util::Json::array();
  util::Json meta = util::Json::object();
  meta["name"] = std::string("process_name");
  meta["ph"] = std::string("M");
  meta["pid"] = pid;
  meta["tid"] = 0;
  util::Json args = util::Json::object();
  args["name"] = std::string(process_name);
  args["dropped_events"] = static_cast<long long>(dropped);
  meta["args"] = args;
  arr.push_back(meta);
  for (const obs::TraceSpan& s : spans) {
    util::Json e = util::Json::object();
    e["name"] = std::string(s.name);
    e["ph"] = std::string("X");
    e["ts"] = static_cast<long long>(s.ts_us);
    e["dur"] = static_cast<long long>(s.dur_us);
    e["pid"] = pid;
    e["tid"] = static_cast<long long>(s.tid);
    arr.push_back(e);
  }

  util::Json doc = util::Json::object();
  doc["traceEvents"] = arr;
  doc["displayTimeUnit"] = std::string("ms");
  doc["obs_dropped_events"] = static_cast<long long>(dropped);
  return doc;
}

}  // namespace reference

obs::TraceSpan span(std::string_view name, std::uint32_t tid, std::int64_t ts,
                    std::int64_t dur) {
  obs::TraceSpan s;
  std::memcpy(s.name, name.data(), std::min(name.size(), obs::kMaxSpanName));
  s.tid = tid;
  s.ts_us = ts;
  s.dur_us = dur;
  return s;
}

/// A wrapped ring's storage and its oldest slot: `spans` (oldest first)
/// rotated so the writer gets the two segments a full ring hands over.
struct WrappedRing {
  std::vector<obs::TraceSpan> slots;
  std::size_t head = 0;
};

WrappedRing wrap(const std::vector<obs::TraceSpan>& spans, std::size_t head) {
  WrappedRing ring;
  ring.slots.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ring.slots[(head + i) % spans.size()] = spans[i];
  }
  ring.head = spans.empty() ? 0 : head % spans.size();
  return ring;
}

/// The streamed lane of `spans` (handed over as the two segments of a
/// ring whose oldest slot is `head`), parsed back, next to the oracle's
/// document for the same spans.
void expect_streamed_equals_reference(const std::vector<obs::TraceSpan>& spans,
                                      std::size_t head, std::uint64_t dropped,
                                      const std::string& what) {
  const WrappedRing ring = wrap(spans, head);
  const std::span<const obs::TraceSpan> slots(ring.slots);
  obs::ChromeTraceWriter writer;
  writer.add_lane(3, "lane \"x\"", dropped, slots.subspan(ring.head),
                  slots.first(ring.head));
  EXPECT_EQ(writer.spans(), spans.size()) << what;
  const std::string text = writer.finish();
  EXPECT_EQ(util::Json::parse(text).dump(),
            reference::export_chrome(spans, dropped, 3, "lane \"x\"").dump())
      << what;
  // What a ring holds streams to a file the strict reader takes back,
  // span for span.
  const obs::TraceLane back = obs::read_chrome_trace(text);
  EXPECT_EQ(back.dropped, dropped) << what;
  obs::ChromeTraceWriter again;
  again.add_lane(back);
  EXPECT_EQ(again.finish(), text) << what;
}

TEST(ObsTraceDifferential, RingOverflow) {
  // Nested spans on one thread, in the order they end, recorded through a
  // 16-slot ring: the oldest survivor is an outer span whose inner spans
  // were dropped, and the ring has wrapped, so its oldest slot is not
  // slot 0.
  std::vector<obs::TraceSpan> recorded;
  for (int i = 0; i < 10; ++i) {
    recorded.push_back(span("inner", 1, 10 * i + 1, 1));
    recorded.push_back(span("inner", 1, 10 * i + 3, 0));
    recorded.push_back(span("outer", 1, 10 * i, 4));
  }
  const std::size_t kCapacity = 16;
  const std::vector<obs::TraceSpan> held(recorded.end() - kCapacity,
                                         recorded.end());
  const std::uint64_t dropped = recorded.size() - kCapacity;
  for (std::size_t head = 0; head < kCapacity; ++head) {
    expect_streamed_equals_reference(held, head, dropped,
                                     "head " + std::to_string(head));
  }
}

TEST(ObsTraceDifferential, SeveralTids) {
  expect_streamed_equals_reference(
      {span("t3", 3, 10, 1), span("t1", 1, 11, 1), span("t2", 2, 9, 0),
       span("t1b", 1, 13, 2), span("t1c", 1, 10, 6), span("t2b", 2, 8, 7)},
      2, 5, "several tids");
}

TEST(ObsTraceDifferential, RandomRings) {
  // Threads that open and close spans at random, recorded in the order
  // the spans end and cut to a random ring's last slots: deep nests,
  // zero durations, many tids, awkward names, wrapped rings.
  static const char* const kNames[] = {"round.plan", "say \"hi\"",
                                       "back\\slash", "new\nline",
                                       "ctl\x01\x1f", ""};
  util::Rng rng(20251017);
  for (int trial = 0; trial < 200; ++trial) {
    std::map<std::uint32_t, std::vector<obs::TraceSpan>> open;
    std::vector<obs::TraceSpan> ended;
    std::int64_t clock = rng.uniform_int(0, 1000);
    const int steps = static_cast<int>(rng.uniform_int(0, 120));
    for (int i = 0; i < steps; ++i) {
      clock += rng.uniform_int(0, 5);
      const auto tid = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      std::vector<obs::TraceSpan>& stack = open[tid];
      if (stack.empty() || rng.chance(0.5)) {
        stack.push_back(span(kNames[rng.index(std::size(kNames))], tid, clock, 0));
      } else {
        ended.push_back(stack.back());
        ended.back().dur_us = clock - stack.back().ts_us;
        stack.pop_back();
      }
    }
    const std::size_t kept = rng.index(ended.size() + 1);
    const std::vector<obs::TraceSpan> held(ended.end() - static_cast<long>(kept),
                                           ended.end());
    expect_streamed_equals_reference(held, rng.index(held.size() + 1),
                                     ended.size() - kept,
                                     "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(ObsTrace, AwkwardNamesSurviveWriteReadAndMerge) {
  const std::vector<std::string> kNames = {"say \"hi\"", "back\\slash",
                                           "new\nline", "bell\x07|\x1f|\x7f"};
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();
  tracer.clear();
  for (const std::string& name : kNames) obs::Span span(name);

  // The worker half: the ring streamed to a file, read back strictly.
  const std::string path =
      (std::filesystem::temp_directory_path() / "lcda_obs_test_names.json")
          .string();
  {
    obs::ChromeTraceWriter file(path);
    tracer.render(file, 4242, "worker \"shard\"\n0");
    EXPECT_EQ(file.finish(), "");
  }
  std::ifstream in(path, std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  std::filesystem::remove(path);
  obs::TraceLane lane = obs::read_chrome_trace(text);
  EXPECT_EQ(lane.pid, 4242);
  EXPECT_EQ(lane.name, "worker \"shard\"\n0");
  ASSERT_EQ(lane.spans.size(), kNames.size());
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    EXPECT_EQ(std::string(lane.spans[i].name), kNames[i]);
  }

  // The coordinator half: merged after its own lane, parsed back whole.
  lane.pid = 1;
  lane.dropped = 9;
  obs::ChromeTraceWriter merged;
  tracer.render(merged, 0, "coordinator");
  merged.add_lane(lane);
  EXPECT_EQ(merged.dropped(), 9u);
  EXPECT_EQ(merged.spans(), 2 * kNames.size());
  const util::Json doc = util::Json::parse(merged.finish());
  EXPECT_EQ(doc.at("obs_dropped_events").as_int(), 9);
  std::vector<std::string> merged_names;
  for (const util::Json& e : doc.at("traceEvents").elements()) {
    if (e.at("pid").as_int() == 1 && e.at("ph").as_string() == "X") {
      merged_names.push_back(e.at("name").as_string());
    }
  }
  EXPECT_EQ(merged_names, kNames);
  tracer.clear();
}

TEST(ObsTrace, ReaderRejectsWhatTheWriterNeverWrites) {
  obs::ChromeTraceWriter writer;
  writer.add_lane(5, "w", 2,
                  std::vector<obs::TraceSpan>{span("a", 1, 10, 2),
                                              span("b", 1, 12, 1)});
  const std::string good = writer.finish();
  ASSERT_NO_THROW((void)obs::read_chrome_trace(good));

  const auto edited = [&good](std::string_view from, std::string_view to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"truncated", good.substr(0, good.size() / 2)},
      {"no closing line", good.substr(0, good.find("\n]"))},
      {"trailing bytes", good + " "},
      {"20-digit ts", edited("\"ts\":10", "\"ts\":10000000000000000000")},
      {"leading zero", edited("\"ts\":12", "\"ts\":012")},
      {"negative tid", edited("\"tid\":1}", "\"tid\":-1}")},
      {"foreign pid", edited("\"pid\":5,\"tid\":1", "\"pid\":6,\"tid\":1")},
      {"no duration", edited(",\"dur\":2", "")},
      {"negative duration", edited("\"dur\":2", "\"dur\":-2")},
      {"ends past the clock", edited("\"dur\":2", "\"dur\":9223372036854775807")},
      {"partial overlap", edited("\"ts\":12,\"dur\":1", "\"ts\":11,\"dur\":2")},
      {"inner span after its outer",
       edited("\"ts\":12,\"dur\":1", "\"ts\":10,\"dur\":1")},
      {"begin phase", edited("\"ph\":\"X\"", "\"ph\":\"B\"")},
      {"end phase", edited("\"ph\":\"X\"", "\"ph\":\"E\"")},
      {"long name", edited("\"name\":\"a\"", "\"name\":\"" +
                                                 std::string(36, 'n') + "\"")},
      {"raw control byte", edited("\"name\":\"a\"", "\"name\":\"\x01\"")},
      {"escape never written", edited("\"name\":\"a\"", "\"name\":\"\\u0041\"")},
      {"drop counts disagree", edited("\"obs_dropped_events\":2",
                                      "\"obs_dropped_events\":3")},
      {"two lanes", edited("\n]", ",\n{\"name\":\"process_name\",\"ph\":\"M\","
                                  "\"pid\":5,\"tid\":0,\"args\":{\"name\":"
                                  "\"w\",\"dropped_events\":0}}\n]")},
  };
  for (const auto& [what, text] : bad) {
    EXPECT_THROW((void)obs::read_chrome_trace(text), std::runtime_error) << what;
  }
}

}  // namespace
