// lcda::obs — the metrics registry, span tracer and snapshot algebra.
// The load-bearing test is the first one: engine output must be
// byte-identical with observability fully on and fully off, at every
// parallelism. It runs first because the registry/tracer singletons can
// be enabled but never disabled — the obs-off baseline must be captured
// before any other test arms them.
#include <gtest/gtest.h>

#include <algorithm>
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

  obs::Registry::instance().enable();
  obs::SpanTracer::instance().enable();

  EXPECT_EQ(off_p1, run_csv(1));
  EXPECT_EQ(off_p4, run_csv(4));

  // The instrumented runs actually metered: the engine mirrored its
  // counters and the round spans landed in the ring.
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("engine.runs"), 2);
  EXPECT_GE(snap.counter("engine.episodes"), 12);
  EXPECT_GT(obs::SpanTracer::instance().size(), 0u);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(ObsMetrics, StripedCounterSurvivesThreadHammer) {
  obs::Registry::instance().enable();
  obs::Counter counter = obs::Registry::instance().counter("test.hammer");
  ASSERT_TRUE(counter.live());

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.hammer"),
            static_cast<long long>(kThreads) * kAddsPerThread);
}

TEST(ObsMetrics, InertHandlesAreSafeNoOps) {
  obs::Counter counter;  // default-constructed: inert
  obs::Gauge gauge;
  obs::Histogram histogram;
  EXPECT_FALSE(counter.live());
  EXPECT_FALSE(gauge.live());
  EXPECT_FALSE(histogram.live());
  counter.add(7);  // must not crash
  gauge.set(7);
  histogram.observe(7);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Registry::instance().enable();
  obs::Histogram h =
      obs::Registry::instance().histogram("test.edges", {10, 20});
  ASSERT_TRUE(h.live());
  h.observe(0);    // bucket 0: v <= 10
  h.observe(10);   // bucket 0: edge is inclusive
  h.observe(11);   // bucket 1: 10 < v <= 20
  h.observe(20);   // bucket 1: edge is inclusive
  h.observe(21);   // overflow bucket
  h.observe(1000); // overflow bucket

  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  const auto it = snap.histograms.find("test.edges");
  ASSERT_NE(it, snap.histograms.end());
  ASSERT_EQ(it->second.counts.size(), 3u);  // bounds.size() + 1, overflow last
  EXPECT_EQ(it->second.counts[0], 2);
  EXPECT_EQ(it->second.counts[1], 2);
  EXPECT_EQ(it->second.counts[2], 2);
  EXPECT_EQ(it->second.sum, 0 + 10 + 11 + 20 + 21 + 1000);
  EXPECT_EQ(it->second.total_count(), 6);
}

obs::MetricsSnapshot make_snapshot(long long a, long long g,
                                   std::vector<long long> counts,
                                   long long sum) {
  obs::MetricsSnapshot s;
  s.counters["c"] = a;
  s.gauges["g"] = g;
  obs::HistogramData h;
  h.bounds = {10, 20};
  h.counts = std::move(counts);
  h.sum = sum;
  s.histograms["h"] = h;
  return s;
}

TEST(ObsMetrics, SnapshotMergeIsAssociative) {
  const obs::MetricsSnapshot a = make_snapshot(1, 5, {1, 0, 0}, 3);
  const obs::MetricsSnapshot b = make_snapshot(2, 9, {0, 2, 0}, 30);
  const obs::MetricsSnapshot c = make_snapshot(4, 7, {0, 0, 3}, 300);

  obs::MetricsSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  obs::MetricsSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  obs::MetricsSnapshot right = a;
  right.merge(bc);

  EXPECT_EQ(left.to_json().dump(), right.to_json().dump());
  EXPECT_EQ(left.counter("c"), 7);
  EXPECT_EQ(left.gauges.at("g"), 9);  // gauges take the max
  EXPECT_EQ(left.histograms.at("h").sum, 333);
  EXPECT_EQ(left.histograms.at("h").total_count(), 6);
}

TEST(ObsMetrics, DeltaSinceIsolatesTheChange) {
  obs::Registry::instance().enable();
  obs::Counter counter = obs::Registry::instance().counter("test.delta");
  counter.add(5);
  const obs::MetricsSnapshot base = obs::Registry::instance().snapshot();
  counter.add(11);
  const obs::MetricsSnapshot delta =
      obs::Registry::instance().snapshot().delta_since(base);
  EXPECT_EQ(delta.counter("test.delta"), 11);
}

TEST(ObsMetrics, SnapshotJsonRoundTrips) {
  const obs::MetricsSnapshot s = make_snapshot(42, 3, {1, 2, 3}, 99);
  const obs::MetricsSnapshot back =
      obs::MetricsSnapshot::from_json(s.to_json());
  EXPECT_EQ(s.to_json().dump(), back.to_json().dump());
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

  tracer.begin("the-very-first-span");
  const std::size_t kRecorded = obs::SpanTracer::kDefaultCapacity + 10;
  for (std::size_t i = 1; i < kRecorded; ++i) tracer.begin("filler");

  EXPECT_EQ(tracer.size(), obs::SpanTracer::kDefaultCapacity);
  EXPECT_EQ(tracer.dropped(), kRecorded - obs::SpanTracer::kDefaultCapacity);

  // Oldest-first eviction: the first span was overwritten, every held
  // begin got its closing end, and the drop count travels with the lane.
  const obs::TraceLane lane = obs::read_chrome_trace(render_ring(0, "test"));
  EXPECT_EQ(lane.dropped, tracer.dropped());
  EXPECT_EQ(lane.events.size(), 2 * obs::SpanTracer::kDefaultCapacity);
  EXPECT_EQ(std::count_if(lane.events.begin(), lane.events.end(),
                          [](const obs::TraceEvent& e) {
                            return std::string_view(e.name) != "filler";
                          }),
            0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTrace, ExportBalancesPairsAndClampsTimestamps) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();
  tracer.clear();

  tracer.end("orphan");  // no matching begin: export must drop it
  {
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  tracer.begin("dangling");  // never ended: export must close it

  const std::string text = render_ring(7, "test-process");
  EXPECT_NO_THROW((void)obs::read_chrome_trace(text));
  const util::Json doc = util::Json::parse(text);
  const util::Json& events = doc.at("traceEvents");

  std::map<long long, int> open_per_tid;       // running B/E balance
  std::map<long long, long long> last_ts;      // per-tid monotonicity
  std::set<std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    EXPECT_EQ(e.at("pid").as_int(), 7);
    if (ph == "M") continue;
    const long long tid = e.at("tid").as_int();
    const long long ts = e.at("ts").as_int();
    const auto prev = last_ts.find(tid);
    if (prev != last_ts.end()) {
      EXPECT_GE(ts, prev->second);
    }
    last_ts[tid] = ts;
    if (ph == "B") ++open_per_tid[tid];
    if (ph == "E") --open_per_tid[tid];
    EXPECT_GE(open_per_tid[tid], 0) << "end before begin on tid " << tid;
    names.insert(e.at("name").as_string());
  }
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
  }
  EXPECT_EQ(names.count("orphan"), 0u);
  EXPECT_EQ(names.count("outer"), 1u);
  EXPECT_EQ(names.count("inner"), 1u);
  EXPECT_EQ(names.count("dangling"), 1u);
  tracer.clear();
}

TEST(ObsTrace, AppendChromeEventsRewritesPidAndSkipsMetadata) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.enable();
  tracer.clear();
  { obs::Span s("worker-span"); }
  util::Json worker_doc = tracer.export_chrome(12345, "original");
  worker_doc["obs_dropped_events"] = 17;
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
    if (ph != "M" && e.at("name").as_string() == "worker-span") {
      saw_worker_span = true;
      EXPECT_EQ(e.at("pid").as_int(), 101);  // re-pinned to the shard lane
    }
    if (ph == "M" && e.at("pid").as_int() == 101) {
      saw_lane_name = true;
      EXPECT_EQ(e.at("args").at("name").as_string(), "worker shard 1");
      EXPECT_EQ(e.at("args").at("dropped_events").as_int(), 17);
    }
  }
  EXPECT_TRUE(saw_worker_span);
  EXPECT_TRUE(saw_lane_name);
  tracer.clear();
}

// ------------------------------------------ streamed vs DOM, differential

namespace reference {

// The DOM exporter the streamed writer replaced, kept as its oracle: the
// same per-thread rules, built as a util::Json tree from the ring's
// events in order. One line is new — the lane's drop count in the
// process_name args — and is marked.

util::Json make_event(const char* name, const char* phase, std::int64_t ts,
                      int pid, std::uint32_t tid) {
  util::Json e = util::Json::object();
  e["name"] = std::string(name);
  e["ph"] = std::string(phase);
  e["ts"] = static_cast<long long>(ts);
  e["pid"] = pid;
  e["tid"] = static_cast<long long>(tid);
  return e;
}

util::Json export_chrome(const std::vector<obs::TraceEvent>& events,
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
  args["dropped_events"] = static_cast<long long>(dropped);  // new
  meta["args"] = args;
  arr.push_back(meta);

  struct TidState {
    std::vector<std::string> open;
    std::int64_t last_ts = 0;
  };
  std::map<std::uint32_t, TidState> tids;
  for (const obs::TraceEvent& e : events) {
    TidState& st = tids[e.tid];
    const std::int64_t ts = std::max(e.ts_us, st.last_ts);
    if (e.phase == 'B') {
      st.open.emplace_back(e.name);
    } else {
      if (st.open.empty()) continue;  // orphaned end: begin was dropped
      st.open.pop_back();
    }
    st.last_ts = ts;
    arr.push_back(make_event(e.name, e.phase == 'B' ? "B" : "E", ts, pid,
                             e.tid));
  }
  for (auto& [tid, st] : tids) {
    while (!st.open.empty()) {
      arr.push_back(
          make_event(st.open.back().c_str(), "E", st.last_ts, pid, tid));
      st.open.pop_back();
    }
  }

  util::Json doc = util::Json::object();
  doc["traceEvents"] = arr;
  doc["displayTimeUnit"] = std::string("ms");
  doc["obs_dropped_events"] = static_cast<long long>(dropped);
  return doc;
}

}  // namespace reference

obs::TraceEvent event(std::string_view name, char phase, std::uint32_t tid,
                      std::int64_t ts) {
  obs::TraceEvent e;
  std::memcpy(e.name, name.data(), std::min(name.size(), obs::kMaxSpanName));
  e.phase = phase;
  e.tid = tid;
  e.ts_us = ts;
  return e;
}

/// A wrapped ring's storage and its oldest slot: `events` (oldest first)
/// rotated so the writer gets the two segments a full ring hands over.
struct WrappedRing {
  std::vector<obs::TraceEvent> slots;
  std::size_t head = 0;
};

WrappedRing wrap(const std::vector<obs::TraceEvent>& events,
                 std::size_t head) {
  WrappedRing ring;
  ring.slots.resize(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ring.slots[(head + i) % events.size()] = events[i];
  }
  ring.head = events.empty() ? 0 : head % events.size();
  return ring;
}

/// The streamed lane of `events` (handed over as the two segments of a
/// ring whose oldest slot is `head`), parsed back, next to the oracle's
/// document for the same events.
void expect_streamed_equals_reference(const std::vector<obs::TraceEvent>& events,
                                      std::size_t head, std::uint64_t dropped,
                                      const std::string& what) {
  const WrappedRing ring = wrap(events, head);
  const std::span<const obs::TraceEvent> slots(ring.slots);
  obs::ChromeTraceWriter writer;
  writer.add_lane(3, "lane \"x\"", dropped, slots.subspan(ring.head),
                  slots.first(ring.head));
  const std::string text = writer.finish();
  EXPECT_EQ(util::Json::parse(text).dump(),
            reference::export_chrome(events, dropped, 3, "lane \"x\"").dump())
      << what;
  // Whatever the ring held, the streamed file is one the strict reader
  // takes back, event for event.
  const obs::TraceLane back = obs::read_chrome_trace(text);
  EXPECT_EQ(back.dropped, dropped) << what;
  obs::ChromeTraceWriter again;
  again.add_lane(back);
  EXPECT_EQ(again.finish(), text) << what;
}

TEST(ObsTraceDifferential, OrphanEndsAndDanglingBegins) {
  expect_streamed_equals_reference(
      {event("orphan", 'E', 1, 5), event("outer", 'B', 1, 10),
       event("inner", 'B', 1, 11), event("inner", 'E', 1, 12),
       event("stray", 'E', 1, 12), event("outer", 'E', 1, 13),
       event("stray", 'E', 1, 13), event("dangling", 'B', 1, 14),
       event("deeper", 'B', 1, 15)},
      0, 0, "orphans and dangling");
}

TEST(ObsTraceDifferential, ClockStepBackwards) {
  expect_streamed_equals_reference(
      {event("a", 'B', 1, 100), event("b", 'B', 1, 90), event("b", 'E', 1, 95),
       event("c", 'B', 1, 120), event("c", 'E', 1, 40), event("a", 'E', 1, 80),
       event("d", 'B', 1, 130), event("d", 'E', 1, 131)},
      0, 0, "clock step");
}

TEST(ObsTraceDifferential, RingOverflow) {
  // Nested spans on one thread, recorded through a 16-slot ring: the
  // survivors start mid-stack (orphan ends) and end mid-stack (dangling
  // begins), and the ring has wrapped, so its oldest slot is not slot 0.
  std::vector<obs::TraceEvent> recorded;
  for (int i = 0; i < 10; ++i) {
    recorded.push_back(event("outer", 'B', 1, 10 * i));
    recorded.push_back(event("inner", 'B', 1, 10 * i + 1));
    recorded.push_back(event("inner", 'E', 1, 10 * i + 2));
    recorded.push_back(event("outer", 'E', 1, 10 * i + 3));
  }
  recorded.push_back(event("open", 'B', 1, 200));
  const std::size_t kCapacity = 16;
  const std::vector<obs::TraceEvent> held(recorded.end() - kCapacity,
                                          recorded.end());
  const std::uint64_t dropped = recorded.size() - kCapacity;
  for (std::size_t head = 0; head < kCapacity; ++head) {
    expect_streamed_equals_reference(held, head, dropped,
                                     "head " + std::to_string(head));
  }
}

TEST(ObsTraceDifferential, SeveralTids) {
  expect_streamed_equals_reference(
      {event("t3", 'B', 3, 10), event("t1", 'B', 1, 11), event("t2", 'B', 2, 9),
       event("t1", 'E', 1, 12), event("t3b", 'B', 3, 13), event("t2", 'E', 2, 8),
       event("x", 'E', 7, 14), event("t1b", 'B', 1, 15)},
      2, 5, "several tids");
}

TEST(ObsTraceDifferential, RandomRings) {
  // Every feature at once: orphan ends, dangling begins, backwards clock
  // steps, many tids, awkward names, wrapped rings.
  static const char* const kNames[] = {"round.plan", "say \"hi\"",
                                       "back\\slash", "new\nline",
                                       "ctl\x01\x1f", ""};
  util::Rng rng(20251017);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<obs::TraceEvent> events;
    std::int64_t clock = rng.uniform_int(0, 1000);
    const int n = static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) {
      clock += rng.chance(0.1) ? -rng.uniform_int(1, 50) : rng.uniform_int(0, 5);
      events.push_back(event(kNames[rng.index(std::size(kNames))],
                             rng.chance(0.55) ? 'B' : 'E',
                             static_cast<std::uint32_t>(rng.uniform_int(1, 4)),
                             clock));
    }
    expect_streamed_equals_reference(
        events, rng.index(events.size() + 1),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1000)),
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
  ASSERT_EQ(lane.events.size(), 2 * kNames.size());
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    EXPECT_EQ(std::string(lane.events[2 * i].name), kNames[i]);
  }

  // The coordinator half: merged after its own lane, parsed back whole.
  lane.pid = 1;
  lane.dropped = 9;
  obs::ChromeTraceWriter merged;
  tracer.render(merged, 0, "coordinator");
  merged.add_lane(lane);
  EXPECT_EQ(merged.dropped(), 9u);
  EXPECT_EQ(merged.events(), 4 * kNames.size());
  const util::Json doc = util::Json::parse(merged.finish());
  EXPECT_EQ(doc.at("obs_dropped_events").as_int(), 9);
  std::vector<std::string> merged_names;
  for (const util::Json& e : doc.at("traceEvents").elements()) {
    if (e.at("pid").as_int() == 1 && e.at("ph").as_string() == "B") {
      merged_names.push_back(e.at("name").as_string());
    }
  }
  EXPECT_EQ(merged_names, kNames);
  tracer.clear();
}

TEST(ObsTrace, ReaderRejectsWhatTheWriterNeverWrites) {
  obs::ChromeTraceWriter writer;
  writer.add_lane(5, "w", 2,
                  std::vector<obs::TraceEvent>{event("a", 'B', 1, 10),
                                               event("a", 'E', 1, 11)});
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
      {"leading zero", edited("\"ts\":11", "\"ts\":011")},
      {"negative tid", edited("\"tid\":1}", "\"tid\":-1}")},
      {"foreign pid", edited("\"pid\":5,\"tid\":1", "\"pid\":6,\"tid\":1")},
      {"backwards clock", edited("\"ts\":11", "\"ts\":9")},
      {"unbalanced", edited("\"ph\":\"E\"", "\"ph\":\"B\"")},
      {"other phase", edited("\"ph\":\"E\"", "\"ph\":\"X\"")},
      {"long name", edited("\"name\":\"a\"", "\"name\":\"" +
                                                 std::string(40, 'n') + "\"")},
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
