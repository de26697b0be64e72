#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/util/json_lite.h"

/// Span tracing: completed spans in a per-process ring buffer, streamed
/// as Chrome trace-event JSON (Perfetto / chrome://tracing loadable).
///
/// Like the metrics registry (metrics.h) the tracer is OFF by default and
/// zero-cost while off: Span construction is a single branch on a plain
/// bool, no atomics, no clock reads. Enabled, a span costs two clock
/// reads (vDSO, not syscalls) and one short critical section on the ring
/// mutex when it ends — which is why instrumentation sits at
/// round/chunk/spec granularity, never per episode.
///
/// A span is one record, written when it ends: name, thread, begin and
/// duration. Spans are RAII scopes, so one thread's spans nest, and a span
/// that has not ended yet is not in the ring. The ring holds
/// kDefaultCapacity spans; when it is full the oldest span is overwritten
/// (drop-oldest) and counted, and the count travels with the timeline (see
/// ChromeTraceWriter). Whole spans go, so the ones kept still nest.
///
/// Timestamps are steady_clock microseconds, CLOCK_MONOTONIC on Linux:
/// every process on a host reads the same clock, so the traces written by
/// one study's processes (coordinator + workers on the same host) land on
/// one timeline and can be merged.
namespace lcda::obs {

/// One completed span. The name is captured into a fixed buffer —
/// recording never allocates, and the ring's memory footprint is exact.
struct TraceSpan {
  char name[36] = {};
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;   ///< begin
  std::int64_t dur_us = 0;  ///< end minus begin, never negative
};
static_assert(sizeof(TraceSpan) == 56, "a ring slot's size");

/// Longest span name a TraceSpan holds; longer names are truncated on
/// record.
inline constexpr std::size_t kMaxSpanName = sizeof(TraceSpan{}.name) - 1;

/// One process's lane of a timeline, decoded from a trace file.
struct TraceLane {
  int pid = 0;
  std::string name;           ///< the lane's process_name label
  std::uint64_t dropped = 0;  ///< spans its ring overwrote
  std::vector<TraceSpan> spans;  ///< in the order they ended
};

/// Streams a Chrome trace-event document, one record per line:
///
///   {"traceEvents":[
///   {"name":"process_name","ph":"M","pid":P,"tid":0,"args":{"name":"N","dropped_events":D}},
///   {"name":"round.plan","ph":"X","ts":T,"dur":U,"pid":P,"tid":I},
///   ...
///   ],"displayTimeUnit":"ms","obs_dropped_events":D}
///
/// Each lane is a process_name record carrying the lane's drop count,
/// followed by one complete ("X") record per span, in the order given.
/// The closing line's obs_dropped_events is the sum over all lanes.
/// Numbers are plain integers, names are JSON-escaped as
/// util::json_escape does.
///
/// The text goes either to memory (finish() hands it over) or straight
/// to a file in bounded chunks as lanes are added, so a file-backed
/// writer never holds the whole timeline.
class ChromeTraceWriter {
 public:
  /// Renders into memory.
  ChromeTraceWriter();
  /// Streams into `path` (truncated). Throws std::runtime_error when the
  /// file cannot be opened.
  explicit ChromeTraceWriter(const std::string& path);

  /// Appends one lane. Its spans are `spans` followed by `more` (a ring
  /// that wrapped hands over its two segments).
  void add_lane(int pid, std::string_view name, std::uint64_t dropped,
                std::span<const TraceSpan> spans,
                std::span<const TraceSpan> more = {});
  void add_lane(const TraceLane& lane) {
    add_lane(lane.pid, lane.name, lane.dropped, lane.spans);
  }

  /// Span records written so far and the drops summed over the lanes.
  [[nodiscard]] std::size_t spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Closes the document and returns its text — or, streaming to a file,
  /// writes the rest, closes the file and returns "". Throws on I/O
  /// failure. The writer is spent.
  std::string finish();

 private:
  void emit(const TraceSpan& span, std::string_view pid);
  /// Streaming to a file: writes out the pending text once it fills a
  /// chunk.
  void spill();

  std::ofstream file_;
  std::string path_;
  std::string out_;  ///< the whole text, or the chunk not yet written
  std::size_t records_ = 0;
  std::size_t spans_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Strict reader for the files a ChromeTraceWriter with one lane writes
/// (the per-process and per-worker timelines). It accepts exactly the
/// lines the writer produces from a ring — its header, one process_name
/// record, span records of that pid whose durations are not negative and
/// which, per tid, end in order and nest, and its closing line with a
/// matching drop count — and throws std::runtime_error naming the first
/// offending line for anything else.
[[nodiscard]] TraceLane read_chrome_trace(std::string_view text);

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  static SpanTracer& instance();

  /// Arms the tracer with a fixed-capacity ring. Call before the traced
  /// threads start; idempotent (the first capacity wins).
  void enable(std::size_t capacity = kDefaultCapacity);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Spans overwritten since enable()/clear().
  [[nodiscard]] std::uint64_t dropped() const;
  /// Spans currently held in the ring.
  [[nodiscard]] std::size_t size() const;

  /// Drop every buffered span (the resident worker clears between specs
  /// so each written file covers exactly one spec).
  void clear();

  /// Streams the ring, oldest span first, into `writer` as lane `pid`
  /// named `process_name` with the ring's drop count. Renders under the
  /// ring lock straight from the ring; the ring is left untouched.
  void render(ChromeTraceWriter& writer, int pid,
              std::string_view process_name) const;

  /// The render() of a one-lane document, parsed into a util::Json tree —
  /// for callers that merge documents in memory (see append_chrome_events).
  [[nodiscard]] util::Json export_chrome(int pid,
                                         std::string_view process_name) const;

 private:
  friend class Span;
  SpanTracer() = default;
  /// Stores `begun` — a name and a begin time — as a span ending now on
  /// the calling thread. When the ring is full the oldest span is
  /// overwritten and counted in dropped().
  void record(const TraceSpan& begun);

  bool enabled_ = false;  // plain bool: set single-threaded, read hot
  mutable std::mutex mutex_;
  std::vector<TraceSpan> ring_;
  std::size_t head_ = 0;   ///< slot of the oldest span
  std::size_t count_ = 0;  ///< spans held
  std::uint64_t dropped_ = 0;
};

/// RAII span: begins on construction and is recorded, once, on
/// destruction, through the process tracer. Constructing one while the
/// tracer is disabled is a single branch. The name is copied, so
/// temporaries are safe.
class Span {
 public:
  explicit Span(std::string_view name) {
    if (SpanTracer::instance().enabled()) begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->record(span_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(std::string_view name);

  SpanTracer* tracer_ = nullptr;
  TraceSpan span_;
};

/// Writes `doc` (an in-memory trace document) to `path` as compact
/// single-line JSON plus a trailing newline. Throws on I/O failure.
void write_trace_file(const util::Json& doc, const std::string& path);

/// In-memory merge: renders the span records of `doc` (a trace document)
/// through ChromeTraceWriter as lane `pid` named `process_name`, carrying
/// doc's obs_dropped_events, and appends the resulting records — the
/// lane's process_name record first — to `events`. Other phases,
/// malformed spans and metadata are skipped; a document without
/// "traceEvents" appends nothing.
void append_chrome_events(util::Json& events, const util::Json& doc, int pid,
                          std::string_view process_name);

}  // namespace lcda::obs
