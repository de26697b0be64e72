#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/util/json_lite.h"

/// Span tracing: begin/end events in a per-process ring buffer, streamed
/// as Chrome trace-event JSON (Perfetto / chrome://tracing loadable).
///
/// Like the metrics registry (metrics.h) the tracer is OFF by default and
/// zero-cost while off: Span construction is a single branch on a plain
/// bool, no atomics, no clock reads. Enabled, a span costs two clock
/// reads (vDSO, not syscalls) and two short critical sections on the ring
/// mutex — which is why instrumentation sits at round/chunk/spec
/// granularity, never per episode.
///
/// The ring holds kDefaultCapacity events. When it is full the oldest
/// event is overwritten (drop-oldest) and counted; the count travels with
/// the timeline (see ChromeTraceWriter).
///
/// Timestamps are wall-clock microseconds (system_clock), so traces
/// written by different processes of one study (coordinator + workers on
/// the same host) land on a shared timeline and can be merged.
///
/// Export streams the ring straight into text, one event per line, with
/// no JSON tree in between (ChromeTraceWriter). Each thread's events pass
/// through three rules on the way, so a written file always validates:
/// an end whose begin was overwritten is dropped, timestamps are clamped
/// non-decreasing, and spans still open at export are closed.
namespace lcda::obs {

/// One ring entry. The name is captured into a fixed buffer — recording
/// never allocates, and the ring's memory footprint is exact.
struct TraceEvent {
  char name[40] = {};
  char phase = 'B';  ///< 'B' begin / 'E' end
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
};

/// Longest span name a TraceEvent holds; longer names are truncated on
/// record.
inline constexpr std::size_t kMaxSpanName = sizeof(TraceEvent{}.name) - 1;

/// One process's lane of a timeline, decoded from a trace file.
struct TraceLane {
  int pid = 0;
  std::string name;           ///< the lane's process_name label
  std::uint64_t dropped = 0;  ///< events its ring overwrote
  std::vector<TraceEvent> events;  ///< in recording order
};

/// Streams a Chrome trace-event document, one record per line:
///
///   {"traceEvents":[
///   {"name":"process_name","ph":"M","pid":P,"tid":0,"args":{"name":"N","dropped_events":D}},
///   {"name":"round.plan","ph":"B","ts":T,"pid":P,"tid":U},
///   ...
///   ],"displayTimeUnit":"ms","obs_dropped_events":D}
///
/// Each lane is a process_name record carrying the lane's drop count,
/// followed by its events under the per-thread rules in the file comment.
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

  /// Appends one lane. Its events are `events` followed by `more` (a ring
  /// that wrapped hands over its two segments).
  void add_lane(int pid, std::string_view name, std::uint64_t dropped,
                std::span<const TraceEvent> events,
                std::span<const TraceEvent> more = {});
  void add_lane(const TraceLane& lane) {
    add_lane(lane.pid, lane.name, lane.dropped, lane.events);
  }

  /// Begin/end records written so far (synthetic closes included) and the
  /// drops summed over the lanes.
  [[nodiscard]] std::size_t events() const { return events_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Closes the document and returns its text — or, streaming to a file,
  /// writes the rest, closes the file and returns "". Throws on I/O
  /// failure. The writer is spent.
  std::string finish();

 private:
  void emit(std::string_view name, char phase, std::int64_t ts,
            std::string_view pid, std::uint32_t tid);
  /// Streaming to a file: writes out the pending text once it fills a
  /// chunk.
  void spill();

  std::ofstream file_;
  std::string path_;
  std::string out_;  ///< the whole text, or the chunk not yet written
  std::size_t records_ = 0;
  std::size_t events_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Strict reader for the files a ChromeTraceWriter with one lane writes
/// (the per-process and per-worker timelines). It accepts exactly the
/// lines the writer produces — its header, one process_name record,
/// begin/end records of that pid, balanced and non-decreasing per tid,
/// and its closing line with a matching drop count — and throws
/// std::runtime_error naming the first offending line for anything else.
[[nodiscard]] TraceLane read_chrome_trace(std::string_view text);

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  static SpanTracer& instance();

  /// Arms the tracer with a fixed-capacity ring. Call before the traced
  /// threads start; idempotent (the first capacity wins).
  void enable(std::size_t capacity = kDefaultCapacity);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a begin/end event now. No-ops while disabled. When the ring
  /// is full the oldest event is overwritten and counted in dropped().
  void begin(std::string_view name);
  void end(std::string_view name);

  /// Events overwritten since enable()/clear().
  [[nodiscard]] std::uint64_t dropped() const;
  /// Events currently held in the ring.
  [[nodiscard]] std::size_t size() const;

  /// Drop every buffered event (the resident worker clears between specs
  /// so each written file covers exactly one spec).
  void clear();

  /// Streams the ring, oldest event first, into `writer` as lane `pid`
  /// named `process_name` with the ring's drop count. Renders under the
  /// ring lock straight from the ring; the ring is left untouched.
  void render(ChromeTraceWriter& writer, int pid,
              std::string_view process_name) const;

  /// The render() of a one-lane document, parsed into a util::Json tree —
  /// for callers that merge documents in memory (see append_chrome_events).
  [[nodiscard]] util::Json export_chrome(int pid,
                                         std::string_view process_name) const;

 private:
  SpanTracer() = default;
  void record(char phase, std::string_view name);

  bool enabled_ = false;  // plain bool: set single-threaded, read hot
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   ///< slot of the oldest event
  std::size_t count_ = 0;  ///< events held
  std::uint64_t dropped_ = 0;
};

/// RAII span: begin on construction, end on destruction, both through the
/// process tracer. Constructing one while the tracer is disabled is a
/// single branch. The name is copied, so temporaries are safe.
class Span {
 public:
  explicit Span(std::string_view name) {
    SpanTracer& tracer = SpanTracer::instance();
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    const std::size_t n = std::min(name.size(), kMaxSpanName);
    std::memcpy(name_, name.data(), n);
    name_[n] = '\0';
    tracer.begin(std::string_view(name_, n));
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_ = nullptr;
  char name_[sizeof(TraceEvent{}.name)] = {};
};

/// Writes `doc` (an in-memory trace document) to `path` as compact
/// single-line JSON plus a trailing newline. Throws on I/O failure.
void write_trace_file(const util::Json& doc, const std::string& path);

/// In-memory merge: renders the begin/end events of `doc` (a trace
/// document) through ChromeTraceWriter as lane `pid` named
/// `process_name`, carrying doc's obs_dropped_events, and appends the
/// resulting records — the lane's process_name record first — to
/// `events`. Other phases, malformed events and metadata are skipped;
/// a document without "traceEvents" appends nothing.
void append_chrome_events(util::Json& events, const util::Json& doc, int pid,
                          std::string_view process_name);

}  // namespace lcda::obs
