#include "lcda/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <type_traits>

namespace lcda::obs {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense thread id for the "tid" lane (0 is reserved so Chrome
/// never sees a zero tid on a real thread).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  static thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// The record grammar, shared by ChromeTraceWriter and read_chrome_trace so
// the two cannot drift apart.
constexpr std::string_view kHeader = R"({"traceEvents":[)";
constexpr std::string_view kCloser =
    "\n" R"(],"displayTimeUnit":"ms","obs_dropped_events":)";
constexpr std::string_view kMetaPid = R"({"name":"process_name","ph":"M","pid":)";
constexpr std::string_view kMetaName = R"(,"tid":0,"args":{"name":")";
constexpr std::string_view kMetaDropped = R"(","dropped_events":)";
constexpr std::string_view kSpanName = R"({"name":")";
constexpr std::string_view kSpanTs = R"(","ph":"X","ts":)";
constexpr std::string_view kDur = R"(,"dur":)";
constexpr std::string_view kPid = R"(,"pid":)";
constexpr std::string_view kTid = R"(,"tid":)";

/// Text a file-backed writer buffers before writing it out.
constexpr std::size_t kChunkBytes = 256 * 1024;

template <class T>
void append_int(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// `s` as JSON string content: util::json_escape(s), kept in `storage`,
/// or `s` itself for the usual name that has nothing to escape.
std::string_view escaped(std::string_view s, std::string& storage) {
  for (const char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      storage = util::json_escape(s);
      return storage;
    }
  }
  return s;
}

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

template <class T>
char* put_int(char* p, T v) {
  char digits[24];
  return put(p, {digits, std::to_chars(digits, digits + sizeof(digits), v).ptr});
}

std::string_view name_of(const TraceSpan& span) {
  return {span.name, ::strnlen(span.name, sizeof(span.name))};
}

/// Cursor over one file for read_chrome_trace: literal matching and the
/// writer's number and string forms, failing with the current line.
class TraceReader {
 public:
  explicit TraceReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error("trace line " + std::to_string(line_) + ": " +
                             std::string(what));
  }

  void next_line() { ++line_; }
  [[nodiscard]] bool at_end() const { return p_ == end_; }

  /// Consumes `lit` if the text continues with it.
  bool skip(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::memcmp(p_, lit.data(), lit.size()) != 0) {
      return false;
    }
    p_ += lit.size();
    return true;
  }
  void expect(std::string_view lit, std::string_view what) {
    if (!skip(lit)) fail(what);
  }

  /// An integer exactly as std::to_chars writes one: a '-' only for
  /// signed types and never before 0, no leading zeros, no overflow.
  template <class T>
  T integer() {
    const bool negative = std::is_signed_v<T> && p_ < end_ && *p_ == '-';
    const char* const digits = p_ + (negative ? 1 : 0);
    const char* stop = digits;
    while (stop < end_ && *stop >= '0' && *stop <= '9') ++stop;
    if (stop == digits || (*digits == '0' && (stop - digits > 1 || negative))) {
      fail("malformed number");
    }
    T value{};
    const auto r = std::from_chars(p_, stop, value);
    if (r.ec != std::errc() || r.ptr != stop) fail("number out of range");
    p_ = stop;
    return value;
  }

  /// A string body up to (not including) its closing quote, decoding the
  /// escapes util::json_escape writes and nothing else.
  void string(std::string& out) {
    out.clear();
    while (true) {
      const char* const run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\' &&
             static_cast<unsigned char>(*p_) >= 0x20) {
        ++p_;
      }
      out.append(run, p_);
      if (p_ == end_) fail("unterminated string");
      if (*p_ == '"') return;
      if (*p_ != '\\') fail("raw control byte in a string");
      ++p_;
      if (skip("\"")) out += '"';
      else if (skip("\\")) out += '\\';
      else if (skip("n")) out += '\n';
      else if (skip("r")) out += '\r';
      else if (skip("t")) out += '\t';
      else if (skip("u00")) out += control_byte();
      else fail("unexpected escape");
    }
  }

 private:
  /// The two lowercase hex digits of a \u00XX escape: a control byte
  /// without a short escape of its own.
  char control_byte() {
    const auto hex = [this]() -> int {
      if (p_ == end_) fail("short \\u escape");
      const char h = *p_++;
      if (h >= '0' && h <= '9') return h - '0';
      if (h >= 'a' && h <= 'f') return h - 'a' + 10;
      fail("bad \\u escape");
    };
    const int hi = hex();
    const int c = hi * 16 + hex();
    if (c >= 0x20 || c == '\n' || c == '\r' || c == '\t') {
      fail("unexpected \\u escape");
    }
    return static_cast<char>(c);
  }

  const char* p_;
  const char* end_;
  std::size_t line_ = 1;
};

/// One span record of an in-memory document, or nullopt for anything
/// else (metadata, other phases, missing or out-of-range fields, a
/// negative duration).
std::optional<TraceSpan> span_from_json(const util::Json& e) {
  if (!e.is_object() || !e.contains("ph") || !e.contains("name") ||
      !e.contains("ts") || !e.contains("dur") || !e.contains("tid")) {
    return std::nullopt;
  }
  const util::Json& ph = e.at("ph");
  const util::Json& name = e.at("name");
  const util::Json& ts = e.at("ts");
  const util::Json& dur = e.at("dur");
  const util::Json& tid = e.at("tid");
  if (!ph.is_string() || ph.as_string() != "X" || !name.is_string() ||
      !ts.is_number() || !dur.is_number() || !tid.is_number()) {
    return std::nullopt;
  }
  const double t = ts.as_double();
  const double d = dur.as_double();
  const double u = tid.as_double();
  if (!(t > -9e18 && t < 9e18) || !(d >= 0 && t + d < 9e18) ||
      !(u >= 0 && u <= 4294967295.0)) {
    return std::nullopt;  // also rejects NaN
  }
  TraceSpan out;
  const std::string& s = name.as_string();
  std::memcpy(out.name, s.data(), std::min(s.size(), kMaxSpanName));
  out.ts_us = static_cast<std::int64_t>(t);
  out.dur_us = static_cast<std::int64_t>(d);
  out.tid = static_cast<std::uint32_t>(u);
  return out;
}

}  // namespace

// ------------------------------------------------------------------ writer

ChromeTraceWriter::ChromeTraceWriter() : out_(kHeader) {}

ChromeTraceWriter::ChromeTraceWriter(const std::string& path)
    : file_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!file_) {
    throw std::runtime_error("obs: cannot write trace file " + path);
  }
  out_.reserve(kChunkBytes + 1024);
  out_ = kHeader;
}

void ChromeTraceWriter::spill() {
  if (out_.size() < kChunkBytes || !file_.is_open()) return;
  file_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void ChromeTraceWriter::emit(const TraceSpan& span, std::string_view pid) {
  // One record, assembled on the stack and appended once. The bound: a
  // name escapes to at most 6 bytes per byte, pid to 11, ts and dur to 20
  // each and tid to 10, plus the fixed text.
  char line[6 * kMaxSpanName + 160];
  std::string storage;
  char* p = put(line, records_++ == 0 ? "\n" : ",\n");
  p = put(p, kSpanName);
  p = put(p, escaped(name_of(span), storage));
  p = put(p, kSpanTs);
  p = put_int(p, span.ts_us);
  p = put(p, kDur);
  p = put_int(p, span.dur_us);
  p = put(p, kPid);
  p = put(p, pid);
  p = put(p, kTid);
  p = put_int(p, span.tid);
  *p++ = '}';
  out_.append(line, p);
  ++spans_;
  spill();
}

void ChromeTraceWriter::add_lane(int pid, std::string_view name,
                                 std::uint64_t dropped,
                                 std::span<const TraceSpan> spans,
                                 std::span<const TraceSpan> more) {
  dropped_ += dropped;
  std::string pid_text;
  append_int(pid_text, pid);
  out_ += records_++ == 0 ? "\n" : ",\n";
  out_ += kMetaPid;
  out_ += pid_text;
  out_ += kMetaName;
  std::string storage;
  out_ += escaped(name, storage);
  out_ += kMetaDropped;
  append_int(out_, dropped);
  out_ += "}}";
  if (!file_.is_open()) {
    out_.reserve(out_.size() + (spans.size() + more.size()) * 90);
  }
  for (const std::span<const TraceSpan> part : {spans, more}) {
    for (const TraceSpan& span : part) emit(span, pid_text);
  }
}

std::string ChromeTraceWriter::finish() {
  out_ += kCloser;
  append_int(out_, dropped_);
  out_ += "}\n";
  if (!file_.is_open()) return std::move(out_);
  file_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
  file_.close();
  if (!file_) {
    throw std::runtime_error("obs: short write to trace file " + path_);
  }
  return {};
}

// ------------------------------------------------------------------ reader

TraceLane read_chrome_trace(std::string_view text) {
  TraceReader in(text);
  TraceLane lane;
  in.expect(kHeader, "not a trace-event document");
  in.expect("\n", "not a trace-event document");
  in.next_line();
  in.expect(kMetaPid, "expected the process_name record");
  lane.pid = in.integer<int>();
  in.expect(kMetaName, "malformed process_name record");
  in.string(lane.name);
  in.expect(kMetaDropped, "malformed process_name record");
  lane.dropped = in.integer<std::uint64_t>();
  in.expect("}}", "malformed process_name record");

  // Per tid, the spans that no later span encloses, oldest first. They
  // are disjoint and in order, so a span that ends after them encloses a
  // suffix of them and must not begin before the rest have ended.
  struct Extent {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };
  std::map<std::uint32_t, std::vector<Extent>> tids;
  std::vector<Extent>* outer = nullptr;  // the last span's thread
  std::uint32_t outer_tid = 0;
  lane.spans.reserve(text.size() / 80);  // a record runs ~85 bytes
  std::string name;
  while (in.skip(",\n")) {
    in.next_line();
    TraceSpan span;
    in.expect(kSpanName, "expected a span record");
    in.string(name);
    if (name.size() > kMaxSpanName) in.fail("span name too long");
    if (name.find('\0') != std::string::npos) in.fail("NUL in a span name");
    std::memcpy(span.name, name.data(), name.size());
    in.expect(kSpanTs, "expected phase X");
    span.ts_us = in.integer<std::int64_t>();
    in.expect(kDur, "malformed span record");
    span.dur_us = in.integer<std::int64_t>();
    if (span.dur_us < 0) in.fail("negative duration");
    if (span.ts_us > 0 &&
        span.dur_us > std::numeric_limits<std::int64_t>::max() - span.ts_us) {
      in.fail("span ends past the clock's range");
    }
    in.expect(kPid, "malformed span record");
    if (in.integer<int>() != lane.pid) in.fail("pid differs from the lane's");
    in.expect(kTid, "malformed span record");
    span.tid = in.integer<std::uint32_t>();
    in.expect("}", "malformed span record");

    if (outer == nullptr || span.tid != outer_tid) {
      outer = &tids[span.tid];
      outer_tid = span.tid;
    }
    const Extent extent{span.ts_us, span.ts_us + span.dur_us};
    if (!outer->empty() && extent.end < outer->back().end) {
      in.fail("span ends before the one ahead of it on its thread");
    }
    while (!outer->empty() && outer->back().begin >= extent.begin) {
      outer->pop_back();
    }
    if (!outer->empty() && outer->back().end > extent.begin) {
      in.fail("span overlaps another on its thread");
    }
    outer->push_back(extent);
    lane.spans.push_back(span);
  }
  in.next_line();
  in.expect(kCloser, "expected the closing line");
  if (in.integer<std::uint64_t>() != lane.dropped) {
    in.fail("drop count differs from the process_name record's");
  }
  in.expect("}\n", "malformed closing line");
  if (!in.at_end()) in.fail("bytes after the closing line");
  return lane;
}

// ------------------------------------------------------------------ tracer

SpanTracer& SpanTracer::instance() {
  static SpanTracer tracer;
  return tracer;
}

void SpanTracer::enable(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  if (enabled_) return;
  ring_.resize(std::max<std::size_t>(capacity, 8));
  enabled_ = true;
}

void Span::begin(std::string_view name) {
  tracer_ = &SpanTracer::instance();
  std::memcpy(span_.name, name.data(), std::min(name.size(), kMaxSpanName));
  span_.ts_us = now_us();
}

void SpanTracer::record(const TraceSpan& begun) {
  const std::int64_t end = now_us();
  const std::uint32_t tid = current_tid();
  std::lock_guard lock(mutex_);
  std::size_t slot;
  if (count_ < ring_.size()) {
    slot = (head_ + count_) % ring_.size();
    ++count_;
  } else {
    // Full: overwrite the oldest span (drop-oldest) and count the loss.
    slot = head_;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
  TraceSpan& span = ring_[slot];
  span = begun;
  span.tid = tid;
  span.dur_us = end - begun.ts_us;
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::size_t SpanTracer::size() const {
  std::lock_guard lock(mutex_);
  return count_;
}

void SpanTracer::clear() {
  std::lock_guard lock(mutex_);
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
}

void SpanTracer::render(ChromeTraceWriter& writer, int pid,
                        std::string_view process_name) const {
  std::lock_guard lock(mutex_);
  // Oldest first: slots [head_, end), then the wrapped part from slot 0.
  const std::span<const TraceSpan> ring(ring_);
  const std::size_t first = std::min(count_, ring.size() - head_);
  writer.add_lane(pid, process_name, dropped_, ring.subspan(head_, first),
                  ring.subspan(0, count_ - first));
}

util::Json SpanTracer::export_chrome(int pid,
                                     std::string_view process_name) const {
  ChromeTraceWriter writer;
  render(writer, pid, process_name);
  return util::Json::parse(writer.finish());
}

// ---------------------------------------------------- in-memory documents

void write_trace_file(const util::Json& doc, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("obs: cannot write trace file " + path);
  }
  out << doc.dump() << "\n";
  if (!out.flush()) {
    throw std::runtime_error("obs: short write to trace file " + path);
  }
}

void append_chrome_events(util::Json& events, const util::Json& doc, int pid,
                          std::string_view process_name) {
  if (!doc.is_object() || !doc.contains("traceEvents")) return;
  std::uint64_t dropped = 0;
  if (doc.contains("obs_dropped_events") &&
      doc.at("obs_dropped_events").is_number()) {
    const double d = doc.at("obs_dropped_events").as_double();
    if (d >= 0 && d < 1.8e19) dropped = static_cast<std::uint64_t>(d);
  }
  std::vector<TraceSpan> lane;
  for (const util::Json& e : doc.at("traceEvents").elements()) {
    if (const std::optional<TraceSpan> span = span_from_json(e)) {
      lane.push_back(*span);
    }
  }
  ChromeTraceWriter writer;
  writer.add_lane(pid, process_name, dropped, lane);
  for (const util::Json& e :
       util::Json::parse(writer.finish()).at("traceEvents").elements()) {
    events.push_back(e);
  }
}

}  // namespace lcda::obs
