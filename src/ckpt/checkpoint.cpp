#include "lcda/ckpt/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <system_error>
#include <type_traits>
#include <utility>

#include <unistd.h>

#include "lcda/obs/trace.h"
#include "lcda/util/fault.h"
#include "lcda/util/logging.h"
#include "lcda/util/strings.h"

namespace lcda::ckpt {

namespace {

constexpr std::uint32_t kRoundVersion = 1;

/// A corrupt element count must not drive a huge reserve before the
/// element decodes fail; every element is at least `min_bytes` long.
std::size_t bounded_reserve(std::uint64_t n, std::size_t remaining,
                            std::size_t min_bytes) {
  return std::min<std::size_t>(n, remaining / std::max<std::size_t>(min_bytes, 1));
}

/// The study's round logs (`rounds-*.log`), in name order; nothing else
/// in a study directory is read or deleted.
std::vector<std::filesystem::path> list_logs(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("rounds-") && name.ends_with(".log")) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return data;
}

/// Parses a round log, tolerating a torn tail: records after the first
/// short, corrupt or out-of-order one are dropped (the loop re-evaluates
/// them live). A log's rounds start at episode 0 and move strictly forward.
std::vector<core::RoundDelta> read_log(const std::filesystem::path& path,
                                       std::uint64_t identity) {
  std::vector<core::RoundDelta> deltas;
  const auto data = read_file(path);
  if (!data) return deltas;
  const std::string_view view = *data;
  util::BinaryReader header(view.starts_with(kRoundLogMagic)
                                ? view.substr(kRoundLogMagic.size())
                                : std::string_view());
  std::uint64_t file_identity = 0;
  if (!header.u64(file_identity) || file_identity != identity) {
    util::warn_once("ckpt-bad-log:" + path.string(), "ckpt",
                    "round log has a foreign header; ignoring it");
    return deltas;
  }
  std::string_view rest = view.substr(view.size() - header.remaining());
  while (!rest.empty()) {
    util::BinaryReader rec(rest);
    std::uint64_t len = 0;
    std::uint64_t checksum = 0;
    if (!rec.u64(len) || !rec.u64(checksum) || rec.remaining() < len) break;
    const std::string_view payload =
        rest.substr(rest.size() - rec.remaining(), len);
    if (util::fnv1a64(payload) != checksum) break;
    core::RoundDelta delta;
    if (!decode_round(payload, delta)) break;
    if (deltas.empty() ? delta.first_episode != 0
                       : delta.first_episode <= deltas.back().first_episode) {
      break;
    }
    deltas.push_back(std::move(delta));
    rest = rest.substr(16 + len);
  }
  if (!rest.empty()) {
    util::warn_once("ckpt-torn-log:" + path.string(), "ckpt",
                    "round log tail is torn; rounds after it will be "
                    "re-evaluated on resume");
  }
  return deltas;
}

}  // namespace

void encode_evaluation(util::BinaryWriter& w, const core::Evaluation& ev) {
  std::uint8_t flags = 0;
  if (ev.cost.valid) flags |= 1;
  if (ev.has_replay_params) flags |= 2;
  w.u8(flags);
  core::for_each_evaluation_field(ev, [&](const auto& v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      w.f64(v);
    } else {
      w.i64(v);
    }
  });
  // The invalid reason is kept whole (unlike the store's fixed-width
  // record, which truncates it): a resumed trace must not differ from the
  // uninterrupted one in any byte, reasons included. Per-layer costs and
  // the mapping are deliberately absent — the lean engine path never
  // populates them, matching the store's record shape.
  w.str(ev.cost.invalid_reason);
}

bool decode_evaluation(util::BinaryReader& r, core::Evaluation& ev) {
  std::uint8_t flags = 0;
  bool ok = r.u8(flags);
  core::for_each_evaluation_field(ev, [&](auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_floating_point_v<T>) {
      ok = ok && r.f64(v);
    } else {
      std::int64_t wide = 0;
      ok = ok && r.i64(wide);
      v = static_cast<T>(wide);
    }
  });
  if (!ok || !r.str(ev.cost.invalid_reason)) return false;
  ev.cost.valid = (flags & 1) != 0;
  ev.has_replay_params = (flags & 2) != 0;
  ev.cost.layers.clear();
  ev.cost.mapping = {};
  return true;
}

namespace {

/// Appends the round payload to `out`, so the writer assembles a record's
/// envelope and payload in one reused buffer.
void encode_round_append(std::string& out, const core::RoundDelta& delta) {
  util::BinaryWriter w(out);
  w.u32(kRoundVersion);
  w.i64(delta.first_episode);
  w.u64(delta.job_hashes.size());
  for (std::uint64_t h : delta.job_hashes) w.u64(h);
  w.u64(delta.job_evals.size());
  for (const core::Evaluation& ev : delta.job_evals) encode_evaluation(w, ev);
}

/// Overwrites 8 bytes at `pos` with the little-endian encoding of `v` —
/// the back-patch for length/checksum fields whose values are only known
/// after the payload behind them is encoded in place.
void patch_u64(std::string& buf, std::size_t pos, std::uint64_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}

/// Process-wide writer counter: with the pid it names each writer's log.
std::atomic<unsigned> g_log_counter{0};

/// The name a completed run's log is renamed to (see on_snapshot).
constexpr std::string_view kDoneLogName = "rounds-done.log";

}  // namespace

std::string encode_round(const core::RoundDelta& delta) {
  std::string out;
  encode_round_append(out, delta);
  return out;
}

bool decode_round(std::string_view payload, core::RoundDelta& out) {
  util::BinaryReader r(payload);
  std::uint32_t version = 0;
  std::int64_t first_episode = 0;
  std::uint64_t n_hashes = 0;
  if (!r.u32(version) || version != kRoundVersion || !r.i64(first_episode) ||
      first_episode < 0 || first_episode > std::numeric_limits<int>::max() ||
      !r.u64(n_hashes)) {
    return false;
  }
  out.first_episode = static_cast<int>(first_episode);
  out.job_hashes.clear();
  out.job_hashes.reserve(bounded_reserve(n_hashes, r.remaining(), 8));
  for (std::uint64_t i = 0; i < n_hashes; ++i) {
    std::uint64_t h = 0;
    if (!r.u64(h)) return false;
    out.job_hashes.push_back(h);
  }
  std::uint64_t n_evals = 0;
  if (!r.u64(n_evals)) return false;
  out.job_evals.clear();
  out.job_evals.reserve(bounded_reserve(n_evals, r.remaining(), 64));
  for (std::uint64_t i = 0; i < n_evals; ++i) {
    core::Evaluation ev;
    if (!decode_evaluation(r, ev)) return false;
    out.job_evals.push_back(std::move(ev));
  }
  return r.done();
}

std::filesystem::path study_checkpoint_dir(const std::string& root,
                                           std::uint64_t identity) {
  return std::filesystem::path(root) / util::hex_u64(identity);
}

std::vector<core::RoundDelta> load_resume(const std::string& root,
                                          std::uint64_t identity) {
  obs::Span span("ckpt.replay");
  std::vector<core::RoundDelta> best;
  for (const std::filesystem::path& path :
       list_logs(study_checkpoint_dir(root, identity))) {
    std::vector<core::RoundDelta> rounds = read_log(path, identity);
    if (rounds.size() > best.size()) best = std::move(rounds);
  }
  return best;
}

RunCheckpointer::RunCheckpointer(Options opts)
    : opts_(std::move(opts)),
      dir_(study_checkpoint_dir(opts_.directory, opts_.identity)) {}

bool RunCheckpointer::open_log() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A dead process with this pid may have left a log under the name this
  // writer would pick; skip past it rather than truncate its history.
  do {
    path_ = dir_ / ("rounds-" + std::to_string(::getpid()) + "-" +
                    std::to_string(g_log_counter.fetch_add(1)) + ".log");
  } while (std::filesystem::exists(path_, ec));
  log_.open(path_, std::ios::binary | std::ios::trunc);
  std::string header(kRoundLogMagic);
  util::BinaryWriter(header).u64(opts_.identity);
  log_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!log_.flush()) {
    util::warn_once("ckpt-write-failed:" + dir_.string(), "ckpt",
                    "cannot write the round log; run continues "
                    "uncheckpointed");
    failed_ = true;
  }
  return !failed_;
}

void RunCheckpointer::on_snapshot(const core::LoopSnapshot&) {
  // Only a log that holds every round may stand in for the others. It takes
  // the completed-log name (an atomic rename) before any other log goes,
  // and no writer ever deletes that name: two copies of one study finishing
  // together cannot delete each other's logs. A failed rename means a copy
  // that finished first already deleted this log, keeping its own.
  if (failed_ || !log_.is_open()) return;
  std::error_code ec;
  const std::filesystem::path done = dir_ / kDoneLogName;
  std::filesystem::rename(path_, done, ec);
  if (ec) return;
  path_ = done;
  for (const std::filesystem::path& path : list_logs(dir_)) {
    if (path != path_) std::filesystem::remove(path, ec);
  }
  ++snapshots_written_;
}

void RunCheckpointer::on_round(const core::RoundDelta& delta) {
  if (failed_ || (!log_.is_open() && !open_log())) return;
  std::string& record = record_buf_;
  record.clear();
  util::BinaryWriter w(record);
  const std::size_t len_pos = record.size();
  w.u64(0);
  w.u64(0);
  const std::size_t payload_pos = record.size();
  encode_round_append(record, delta);
  const std::size_t payload_size = record.size() - payload_pos;
  patch_u64(record, len_pos, payload_size);
  patch_u64(record, len_pos + 8,
            util::fnv1a64(std::string_view(record).substr(payload_pos)));

  const long long torn_at = util::FaultInjector::instance().torn_log_episode();
  const bool torn =
      torn_at >= 0 && static_cast<long long>(delta.first_episode) >= torn_at;
  if (torn) record.resize(record.size() - payload_size / 2 - 1);
  log_.write(record.data(), static_cast<std::streamsize>(record.size()));
  log_.flush();
  if (torn) {
    // Simulated crash mid-append: the tail record is torn.
    std::_Exit(42);
  }
  if (!log_) {
    util::warn_once("ckpt-log-write-failed:" + dir_.string(), "ckpt",
                    "round log append failed; later rounds will be "
                    "re-evaluated on resume");
    failed_ = true;
  }
}

}  // namespace lcda::ckpt
