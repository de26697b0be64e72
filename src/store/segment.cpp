#include "lcda/store/segment.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::store {

namespace {

constexpr std::uint32_t kFlagCostValid = 1u << 0;
constexpr std::uint32_t kFlagHasReplay = 1u << 1;

std::uint64_t checksum_bytes(const std::uint8_t* p, std::size_t n) {
  return util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(p), n));
}

void put_u64(std::uint8_t* p, std::size_t off, std::uint64_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_u32(std::uint8_t* p, std::size_t off, std::uint32_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_f64(std::uint8_t* p, std::size_t off, double v) {
  std::memcpy(p + off, &v, sizeof v);
}

void put_i64(std::uint8_t* p, std::size_t off, std::int64_t v) {
  std::memcpy(p + off, &v, sizeof v);
}

std::uint64_t get_u64(const std::uint8_t* p, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

std::uint32_t get_u32(const std::uint8_t* p, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

double get_f64(const std::uint8_t* p, std::size_t off) {
  double v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

std::int64_t get_i64(const std::uint8_t* p, std::size_t off) {
  std::int64_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

}  // namespace

bool record_encodable(const StoreRecord& record) {
  return record.evaluation.cost.invalid_reason.size() <= kMaxReason;
}

void encode_record(const StoreRecord& record, std::uint8_t* out) {
  const core::Evaluation& ev = record.evaluation;
  const cim::CostReport& c = ev.cost;
  std::memset(out, 0, kRecordSize);
  put_u64(out, 0, record.eval_fingerprint);
  put_u64(out, 8, record.design_hash);
  put_u64(out, 16, record.stream_fingerprint);
  put_u64(out, 24, record.seq);
  std::uint32_t flags = 0;
  if (c.valid) flags |= kFlagCostValid;
  if (ev.has_replay_params) flags |= kFlagHasReplay;
  put_u32(out, 32, flags);
  put_u32(out, 36, static_cast<std::uint32_t>(c.invalid_reason.size()));
  std::size_t off = 40;
  core::for_each_evaluation_field(ev, [&](const auto& v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      put_f64(out, off, v);
    } else {
      put_i64(out, off, static_cast<std::int64_t>(v));
    }
    off += 8;
  });
  std::memcpy(out + 224, c.invalid_reason.data(), c.invalid_reason.size());
  put_u64(out, kRecordSize - 8, checksum_bytes(out, kRecordSize - 8));
}

StoreRecord decode_record(const std::uint8_t* bytes) {
  StoreRecord record;
  record.eval_fingerprint = get_u64(bytes, 0);
  record.design_hash = get_u64(bytes, 8);
  record.stream_fingerprint = get_u64(bytes, 16);
  record.seq = get_u64(bytes, 24);
  const std::uint32_t flags = get_u32(bytes, 32);
  const std::uint32_t reason_len =
      std::min<std::uint32_t>(get_u32(bytes, 36), kMaxReason);

  core::Evaluation& ev = record.evaluation;
  cim::CostReport& c = ev.cost;
  std::size_t off = 40;
  core::for_each_evaluation_field(ev, [&](auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_floating_point_v<T>) {
      v = get_f64(bytes, off);
    } else {
      v = static_cast<T>(get_i64(bytes, off));
    }
    off += 8;
  });
  c.valid = (flags & kFlagCostValid) != 0;
  ev.has_replay_params = (flags & kFlagHasReplay) != 0;
  c.invalid_reason.assign(reinterpret_cast<const char*>(bytes) + 224,
                          reason_len);
  return record;
}

bool record_checksum_ok(const std::uint8_t* bytes) {
  return get_u64(bytes, kRecordSize - 8) ==
         checksum_bytes(bytes, kRecordSize - 8);
}

std::optional<SegmentView> SegmentView::open(const std::string& path,
                                             std::string* error) {
  if (error) error->clear();
  std::string map_error;
  util::MmapFile file = util::MmapFile::open(path, &map_error);
  if (!map_error.empty()) {
    // A file that vanished between listing and open is the live-compaction
    // race, not damage: report "" so the caller skips it silently.
    if (error && std::filesystem::exists(path)) *error = map_error;
    return std::nullopt;
  }
  if (file.size() < kHeaderSize) {
    if (error) *error = path + ": truncated header";
    return std::nullopt;
  }
  const std::uint8_t* h = file.data();
  if (std::memcmp(h, kSegmentMagic, sizeof kSegmentMagic) != 0) {
    if (error) *error = path + ": bad magic (not a lcda-store-v2 segment)";
    return std::nullopt;
  }
  if (get_u64(h, 24) != checksum_bytes(h, 24)) {
    if (error) *error = path + ": header checksum mismatch";
    return std::nullopt;
  }
  // Division, not `kHeaderSize + count * kRecordSize`: that product wraps,
  // and a count off by a multiple of 2^61 would pass for the file's own.
  const std::uint64_t count = get_u64(h, 8);
  const std::size_t body = file.size() - kHeaderSize;
  if (body % kRecordSize != 0 || count != body / kRecordSize) {
    if (error) *error = path + ": size does not match (header claims " +
                        std::to_string(count) + " records)";
    return std::nullopt;
  }
  SegmentView view;
  view.path_ = path;
  view.count_ = static_cast<std::size_t>(count);
  view.max_seq_ = get_u64(h, 16);
  view.file_ = std::move(file);
  return view;
}

std::size_t SegmentView::lower_bound(std::uint64_t eval_fp,
                                     std::uint64_t design_hash) const {
  std::size_t lo = 0, hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint8_t* rec = record(mid);
    const std::uint64_t e = get_u64(rec, 0);
    const std::uint64_t d = get_u64(rec, 8);
    if (e < eval_fp || (e == eval_fp && d < design_hash)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool SegmentView::matches_pair(std::size_t i, std::uint64_t eval_fp,
                               std::uint64_t design_hash) const {
  if (i >= count_) return false;
  const std::uint8_t* rec = record(i);
  return get_u64(rec, 0) == eval_fp && get_u64(rec, 8) == design_hash;
}

std::vector<std::uint8_t> serialize_segment(
    const std::vector<StoreRecord>& records) {
  std::vector<std::uint8_t> bytes(kHeaderSize + records.size() * kRecordSize);
  std::uint8_t* h = bytes.data();
  std::memcpy(h, kSegmentMagic, sizeof kSegmentMagic);
  put_u64(h, 8, records.size());
  std::uint64_t max_seq = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    max_seq = std::max(max_seq, records[i].seq);
    encode_record(records[i], h + kHeaderSize + i * kRecordSize);
  }
  put_u64(h, 16, max_seq);
  put_u64(h, 24, checksum_bytes(h, 24));
  return bytes;
}

std::vector<std::string> list_segment_files(const std::string& directory) {
  std::vector<std::string> paths;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return paths;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.rfind(".seg") == name.size() - 4) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

namespace {

bool take(std::string_view& s, std::string_view literal) {
  if (!s.starts_with(literal)) return false;
  s.remove_prefix(literal.size());
  return true;
}

/// A decimal number as std::to_string writes one: digits only, no leading
/// zero unless the number is 0, no overflow.
bool take_decimal(std::string_view& s, std::uint64_t* value) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  const auto len = static_cast<std::size_t>(end - s.data());
  if (ec != std::errc() || (len > 1 && s[0] == '0')) return false;
  s.remove_prefix(len);
  *value = v;
  return true;
}

/// Value of each lowercase hex digit; 16 for every other byte.
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(16);
  for (int d = 0; d < 10; ++d) table['0' + d] = static_cast<std::uint8_t>(d);
  for (int d = 0; d < 6; ++d) table['a' + d] = static_cast<std::uint8_t>(10 + d);
  return table;
}();

/// Exactly 16 lowercase hex digits, as util::hex_u64 writes them. Decoded
/// without a branch per digit: a store open parses every live segment's
/// name, and a branch on each digit of a hash mispredicts about half the
/// time.
bool take_hex16(std::string_view& s, std::uint64_t* value) {
  if (s.size() < 16) return false;
  std::uint64_t v = 0;
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t digit = kHexValue[static_cast<unsigned char>(s[i])];
    seen |= digit;
    v = v << 4 | (digit & 15u);
  }
  if (seen & 16u) return false;
  s.remove_prefix(16);
  *value = v;
  return true;
}

}  // namespace

std::uint64_t segment_namespace(std::uint64_t eval_fp,
                                std::uint64_t stream_fp) {
  return util::hash_combine(eval_fp, stream_fp);
}

std::string segment_name(const SegmentName& name) {
  return "seg-" + util::hex_u64(name.ns) + "-" + std::to_string(name.pid) +
         "-" + std::to_string(name.n) + "-" + util::hex_u64(name.hash) +
         ".seg";
}

bool parse_segment_name(std::string_view filename, SegmentName* name) {
  SegmentName parsed;
  if (!take(filename, "seg-") || !take_hex16(filename, &parsed.ns) ||
      !take(filename, "-") || !take_decimal(filename, &parsed.pid) ||
      !take(filename, "-") || !take_decimal(filename, &parsed.n) ||
      !take(filename, "-") || !take_hex16(filename, &parsed.hash) ||
      filename != ".seg") {
    return false;
  }
  *name = parsed;
  return true;
}

std::size_t bucket_of(std::uint64_t eval_fp, std::uint64_t design_hash,
                      std::size_t buckets) {
  return static_cast<std::size_t>(util::hash_combine(eval_fp, design_hash) %
                                  static_cast<std::uint64_t>(buckets));
}

std::string bucket_name(std::size_t index, std::size_t count) {
  return "bucket-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".seg";
}

bool parse_bucket_name(std::string_view filename, std::size_t* index,
                       std::size_t* count) {
  std::uint64_t i = 0, n = 0;
  if (!take(filename, "bucket-") || !take_decimal(filename, &i) ||
      !take(filename, "-of-") || !take_decimal(filename, &n) ||
      filename != ".seg" || i >= n ||
      n > std::numeric_limits<std::size_t>::max()) {
    return false;
  }
  *index = static_cast<std::size_t>(i);
  *count = static_cast<std::size_t>(n);
  return true;
}

std::string_view file_name(std::string_view path) {
  // memrchr, not string_view::rfind: a store open runs this once per file,
  // and the byte-at-a-time loop cost as much as parsing the name.
  const void* slash = ::memrchr(path.data(), '/', path.size());
  return slash == nullptr
             ? path
             : path.substr(static_cast<const char*>(slash) - path.data() + 1);
}

void publish_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  // Unique temp name per process AND per publish: concurrent writers must
  // never interleave into one temp file; rename makes the publish atomic.
  static std::atomic<unsigned long> publish_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(publish_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("store: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) throw std::runtime_error("store: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("store: rename to " + path + " failed");
  }
}

}  // namespace lcda::store
