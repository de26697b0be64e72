#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace lcda::util {

/// Append-only little-endian byte encoder for checkpoint records. The
/// counterpart BinaryReader refuses to read past the end instead of
/// throwing, so a truncated (torn) blob surfaces as `!ok()` at the first
/// missing byte — the property the round-log reader leans on.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

 private:
  void raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  std::string& out_;
};

/// Bounds-checked decoder over a byte view. Every accessor returns false
/// (and latches `!ok()`) once the view is exhausted or a length prefix
/// overruns it; values read after a failure are zero/empty. `done()` is
/// true only when the whole view was consumed cleanly — trailing garbage
/// is as suspicious as truncation for a checksummed blob.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    v = 0;
    if (!take(1)) return false;
    v = static_cast<std::uint8_t>(data_[pos_ - 1]);
    return true;
  }

  bool u32(std::uint32_t& v) { return fixed(v); }
  bool u64(std::uint64_t& v) { return fixed(v); }

  bool i64(std::int64_t& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) {
      v = 0;
      return false;
    }
    v = static_cast<std::int64_t>(bits);
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) {
      v = 0.0;
      return false;
    }
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }

  bool str(std::string& s) {
    s.clear();
    std::uint32_t n = 0;
    if (!u32(n) || !take(n)) return false;
    s.assign(data_.data() + pos_ - n, n);
    return true;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  bool fixed(T& v) {
    v = T{};
    if (!take(sizeof(T))) return false;
    std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    return true;
  }

  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace lcda::util
