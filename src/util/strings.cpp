#include "lcda/util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

namespace lcda::util {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
char lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  std::size_t e = s.size();
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool contains_icase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(haystack[i + j]) != lower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::string to_lower(std::string_view s) {
  std::string out;
  to_lower(s, out);
  return out;
}

void to_lower(std::string_view s, std::string& out) {
  out.resize(s.size());
  std::transform(s.begin(), s.end(), out.begin(), [](char c) { return lower(c); });
}

std::optional<long long> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

void extract_ints(std::string_view s, std::vector<long long>& out) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    const bool neg = s[i] == '-' && i + 1 < s.size() &&
                     std::isdigit(static_cast<unsigned char>(s[i + 1]));
    if (neg || std::isdigit(static_cast<unsigned char>(s[i]))) {
      std::size_t j = i + (neg ? 1 : 0);
      long long value = 0;
      while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) {
        const int digit = s[j] - '0';
        value = value > (kMax - digit) / 10 ? kMax : value * 10 + digit;
        ++j;
      }
      out.push_back(neg ? -value : value);
      i = j;
    } else {
      ++i;
    }
  }
}

std::vector<long long> extract_ints(std::string_view s) {
  std::vector<long long> out;
  extract_ints(s, out);
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out += s.substr(pos);
      return out;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace lcda::util
