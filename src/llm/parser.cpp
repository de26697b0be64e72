#include "lcda/llm/parser.h"

#include <algorithm>
#include <limits>

#include "lcda/util/strings.h"

namespace lcda::llm {

namespace {

/// Narrows a parsed integer, clamping it to the `int` range first so an
/// over-long number snaps to the nearest end of a choice list instead of
/// wrapping around to an arbitrary value.
int clamp_to_int(long long v) {
  return static_cast<int>(std::clamp<long long>(
      v, std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
}

/// Extracts bracketed integer pairs "[a,b]" (innermost brackets only).
std::vector<std::pair<long long, long long>> extract_pairs(std::string_view s) {
  std::vector<std::pair<long long, long long>> pairs;
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '[') {
      ++i;
      continue;
    }
    const std::size_t close = s.find_first_of("[]", i + 1);
    if (close == std::string_view::npos) break;
    if (s[close] == '[') {
      // Nested bracket: the one at `i` was an outer bracket; descend.
      i = close;
      continue;
    }
    const auto ints = util::extract_ints(s.substr(i + 1, close - i - 1));
    if (ints.size() == 2) pairs.emplace_back(ints[0], ints[1]);
    i = close + 1;
  }
  return pairs;
}

/// Finds the hardware spec after a "hardware" keyword (case-insensitive).
std::optional<cim::HardwareConfig> extract_hardware(std::string_view s,
                                                    const cim::HardwareConfig& base) {
  const std::string lower = util::to_lower(s);
  const std::size_t pos = lower.find("hardware");
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t open = lower.find('[', pos);
  if (open == std::string::npos) return std::nullopt;
  const std::size_t close = lower.find(']', open);
  if (close == std::string::npos) return std::nullopt;
  const std::string_view body = s.substr(open + 1, close - open - 1);

  cim::HardwareConfig hw = base;
  if (util::contains_icase(body, "fefet")) {
    hw.device = cim::DeviceType::kFefet;
  } else if (util::contains_icase(body, "rram")) {
    hw.device = cim::DeviceType::kRram;
  } else if (util::contains_icase(body, "sram")) {
    hw.device = cim::DeviceType::kSram;
  }
  const auto ints = util::extract_ints(body);
  if (ints.size() >= 4) {
    hw.bits_per_cell = clamp_to_int(ints[0]);
    hw.adc_bits = clamp_to_int(ints[1]);
    hw.xbar_size = clamp_to_int(ints[2]);
    hw.col_mux = clamp_to_int(ints[3]);
  }
  return hw;
}

}  // namespace

ParseResult parse_design_response(std::string_view text,
                                  const search::SearchSpace& space) {
  ParseResult result;
  const int layers = space.conv_layers();

  const auto pairs = extract_pairs(text);
  if (static_cast<int>(pairs.size()) < layers) {
    result.error = "expected " + std::to_string(layers) +
                   " [channels,kernel] pairs, found " +
                   std::to_string(pairs.size());
    return result;
  }

  search::Design raw;
  for (int i = 0; i < layers; ++i) {
    nn::ConvSpec spec;
    spec.channels = clamp_to_int(pairs[static_cast<std::size_t>(i)].first);
    spec.kernel = clamp_to_int(pairs[static_cast<std::size_t>(i)].second);
    raw.rollout.push_back(spec);
  }

  // Hardware line is optional; defaults come from the config default ctor.
  if (const auto hw = extract_hardware(text, raw.hw)) {
    raw.hw = *hw;
  }

  const search::Design snapped = space.snap(raw);
  // Count repairs so callers can log how compliant the model was.
  for (std::size_t i = 0; i < snapped.rollout.size(); ++i) {
    if (snapped.rollout[i].channels != raw.rollout[i].channels) ++result.repairs;
    if (snapped.rollout[i].kernel != raw.rollout[i].kernel) ++result.repairs;
  }
  if (snapped.hw != raw.hw) ++result.repairs;

  result.design = snapped;
  result.ok = true;
  return result;
}

}  // namespace lcda::llm
