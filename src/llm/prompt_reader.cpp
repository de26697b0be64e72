#include "lcda/llm/prompt_reader.h"

#include <algorithm>
#include <optional>

#include "lcda/util/strings.h"

namespace lcda::llm {

namespace {

// The reader makes one ASCII-lowered copy of the prompt and looks every
// key up on it. Folding keeps each byte in place and leaves digits, signs
// and braces alone, so positions and integers read off the lowered text
// are those of the original. Markers the format spells in one case
// ("rollout=", " number pairs") are matched case-sensitively on the
// original. `ints` is the one integer buffer every field reuses.

/// The text between the first '{' after `key` and the next '}'.
std::optional<std::string_view> braced_after(std::string_view lower,
                                             std::string_view key) {
  const std::size_t pos = lower.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t open = lower.find('{', pos);
  if (open == std::string_view::npos) return std::nullopt;
  const std::size_t close = lower.find('}', open);
  if (close == std::string_view::npos) return std::nullopt;
  return lower.substr(open + 1, close - open - 1);
}

std::vector<int> braced_ints_after(std::string_view lower, std::string_view key,
                                   std::vector<long long>& ints) {
  std::vector<int> out;
  if (const auto body = braced_after(lower, key)) {
    util::extract_ints(*body, ints);
    for (long long v : ints) out.push_back(static_cast<int>(v));
  }
  return out;
}

std::vector<cim::DeviceType> devices_after(std::string_view lower,
                                           std::string_view key) {
  std::vector<cim::DeviceType> out;
  const auto body = braced_after(lower, key);
  if (!body) return out;
  if (body->find("rram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kRram);
  }
  if (body->find("fefet") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kFefet);
  }
  if (body->find("sram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kSram);
  }
  return out;
}

/// Parses one "rollout=... hardware=... performance=..." history line;
/// `lower_line` is the same line from the lowered copy.
bool parse_history_line(std::string_view line, std::string_view lower_line,
                        std::vector<long long>& ints, HistoryEntry& out) {
  const std::size_t rpos = line.find("rollout=");
  const std::size_t ppos = line.find("performance=");
  if (rpos == std::string_view::npos || ppos == std::string_view::npos) {
    return false;
  }
  // Rollout pairs between "rollout=" and "hardware=" (or "performance=").
  const std::size_t hpos = line.find("hardware=");
  const std::size_t rollout_end = hpos != std::string_view::npos ? hpos : ppos;
  util::extract_ints(line.substr(rpos + 8, rollout_end - (rpos + 8)), ints);
  if (ints.size() < 2 || ints.size() % 2 != 0) return false;
  out.design.rollout.reserve(ints.size() / 2);
  for (std::size_t i = 0; i + 1 < ints.size(); i += 2) {
    nn::ConvSpec spec;
    spec.channels = static_cast<int>(ints[i]);
    spec.kernel = static_cast<int>(ints[i + 1]);
    out.design.rollout.push_back(spec);
  }
  if (hpos != std::string_view::npos) {
    const std::string_view hw_part = lower_line.substr(hpos, ppos - hpos);
    if (hw_part.find("fefet") != std::string_view::npos) {
      out.design.hw.device = cim::DeviceType::kFefet;
    } else if (hw_part.find("sram") != std::string_view::npos) {
      out.design.hw.device = cim::DeviceType::kSram;
    } else {
      out.design.hw.device = cim::DeviceType::kRram;
    }
    util::extract_ints(hw_part, ints);
    if (ints.size() >= 4) {
      out.design.hw.bits_per_cell = static_cast<int>(ints[0]);
      out.design.hw.adc_bits = static_cast<int>(ints[1]);
      out.design.hw.xbar_size = static_cast<int>(ints[2]);
      out.design.hw.col_mux = static_cast<int>(ints[3]);
    }
  }
  const auto perf = util::parse_double(util::trim(line.substr(ppos + 12)));
  if (!perf) return false;
  out.performance = *perf;
  return true;
}

}  // namespace

PromptFacts read_prompt(std::string_view text) {
  const std::string lower_copy = util::to_lower(text);
  const std::string_view lower = lower_copy;
  std::vector<long long> ints;
  PromptFacts facts;

  facts.codesign_context =
      lower.find("neural architecture search") != std::string_view::npos ||
      lower.find("model architecture") != std::string_view::npos;
  facts.objective = lower.find("inference latency") != std::string_view::npos
                        ? Objective::kLatency
                        : Objective::kEnergy;

  facts.channel_choices = braced_ints_after(lower, "channels per layer:", ints);
  facts.kernel_choices = braced_ints_after(lower, "kernel sizes:", ints);
  facts.device_choices = devices_after(lower, "device in");
  facts.bits_per_cell_choices = braced_ints_after(lower, "bits_per_cell in", ints);
  facts.adc_bits_choices = braced_ints_after(lower, "adc_bits in", ints);
  facts.xbar_choices = braced_ints_after(lower, "xbar_size in", ints);
  facts.mux_choices = braced_ints_after(lower, "col_mux in", ints);

  // "...rollout list consisting of N number pairs" (expert prompt) or
  // "...list of N number pairs" (naive prompt): the integer directly
  // preceding the "number pairs" marker.
  const std::size_t pairs_marker = text.find(" number pairs");
  if (pairs_marker != std::string_view::npos) {
    const std::size_t window = std::min<std::size_t>(pairs_marker, 24);
    util::extract_ints(text.substr(pairs_marker - window, window), ints);
    if (!ints.empty() && ints.back() > 0 && ints.back() <= 32) {
      facts.conv_layers = static_cast<int>(ints.back());
    }
  }

  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t newline = text.find('\n', begin);
    const std::size_t size =
        (newline == std::string_view::npos ? text.size() : newline) - begin;
    HistoryEntry entry;
    if (parse_history_line(text.substr(begin, size), lower.substr(begin, size),
                           ints, entry)) {
      facts.history.push_back(std::move(entry));
    }
    begin += size + 1;
  }
  return facts;
}

}  // namespace lcda::llm
