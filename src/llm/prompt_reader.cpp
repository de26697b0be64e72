#include "lcda/llm/prompt_reader.h"

#include <algorithm>
#include <optional>

#include "lcda/util/strings.h"

namespace lcda::llm {

namespace {

// The reader lowers the prompt into one reused buffer and looks every key
// up on it. Folding keeps each byte in place and leaves digits, signs and
// braces alone, so positions and integers read off the lowered text are
// those of the original. Markers the format spells in one case
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

void braced_ints_after(std::string_view lower, std::string_view key,
                       std::vector<long long>& ints, std::vector<int>& out) {
  out.clear();
  if (const auto body = braced_after(lower, key)) {
    util::extract_ints(*body, ints);
    for (long long v : ints) out.push_back(static_cast<int>(v));
  }
}

void devices_after(std::string_view lower, std::string_view key,
                   std::vector<cim::DeviceType>& out) {
  out.clear();
  const auto body = braced_after(lower, key);
  if (!body) return;
  if (body->find("rram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kRram);
  }
  if (body->find("fefet") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kFefet);
  }
  if (body->find("sram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kSram);
  }
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

const PromptFacts& PromptReader::read(std::string_view text) {
  ++reads_;
  util::to_lower(text, lower_);
  const std::string_view lower = lower_;
  PromptFacts& facts = facts_;

  facts.codesign_context =
      lower.find("neural architecture search") != std::string_view::npos ||
      lower.find("model architecture") != std::string_view::npos;
  facts.objective = lower.find("inference latency") != std::string_view::npos
                        ? Objective::kLatency
                        : Objective::kEnergy;

  braced_ints_after(lower, "channels per layer:", ints_, facts.channel_choices);
  braced_ints_after(lower, "kernel sizes:", ints_, facts.kernel_choices);
  devices_after(lower, "device in", facts.device_choices);
  braced_ints_after(lower, "bits_per_cell in", ints_, facts.bits_per_cell_choices);
  braced_ints_after(lower, "adc_bits in", ints_, facts.adc_bits_choices);
  braced_ints_after(lower, "xbar_size in", ints_, facts.xbar_choices);
  braced_ints_after(lower, "col_mux in", ints_, facts.mux_choices);

  // "...rollout list consisting of N number pairs" (expert prompt) or
  // "...list of N number pairs" (naive prompt): the integer directly
  // preceding the "number pairs" marker.
  facts.conv_layers = PromptFacts{}.conv_layers;
  const std::size_t pairs_marker = text.find(" number pairs");
  if (pairs_marker != std::string_view::npos) {
    const std::size_t window = std::min<std::size_t>(pairs_marker, 24);
    util::extract_ints(text.substr(pairs_marker - window, window), ints_);
    if (!ints_.empty() && ints_.back() > 0 && ints_.back() <= 32) {
      facts.conv_layers = static_cast<int>(ints_.back());
    }
  }

  // The history, one line at a time through the memo. Consecutive prompts
  // share runs of lines in order, so a line equal to the one that followed
  // the previous match in the last read is taken without a hash lookup.
  // Entries are assigned over the previous read's, so their rollouts keep
  // their storage.
  std::swap(order_, previous_order_);
  order_.clear();
  std::size_t expected = 0;  // index into previous_order_
  std::size_t entries = 0;
  keys_.clear();
  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t newline = text.find('\n', begin);
    const std::size_t size =
        (newline == std::string_view::npos ? text.size() : newline) - begin;
    const std::string_view line = text.substr(begin, size);
    MemoEntry* memo = nullptr;
    if (expected < previous_order_.size() &&
        previous_order_[expected]->first == line) {
      memo = previous_order_[expected++];
    } else {
      auto it = memo_.find(line);
      if (it == memo_.end()) {
        Line parsed;
        parsed.is_history = parse_history_line(line, lower.substr(begin, size),
                                               ints_, parsed.entry);
        if (parsed.is_history) parsed.key = parsed.entry.design.hash();
        it = memo_.emplace(line, std::move(parsed)).first;
      }
      memo = &*it;
      expected = memo->second.last_read + 1 == reads_ ? memo->second.position + 1
                                                      : previous_order_.size();
    }
    Line& seen = memo->second;
    seen.last_read = reads_;
    seen.position = order_.size();
    order_.push_back(memo);
    if (seen.is_history) {
      if (entries < facts.history.size()) {
        facts.history[entries] = seen.entry;
      } else {
        facts.history.push_back(seen.entry);
      }
      keys_.push_back(seen.key);
      ++entries;
    }
    begin += size + 1;
  }
  previous_order_.clear();
  facts.history.resize(entries);

  // Lines absent from this prompt go once the memo holds more than twice
  // its lines, so eviction costs O(1) per read, amortized.
  if (memo_.size() > 2 * order_.size()) {
    std::erase_if(memo_,
                  [&](const auto& kv) { return kv.second.last_read != reads_; });
  }
  return facts;
}

PromptFacts read_prompt(std::string_view text) {
  PromptReader reader;
  return reader.read(text);
}

}  // namespace lcda::llm
