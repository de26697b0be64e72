#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lcda/llm/prompt.h"
#include "lcda/search/design.h"
#include "lcda/search/space.h"

namespace lcda::llm {

/// Everything a prompt-driven model can recover from the Algorithm-1 prompt
/// text. SimulatedGpt4 *only* sees the prompt — exactly like the real GPT-4
/// — so all task knowledge must round-trip through this reader. That keeps
/// the prompt format honest: if PromptBuilder stopped emitting something,
/// the simulated optimizer would genuinely lose that information (the
/// reader's line memo only spares re-parsing bytes the prompt still
/// carries).
struct PromptFacts {
  /// True when the prompt frames the task as NAS / SW-HW co-design (the
  /// LCDA-naive ablation strips this framing).
  bool codesign_context = false;

  /// Which hardware metric the prompt names (energy when unspecified).
  Objective objective = Objective::kEnergy;

  /// Channel / kernel choices recovered from the choices line.
  std::vector<int> channel_choices;
  std::vector<int> kernel_choices;

  /// Hardware knob choices recovered from the choices line.
  std::vector<cim::DeviceType> device_choices;
  std::vector<int> bits_per_cell_choices;
  std::vector<int> adc_bits_choices;
  std::vector<int> xbar_choices;
  std::vector<int> mux_choices;

  /// Conv layer count implied by the response-format sentence (default 6).
  int conv_layers = 6;

  /// The (design, performance) history, oldest first.
  std::vector<HistoryEntry> history;
};

/// Reads prompts one after another. Algorithm 1 re-sends the whole history
/// every turn, so a history line stays byte-identical for up to
/// `max_history` prompts; the reader keeps what it parsed of each line,
/// keyed by the line's full bytes, and parses only lines it has not seen.
/// Consecutive prompts also share runs of lines in order, so a line equal
/// to the one that followed its predecessor in the previous prompt skips
/// even the hash lookup.
///
/// The memo is exact: a line's parse reads only the line and its
/// ASCII-lowered copy, a bytewise function of the line, so a hit returns
/// what a fresh parse would. Everything else (choices, objective, framing,
/// layer count) is read from the whole prompt on every call, and lines
/// absent from the latest prompt are evicted, so the memo holds at most
/// twice the latest prompt's lines. The facts are still a function of the
/// current prompt's bytes alone.
class PromptReader {
 public:
  PromptReader() = default;
  // The memo's line order points into the memo itself, so a copy would
  // point into its source; moving keeps the nodes it points to.
  PromptReader(const PromptReader&) = delete;
  PromptReader& operator=(const PromptReader&) = delete;
  PromptReader(PromptReader&&) = default;
  PromptReader& operator=(PromptReader&&) = default;

  /// Reads `prompt_text` (system + user text). Never throws; missing
  /// pieces are left at defaults. The facts stay valid until the next read.
  [[nodiscard]] const PromptFacts& read(std::string_view prompt_text);

  /// design.hash() of each entry of the last read's history, in order.
  [[nodiscard]] const std::vector<std::uint64_t>& history_keys() const {
    return keys_;
  }

  /// Distinct lines held in the memo (at most twice the latest prompt's).
  [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }

 private:
  struct Line {
    bool is_history = false;  ///< the line parsed as a history entry
    HistoryEntry entry;
    std::uint64_t key = 0;        ///< entry.design.hash()
    std::uint64_t last_read = 0;  ///< the latest read that held the line
    std::size_t position = 0;     ///< its index among that read's lines
  };
  struct LineHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view line) const {
      return std::hash<std::string_view>{}(line);
    }
  };

  using Memo = std::unordered_map<std::string, Line, LineHash, std::equal_to<>>;
  using MemoEntry = Memo::value_type;

  Memo memo_;
  std::uint64_t reads_ = 0;
  std::vector<MemoEntry*> order_;           ///< the latest read's lines
  std::vector<MemoEntry*> previous_order_;  ///< the read before, during a read
  std::string lower_;                       ///< the lowered prompt, reused
  std::vector<long long> ints_;  ///< the integer buffer every field reuses
  PromptFacts facts_;
  std::vector<std::uint64_t> keys_;
};

/// One prompt through a fresh PromptReader.
[[nodiscard]] PromptFacts read_prompt(std::string_view prompt_text);

}  // namespace lcda::llm
