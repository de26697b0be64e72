#pragma once

#include <memory>
#include <vector>

#include "lcda/llm/client.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/search/optimizer.h"
#include "lcda/search/space.h"

namespace lcda::llm {

/// The LCDA design optimizer (paper Sec. III-A): an LLM behind the
/// Algorithm-1 prompt loop, usable anywhere a search::Optimizer is.
///
/// propose() builds the prompt from the accumulated history, queries the
/// client, and parses the answer; malformed answers are retried and, after
/// `max_parse_retries`, replaced by a uniform random sample so the co-design
/// loop never stalls on a misbehaving model. Each exchange is recorded with
/// the history length its prompt carried rather than a copy of the prompt,
/// so a long study's transcript grows by a response per turn, not by the
/// whole re-sent history.
class LlmOptimizer final : public search::Optimizer {
 public:
  struct Options {
    PromptBuilder::Options prompt;
    int max_parse_retries = 3;
  };

  LlmOptimizer(search::SearchSpace space, std::shared_ptr<LlmClient> client)
      : LlmOptimizer(std::move(space), std::move(client), Options{}) {}
  LlmOptimizer(search::SearchSpace space, std::shared_ptr<LlmClient> client,
               Options opts);

  [[nodiscard]] search::Design propose(util::Rng& rng) override;
  void feedback(const search::Observation& obs) override;
  [[nodiscard]] std::string name() const override;

  /// One prompt/response exchange, kept for explainability (the paper's
  /// first future-work direction: the dialogue is human-readable). The
  /// prompt is not copied: it is the one a PromptBuilder renders from the
  /// first `history_length` entries of history(), and prompt() renders it
  /// again.
  struct Exchange {
    std::size_t history_length = 0;
    std::string response;
    bool parsed_ok = false;
    int repairs = 0;
  };
  [[nodiscard]] const std::vector<Exchange>& transcript() const {
    return transcript_;
  }
  [[nodiscard]] const std::vector<HistoryEntry>& history() const {
    return history_;
  }

  /// The prompt text `ex` sent (ChatRequest::full_text()), byte for byte,
  /// re-rendered through a fresh PromptBuilder with this optimizer's space
  /// and prompt options.
  [[nodiscard]] std::string prompt(const Exchange& ex) const;

 private:
  search::SearchSpace space_;
  std::shared_ptr<LlmClient> client_;
  Options opts_;
  PromptBuilder builder_;
  std::vector<HistoryEntry> history_;
  std::vector<Exchange> transcript_;
};

}  // namespace lcda::llm
