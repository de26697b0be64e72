#include "lcda/llm/llm_optimizer.h"

#include <algorithm>
#include <stdexcept>

#include "lcda/util/logging.h"

namespace lcda::llm {

LlmOptimizer::LlmOptimizer(search::SearchSpace space,
                           std::shared_ptr<LlmClient> client, Options opts)
    : space_(std::move(space)),
      client_(std::move(client)),
      opts_(opts),
      builder_(space_, opts.prompt) {
  if (!client_) throw std::invalid_argument("LlmOptimizer: null client");
}

std::string LlmOptimizer::name() const {
  return opts_.prompt.codesign_context ? "LCDA(" + client_->name() + ")"
                                       : "LCDA-naive(" + client_->name() + ")";
}

search::Design LlmOptimizer::propose(util::Rng& rng) {
  const ChatRequest request = builder_.build();
  for (int attempt = 0; attempt <= opts_.max_parse_retries; ++attempt) {
    ChatResponse response = client_->complete(request);
    const ParseResult parsed = parse_design_response(response.content, space_);
    Exchange ex;
    ex.history_length = history_.size();
    ex.response = std::move(response.content);
    ex.parsed_ok = parsed.ok;
    ex.repairs = parsed.repairs;
    transcript_.push_back(std::move(ex));
    if (parsed.ok) return parsed.design;
    util::Logger("llm").warn()
        << "unparseable LLM response (attempt " << attempt << "): "
        << parsed.error;
  }
  // The model kept misbehaving; keep the loop alive with a random design.
  util::Logger("llm").warn() << "falling back to a random design";
  return space_.sample(rng);
}

std::string LlmOptimizer::prompt(const Exchange& ex) const {
  // Only the newest max_history entries are shown, but a prompt with any
  // history at all carries the history intro, so at least one is added.
  const std::size_t shown = std::min(
      ex.history_length, std::max<std::size_t>(opts_.prompt.max_history, 1));
  PromptBuilder builder(space_, opts_.prompt);
  for (std::size_t i = ex.history_length - shown; i < ex.history_length; ++i) {
    builder.add(history_[i]);
  }
  return builder.build().full_text();
}

void LlmOptimizer::feedback(const search::Observation& obs) {
  HistoryEntry entry;
  entry.design = obs.design;
  entry.performance = obs.reward;
  builder_.add(entry);
  history_.push_back(std::move(entry));
}

}  // namespace lcda::llm
