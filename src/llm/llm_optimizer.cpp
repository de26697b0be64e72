#include "lcda/llm/llm_optimizer.h"

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
    const ChatResponse response = client_->complete(request);
    const ParseResult parsed = parse_design_response(response.content, space_);
    Exchange ex;
    ex.prompt = request.full_text();
    ex.response = response.content;
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

void LlmOptimizer::feedback(const search::Observation& obs) {
  HistoryEntry entry;
  entry.design = obs.design;
  entry.performance = obs.reward;
  builder_.add(entry);
  history_.push_back(std::move(entry));
}

}  // namespace lcda::llm
