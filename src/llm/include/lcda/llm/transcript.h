#pragma once

#include <ostream>

#include "lcda/llm/llm_optimizer.h"

namespace lcda::llm {

/// Renders an optimizer's prompt/response exchanges as markdown — the
/// artifact behind the paper's explainability pitch: the whole search is a
/// human-readable dialogue that can be archived and audited.
///
/// Format: one section per exchange with the prompt in a quoted block and
/// the model's reply in a code fence, plus parse diagnostics.
void write_transcript_markdown(std::ostream& os, const LlmOptimizer& optimizer,
                               std::string_view title = "LCDA search transcript");

/// One-exchange variant (used by tools that stream episodes): `prompt` is
/// the exchange's prompt text, LlmOptimizer::prompt(ex).
void write_exchange_markdown(std::ostream& os, std::string_view prompt,
                             const LlmOptimizer::Exchange& ex, std::size_t index);

}  // namespace lcda::llm
