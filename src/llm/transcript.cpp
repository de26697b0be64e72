#include "lcda/llm/transcript.h"

#include "lcda/util/strings.h"

namespace lcda::llm {

void write_exchange_markdown(std::ostream& os, std::string_view prompt,
                             const LlmOptimizer::Exchange& ex, std::size_t index) {
  os << "## Exchange " << index << "\n\n";
  os << "**Prompt:**\n\n";
  for (const std::string& line : util::split(prompt, '\n')) {
    os << "> " << line << '\n';
  }
  os << "\n**Response:**\n\n```\n" << ex.response;
  if (!ex.response.empty() && ex.response.back() != '\n') os << '\n';
  os << "```\n\n";
  os << "*parsed: " << (ex.parsed_ok ? "ok" : "FAILED");
  if (ex.repairs > 0) os << ", " << ex.repairs << " value(s) snapped to the space";
  os << "*\n\n";
}

void write_transcript_markdown(std::ostream& os, const LlmOptimizer& optimizer,
                               std::string_view title) {
  os << "# " << title << "\n\n";
  os << "Optimizer: " << optimizer.name() << ", " << optimizer.transcript().size()
     << " exchange(s), " << optimizer.history().size() << " evaluated design(s).\n\n";
  for (std::size_t i = 0; i < optimizer.transcript().size(); ++i) {
    const LlmOptimizer::Exchange& ex = optimizer.transcript()[i];
    write_exchange_markdown(os, optimizer.prompt(ex), ex, i);
  }
}

}  // namespace lcda::llm
