#pragma once

#include <string>
#include <vector>

namespace lcda::llm {

/// One chat turn.
struct ChatMessage {
  enum class Role { kSystem, kUser, kAssistant };
  Role role = Role::kUser;
  std::string content;
};

struct ChatRequest {
  std::vector<ChatMessage> messages;

  /// Concatenated text of all messages (what prompt-driven simulators read).
  [[nodiscard]] std::string full_text() const;
};

struct ChatResponse {
  std::string content;
};

/// Abstract LLM endpoint (paper: GPT-4 behind an API).
///
/// This reproduction has no network access, so production use runs against
/// SimulatedGpt4 — a deterministic stand-in that consumes the real prompt
/// text (see README "The LLM turn"). The interface matches what a thin
/// HTTPS client would expose, so a real backend can be swapped in.
class LlmClient {
 public:
  virtual ~LlmClient() = default;

  /// Completes a chat exchange. Implementations may throw LlmError on
  /// unrecoverable transport problems; the optimizer retries.
  [[nodiscard]] virtual ChatResponse complete(const ChatRequest& request) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace lcda::llm
