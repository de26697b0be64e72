#pragma once

#include <cstdint>

#include "lcda/llm/client.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/util/rng.h"

namespace lcda::llm {

/// Deterministic, prompt-driven stand-in for GPT-4 (README "The LLM
/// turn").
///
/// The simulator reads ONLY the prompt text (via read_prompt), re-reading
/// the whole prompt every turn and keeping nothing derived from an earlier
/// one — design space, objective, task framing and history all round-trip
/// through the real Algorithm-1 prompt — and answers in free text that must
/// survive the real response parser. Its policy encodes the behaviour the
/// paper attributes to GPT-4:
///
/// With co-design framing (LCDA):
///  * no cold start — the first proposal is already a sensible
///    VGG-progression CIFAR topology on a standard hardware point;
///  * hill-climbs on the best design in the prompt's history;
///  * "always maintains logical design choices": output channels
///    non-decreasing, never growing by more than 4x, no 1x1-kernel layers
///    (paper Sec. IV-A);
///  * explores a spectrum of channel scalings under the energy objective
///    (paper: "a spectrum of candidate designs with various energy
///    consumptions, all yielding a reasonably high level of accuracy");
///  * carries GPT-4's two *incorrect* CiM priors (paper Sec. IV-B): it
///    enlarges kernels to chase accuracy and shrinks them to chase latency,
///    neither of which holds on variation-prone CiM hardware — this is what
///    makes the latency experiment (Fig. 4) fail for LCDA;
///  * backs off to smaller channels/crossbars after seeing -1 (invalid
///    area) rewards.
///
/// Without co-design framing (LCDA-naive, Fig. 5): the same model sees only
/// "pick numbers to maximize a score" and falls back to generic numeric
/// priors — bigger-is-better sweeps, unconstrained random walks, verbatim
/// repeats — producing the scattered low-quality candidates of Fig. 5.
class SimulatedGpt4 final : public LlmClient {
 public:
  struct Options {
    std::uint64_t seed = 7;
    /// Probability of prepending conversational chatter (exercises the
    /// parser's recovery path, like a mildly non-compliant GPT-4).
    double chatter_probability = 0.15;
    /// Probability of sloppy spacing inside the rollout brackets.
    double format_noise_probability = 0.10;
    /// Disable to ablate the incorrect CiM kernel priors of Sec. IV-B
    /// (i.e. simulate the fine-tuned model the authors could not build).
    bool wrong_cim_kernel_priors = true;
  };

  SimulatedGpt4() : SimulatedGpt4(Options{}) {}
  explicit SimulatedGpt4(Options opts);

  [[nodiscard]] ChatResponse complete(const ChatRequest& request) override;
  [[nodiscard]] std::string name() const override { return "SimulatedGPT4"; }

 private:
  [[nodiscard]] search::Design expert_propose(const PromptFacts& facts);
  [[nodiscard]] search::Design generic_propose(const PromptFacts& facts);
  [[nodiscard]] std::string render(const search::Design& design);
  /// Answers an Explainer prompt by diffing the last two designs in the
  /// prompt's history and narrating the heuristic behind each change.
  [[nodiscard]] std::string explain_change(const PromptFacts& facts) const;

  Options opts_;
  util::Rng rng_;
};

}  // namespace lcda::llm
