// Explainable NAS demo (paper Sec. V, future work #1): run a short LCDA
// search and, after each episode, ask the LLM to explain the change it made
// relative to the previous design — "transparency that breaks the black box
// nature of RL-based NAS".
//
// Usage: ./build/example_explain_search [episodes] [seed]
//
// Search space, evaluator and reward come from the "paper-energy" scenario
// in the registry. LCDA_PARALLELISM sets the evaluation-engine worker
// count (0 = one per hardware thread) — the LLM proposes sequentially, but
// evaluations inside a batch still fan out; traces are bit-identical for
// every setting.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/llm/explain.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/util/strings.h"

int main(int argc, char** argv) {
  using namespace lcda;
  const auto args = core::positional_args(argc, argv);
  const char* usage = "example_explain_search [episodes] [seed]";
  const int episodes = core::positive_count_arg(args, 0, 6, usage);
  const std::uint64_t seed = core::seed_arg(args, 1, 3, usage);

  const core::ExperimentConfig cfg = core::scenario_by_name("paper-energy").config;
  const search::SearchSpace space(cfg.space);
  llm::SimulatedGpt4::Options gopts;
  gopts.seed = seed;
  auto client = std::make_shared<llm::SimulatedGpt4>(gopts);
  llm::LlmOptimizer optimizer(space, client);
  core::SurrogateEvaluator evaluator(cfg.evaluator);
  const core::RewardFunction reward = core::make_reward(cfg);

  core::CodesignLoop::Options lopts;
  lopts.episodes = episodes;
  lopts.parallelism = core::env_parallelism();
  core::CodesignLoop loop(optimizer, evaluator, reward, lopts);
  util::Rng rng(seed);
  const core::RunResult run = loop.run(rng);

  // A separate Explainer session against the same (simulated) model.
  llm::Explainer explainer(client);
  for (std::size_t i = 0; i < run.episodes.size(); ++i) {
    const auto& ep = run.episodes[i];
    std::printf("episode %zu: %s  -> reward %+.3f\n", i,
                ep.design.rollout_text().c_str(), ep.reward);
    if (i == 0) {
      std::printf("  (first proposal: drawn from the model's pretrained "
                  "design knowledge — no cold start)\n\n");
      continue;
    }
    llm::HistoryEntry prev;
    prev.design = run.episodes[i - 1].design;
    prev.performance = run.episodes[i - 1].reward;
    llm::HistoryEntry cur;
    cur.design = ep.design;
    cur.performance = ep.reward;
    const std::string why =
        explainer.explain(prev, cur, llm::Objective::kEnergy);
    std::printf("  LLM explanation:\n");
    for (const auto& line : util::split(why, '\n')) {
      std::printf("    %s\n", line.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
