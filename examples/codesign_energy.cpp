// Full SW/HW co-design run on the accuracy-energy objective (paper
// Sec. IV-A): LCDA's simulated-GPT-4 optimizer versus the NACIM
// reinforcement-learning baseline, on identical evaluators.
//
// Usage: ./build/example_codesign_energy [lcda_episodes] [nacim_episodes] [seed]
//
// Runs the "paper-energy" scenario from the registry (equivalently:
// `lcda_run --scenario=paper-energy --strategy=lcda,nacim`). The
// LCDA_PARALLELISM environment variable sets the evaluation-engine worker
// count (0 = one per hardware thread); episode traces are bit-identical
// for every setting.
#include <cstdio>

#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/core/pareto.h"

int main(int argc, char** argv) {
  using namespace lcda;
  const auto args = core::positional_args(argc, argv);
  const char* usage = "example_codesign_energy [lcda_episodes] [nacim_episodes] [seed]";
  core::ExperimentConfig cfg = core::scenario_by_name("paper-energy").config;
  cfg.lcda_episodes = core::positive_count_arg(args, 0, 20, usage);
  cfg.nacim_episodes = core::positive_count_arg(args, 1, 500, usage);
  cfg.seed = core::seed_arg(args, 2, 1, usage);
  cfg.parallelism = core::env_parallelism();

  std::printf("== LCDA (LLM-driven, %d episodes) ==\n", cfg.lcda_episodes);
  const core::RunResult lcda =
      core::run_strategy(core::Strategy::kLcda, cfg.lcda_episodes, cfg);
  for (const auto& ep : lcda.episodes) {
    std::printf("  ep %2d  reward %+.3f  acc %.3f  E %.3g pJ  %s\n", ep.episode,
                ep.reward, ep.accuracy, ep.energy_pj,
                ep.design.rollout_text().c_str());
  }

  std::printf("\n== NACIM (RL baseline, %d episodes; printing every 50th) ==\n",
              cfg.nacim_episodes);
  const core::RunResult nacim =
      core::run_strategy(core::Strategy::kNacimRl, cfg.nacim_episodes, cfg);
  for (const auto& ep : nacim.episodes) {
    if (ep.episode % 50 == 0 || ep.episode == cfg.nacim_episodes - 1) {
      std::printf("  ep %3d  reward %+.3f  acc %.3f  E %.3g pJ\n", ep.episode,
                  ep.reward, ep.accuracy, ep.energy_pj);
    }
  }

  std::printf("\n== Pareto fronts (energy pJ, accuracy) ==\n");
  for (const auto* run : {&lcda, &nacim}) {
    const auto pts = core::tradeoff_points(*run, llm::Objective::kEnergy);
    const auto front = core::pareto_front(pts.points);
    std::printf("%s:", run == &lcda ? "LCDA " : "NACIM");
    for (auto i : front) {
      std::printf(" (%.2g, %.2f)", pts.points[i].cost, pts.points[i].accuracy);
    }
    std::printf("\n");
  }

  std::printf("\nbest reward: LCDA %.3f in %d episodes, NACIM %.3f in %d\n",
              lcda.best_reward(), cfg.lcda_episodes, nacim.best_reward(),
              cfg.nacim_episodes);
  std::printf("best LCDA design: %s\n", lcda.best().design.describe().c_str());
  return 0;
}
