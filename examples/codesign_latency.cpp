// Co-design on the accuracy-latency objective (paper Sec. IV-B) — the
// experiment where LCDA's pretrained priors mislead it: GPT-4 believes
// smaller kernels always mean lower latency and larger kernels always mean
// higher accuracy, neither of which holds on variation-prone CiM hardware.
//
// Usage: ./build/example_codesign_latency [lcda_episodes] [nacim_episodes] [seed]
//
// Runs the "paper-latency" scenario from the registry (equivalently:
// `lcda_run --scenario=paper-latency --strategy=lcda,nacim`). The
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
  const char* usage = "example_codesign_latency [lcda_episodes] [nacim_episodes] [seed]";
  core::ExperimentConfig cfg = core::scenario_by_name("paper-latency").config;
  cfg.lcda_episodes = core::positive_count_arg(args, 0, 20, usage);
  cfg.nacim_episodes = core::positive_count_arg(args, 1, 500, usage);
  cfg.seed = core::seed_arg(args, 2, 1, usage);
  cfg.parallelism = core::env_parallelism();

  const core::RunResult lcda =
      core::run_strategy(core::Strategy::kLcda, cfg.lcda_episodes, cfg);
  const core::RunResult nacim =
      core::run_strategy(core::Strategy::kNacimRl, cfg.nacim_episodes, cfg);

  std::printf("== LCDA candidates (latency ns, accuracy) ==\n");
  for (const auto& ep : lcda.episodes) {
    std::printf("  ep %2d  L %.3g ns  acc %.3f  reward %+.3f  %s\n", ep.episode,
                ep.latency_ns, ep.accuracy, ep.reward,
                ep.design.rollout_text().c_str());
  }

  const auto lp = core::tradeoff_points(lcda, llm::Objective::kLatency);
  const auto np = core::tradeoff_points(nacim, llm::Objective::kLatency);
  double lcda_min = 1e18, nacim_min = 1e18;
  for (const auto& p : lp.points) lcda_min = std::min(lcda_min, p.cost);
  for (const auto& p : np.points) nacim_min = std::min(nacim_min, p.cost);

  std::printf("\nfastest valid design: LCDA %.3g ns vs NACIM %.3g ns\n",
              lcda_min, nacim_min);
  std::printf("best reward: LCDA %.3f vs NACIM %.3f\n", lcda.best_reward(),
              nacim.best_reward());
  if (nacim.best_reward() >= lcda.best_reward()) {
    std::printf("-> as in the paper, LCDA falls short on the latency "
                "objective: its kernel-size priors do not transfer to CiM.\n");
  } else {
    std::printf("-> with this seed LCDA edged out NACIM (the paper's outlier "
                "in the upper-left corner).\n");
  }
  return 0;
}
