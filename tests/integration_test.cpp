// End-to-end integration tests: the full LCDA pipeline (prompt -> simulated
// GPT-4 -> parser -> evaluators -> reward -> feedback) and the paper's
// qualitative claims, exercised at reduced scale.
#include <gtest/gtest.h>

#include "lcda/core/evaluator.h"
#include "lcda/core/experiment.h"
#include "lcda/core/pareto.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/noise/variation.h"

namespace lcda {
namespace {

using core::ExperimentConfig;
using core::RunResult;
using core::Strategy;

// ----------------------------------------------------- paper-claim checks

TEST(Integration, Fig3ColdStart_LcdaStartsHighNacimStartsLow) {
  ExperimentConfig cfg;
  cfg.seed = 21;
  const RunResult lcda = core::run_strategy(Strategy::kLcda, 20, cfg);
  const RunResult nacim = core::run_strategy(Strategy::kNacimRl, 20, cfg);
  // Paper Fig. 3a: LCDA's very first design is already strong.
  EXPECT_GT(lcda.episodes[0].reward, 0.2);
  // Over the first 20 episodes LCDA's best clearly beats NACIM's.
  EXPECT_GT(lcda.best_reward(), nacim.best_reward() + 0.05);
}

TEST(Integration, Fig3Convergence_NacimApproachesLcdaLate) {
  ExperimentConfig cfg;
  cfg.seed = 22;
  const RunResult lcda = core::run_strategy(Strategy::kLcda, 20, cfg);
  const RunResult nacim = core::run_strategy(Strategy::kNacimRl, 500, cfg);
  const auto nacim_max = nacim.reward_running_max();
  // NACIM learns: the policy's average reward late in the run clearly beats
  // its cold-start average ...
  auto mean_rewards = [&](int from, int to) {
    double s = 0.0;
    for (int i = from; i < to; ++i) {
      s += nacim.episodes[static_cast<std::size_t>(i)].reward;
    }
    return s / (to - from);
  };
  EXPECT_GT(mean_rewards(450, 500), mean_rewards(0, 50) + 0.1);
  // ... and ends within reach of LCDA's 20-episode best (paper: "gradually
  // approaches LCDA's reward values").
  EXPECT_GT(nacim_max[499], 0.8 * lcda.best_reward());
}

TEST(Integration, Fig2Shape_NacimExploresLowAccuracyCorner) {
  // Paper Sec. IV-A: "NACIM prioritizes candidates with lower energy
  // consumption, leading to designs with somewhat diminished accuracy.
  // Conversely, LCDA presents ... all yielding a reasonably high level of
  // accuracy." Check the minimum accuracy over valid candidates.
  ExperimentConfig cfg;
  cfg.seed = 23;
  const RunResult lcda = core::run_strategy(Strategy::kLcda, 20, cfg);
  const RunResult nacim = core::run_strategy(Strategy::kNacimRl, 500, cfg);
  double lcda_min_acc = 1.0, nacim_min_acc = 1.0;
  for (const auto& ep : lcda.episodes) {
    if (ep.valid) lcda_min_acc = std::min(lcda_min_acc, ep.accuracy);
  }
  for (const auto& ep : nacim.episodes) {
    if (ep.valid) nacim_min_acc = std::min(nacim_min_acc, ep.accuracy);
  }
  EXPECT_GT(lcda_min_acc, nacim_min_acc + 0.05);
  EXPECT_GT(lcda_min_acc, 0.4) << "every LCDA design keeps reasonable accuracy";
}

TEST(Integration, Fig5Ablation_NaiveLosesToLcda) {
  ExperimentConfig cfg;
  cfg.seed = 24;
  const RunResult lcda = core::run_strategy(Strategy::kLcda, 20, cfg);
  const RunResult naive = core::run_strategy(Strategy::kLcdaNaive, 20, cfg);
  EXPECT_GT(lcda.best_reward(), naive.best_reward());
  // Front quality: LCDA's dominated area beats the naive variant's.
  const auto lp = core::tradeoff_points(lcda, llm::Objective::kEnergy);
  const auto np = core::tradeoff_points(naive, llm::Objective::kEnergy);
  const double ref = 4e7;
  EXPECT_GT(core::dominated_area(lp.points, ref),
            core::dominated_area(np.points, ref));
}

TEST(Integration, Fig4_LatencyObjectiveHumblesLcda) {
  // Paper Sec. IV-B: under the latency objective LCDA "falls short in
  // providing designs that surpass those provided by NACIM" because of the
  // wrong kernel priors. NACIM with its full budget must reach a best
  // reward at least on par with LCDA's.
  ExperimentConfig cfg;
  cfg.seed = 25;
  cfg.objective = llm::Objective::kLatency;
  const RunResult lcda = core::run_strategy(Strategy::kLcda, 20, cfg);
  const RunResult nacim = core::run_strategy(Strategy::kNacimRl, 500, cfg);
  EXPECT_GE(nacim.best_reward(), lcda.best_reward() - 0.05);
}

TEST(Integration, SpeedupIsAtLeastPaperScale) {
  // The headline: comparable quality at >= an order of magnitude fewer
  // episodes. (The paper reports 25x from 500/20; our simulated expert
  // reaches the threshold even faster, which only strengthens the claim.)
  ExperimentConfig cfg;
  cfg.seed = 26;
  const core::SpeedupReport rep = core::measure_speedup(cfg);
  ASSERT_GT(rep.lcda_episodes, 0) << "LCDA must reach the threshold";
  ASSERT_GT(rep.nacim_episodes, 0);
  EXPECT_GE(rep.speedup(), 10.0);
  EXPECT_LE(rep.lcda_episodes, 20) << "within the paper's LCDA budget";
}

TEST(Integration, InvalidDesignsGetMinusOneAndExpertRecovers) {
  // Force tiny area budget so everything big is invalid; the loop must keep
  // running and the expert must steer toward valid designs.
  ExperimentConfig cfg;
  cfg.seed = 27;
  cfg.evaluator.cost.mapper.max_replication = 1;
  cfg.space.backbone.hidden = 1024;
  auto optimizer = core::make_optimizer(Strategy::kLcda, cfg);
  core::SurrogateEvaluator::Options eopts = cfg.evaluator;
  core::SurrogateEvaluator evaluator(eopts);
  core::RewardFunction reward(llm::Objective::kEnergy);
  core::CodesignLoop::Options lopts;
  lopts.episodes = 12;
  core::CodesignLoop loop(*optimizer, evaluator, reward, lopts);
  util::Rng rng(27);
  const RunResult run = loop.run(rng);
  for (const auto& ep : run.episodes) {
    if (!ep.valid) {
      EXPECT_DOUBLE_EQ(ep.reward, -1.0);
    }
  }
}

// ----------------------------------------------- real-training pipeline

TEST(Integration, TrainedEvaluatorEndToEnd) {
  // The faithful pipeline at miniature scale: noise-injection training on
  // the synthetic dataset + Monte-Carlo variation evaluation.
  core::TrainedEvaluator::Options opts;
  opts.dataset.image_size = 16;
  opts.dataset.num_classes = 4;
  opts.dataset.train_per_class = 12;
  opts.dataset.test_per_class = 6;
  opts.dataset.seed = 99;
  opts.backbone.hidden = 32;
  opts.backbone.pool_after = {0, 2};  // 16 -> 8 -> 4
  opts.epochs = 4;
  opts.monte_carlo_samples = 4;
  core::TrainedEvaluator evaluator(opts);

  search::Design d;
  d.rollout = {{16, 3}, {16, 3}, {24, 3}, {24, 3}};
  d.hw.device = cim::DeviceType::kFefet;  // low-variation operating point
  d.hw.bits_per_cell = 1;
  util::Rng rng(31);
  const core::Evaluation ev = evaluator.evaluate(d, rng);

  EXPECT_GT(ev.accuracy, 0.3) << "4 classes, chance = 0.25";
  EXPECT_LE(ev.accuracy, 1.0);
  EXPECT_TRUE(ev.cost.valid);
  EXPECT_GT(ev.cost.energy_total_pj, 0.0);
}

TEST(Integration, TrainedAndSurrogateAgreeOnVariationOrdering) {
  // Both evaluators must agree that high-variation hardware is worse for
  // the same topology (RRAM b4 vs FeFET b1).
  core::TrainedEvaluator::Options opts;
  opts.dataset.image_size = 16;
  opts.dataset.num_classes = 4;
  opts.dataset.train_per_class = 12;
  opts.dataset.test_per_class = 8;
  opts.dataset.seed = 100;
  opts.backbone.hidden = 32;
  opts.backbone.pool_after = {0, 2};
  opts.epochs = 3;
  opts.monte_carlo_samples = 6;
  core::TrainedEvaluator trained(opts);

  search::Design noisy;
  noisy.rollout = {{16, 3}, {16, 3}, {24, 3}, {24, 3}};
  noisy.hw.device = cim::DeviceType::kRram;
  noisy.hw.bits_per_cell = 4;
  search::Design quiet = noisy;
  quiet.hw.device = cim::DeviceType::kFefet;
  quiet.hw.bits_per_cell = 1;

  util::Rng r1(32), r2(32);
  const double acc_noisy = trained.evaluate(noisy, r1).accuracy;
  const double acc_quiet = trained.evaluate(quiet, r2).accuracy;
  EXPECT_GT(acc_quiet, acc_noisy - 0.05)
      << "low-variation hardware should not be clearly worse";
}

TEST(Integration, TranscriptIsExplainable) {
  // The paper's future-work claim: the LLM dialogue is human-readable.
  // Verify the transcript carries real prompts and responses.
  ExperimentConfig cfg;
  cfg.seed = 33;
  search::SearchSpace space(cfg.space);
  auto client = std::make_shared<llm::SimulatedGpt4>();
  llm::LlmOptimizer optimizer(space, client);
  core::SurrogateEvaluator evaluator(cfg.evaluator);
  core::RewardFunction reward(llm::Objective::kEnergy);
  core::CodesignLoop::Options lopts;
  lopts.episodes = 3;
  core::CodesignLoop loop(optimizer, evaluator, reward, lopts);
  util::Rng rng(33);
  (void)loop.run(rng);

  ASSERT_GE(optimizer.transcript().size(), 3u);
  const auto& first = optimizer.transcript().front();
  EXPECT_NE(first.prompt.find("neural architecture search"), std::string::npos);
  EXPECT_FALSE(first.response.empty());
  // Episode >= 1 prompts must carry the episode-0 result.
  const auto& second = optimizer.transcript()[1];
  EXPECT_NE(second.prompt.find("performance="), std::string::npos);
}

}  // namespace
}  // namespace lcda
