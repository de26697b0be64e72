// End-to-end integration tests: the full LCDA pipeline (prompt -> simulated
// GPT-4 -> parser -> evaluators -> reward -> feedback), exercised at reduced
// scale. The paper's claims are checked over 8 seeds in paper_claims_test.
#include <gtest/gtest.h>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/evaluator.h"
#include "lcda/core/experiment.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/noise/variation.h"
#include "lcda/util/bytes.h"
#include "lcda/util/strings.h"

namespace lcda {
namespace {

using core::ExperimentConfig;
using core::RunResult;
using core::Strategy;

// ------------------------------------------------------- LCDA pipeline

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

// Pins every byte TrainedEvaluator::evaluate returns for the miniature
// evaluation above: noise-injection training, weight quantization and the
// Monte-Carlo draws, read through the checkpoint codec. A reordered sum,
// a stale layer buffer or a changed RNG draw anywhere in that path moves
// the digest. The batch-norm variant also pins BatchNorm2d and the
// switches between training and inference mode.
TEST(Integration, TrainedEvaluationBytesPinned) {
  const auto digest = [](bool batch_norm) {
    core::TrainedEvaluator::Options opts;
    opts.dataset.image_size = 16;
    opts.dataset.num_classes = 4;
    opts.dataset.train_per_class = 12;
    opts.dataset.test_per_class = 6;
    opts.dataset.seed = 99;
    opts.backbone.hidden = 32;
    opts.backbone.pool_after = {0, 2};
    opts.backbone.batch_norm = batch_norm;
    opts.epochs = 3;
    opts.monte_carlo_samples = 4;
    core::TrainedEvaluator evaluator(opts);

    search::Design d;
    d.rollout = {{16, 3}, {8, 5}, {24, 1}, {12, 3}};
    d.hw.device = cim::DeviceType::kRram;
    d.hw.bits_per_cell = 2;
    util::Rng rng(41);
    const core::Evaluation ev = evaluator.evaluate(d, rng);
    std::string bytes;
    util::BinaryWriter w(bytes);
    ckpt::encode_evaluation(w, ev);
    return util::hex_u64(util::fnv1a64(bytes));
  };
  EXPECT_EQ(digest(false), "d5581ee151789e95");
  EXPECT_EQ(digest(true), "5ff83990b514ea40");
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
  EXPECT_NE(optimizer.prompt(first).find("neural architecture search"),
            std::string::npos);
  EXPECT_FALSE(first.response.empty());
  // Episode >= 1 prompts must carry the episode-0 result.
  const auto& second = optimizer.transcript()[1];
  EXPECT_NE(optimizer.prompt(second).find("performance="), std::string::npos);
}

}  // namespace
}  // namespace lcda
