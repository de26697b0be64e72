// Tests for the second extension batch: quantization, BatchNorm2d, the NoC
// and pipeline models, simulated annealing, and the multi-seed stats runner.
#include <gtest/gtest.h>

#include <cmath>

#include "lcda/cim/cost_model.h"
#include "lcda/cim/noc.h"
#include "lcda/cim/pipeline.h"
#include "lcda/core/stats_runner.h"
#include "lcda/data/synthetic_cifar.h"
#include "lcda/nn/model_builder.h"
#include "lcda/nn/quantize.h"
#include "lcda/nn/trainer.h"
#include "lcda/search/annealing_optimizer.h"

namespace lcda {
namespace {

// ------------------------------------------------------------ Quantize

TEST(Quantize, RoundsToGrid) {
  std::vector<float> w = {0.0f, 0.1f, -1.0f, 0.97f, -0.52f};
  nn::QuantSpec spec;
  spec.bits = 4;  // levels = 7, scale = 1/7
  const float scale = nn::quantize_span(w, spec);
  EXPECT_NEAR(scale, 1.0f / 7.0f, 1e-6);
  for (float v : w) {
    const float steps = v / scale;
    EXPECT_NEAR(steps, std::round(steps), 1e-4) << v;
  }
  EXPECT_EQ(w[0], 0.0f);
  EXPECT_NEAR(w[2], -1.0f, 1e-6);  // extreme value is representable exactly
}

TEST(Quantize, ErrorBoundedByHalfLsb) {
  util::Rng rng(1);
  std::vector<float> w(4096);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-0.8, 0.8));
  std::vector<float> orig = w;
  nn::QuantSpec spec;
  spec.bits = 8;
  const float scale = nn::quantize_span(w, spec);
  const float bound = nn::max_quant_error(0.8f, spec) * 1.01f;
  (void)scale;
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_LE(std::abs(w[i] - orig[i]), bound);
  }
}

TEST(Quantize, MseDropsWithBits) {
  util::Rng rng(2);
  std::vector<float> w(4096);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 0.3));
  const double mse4 = nn::quant_mse(w, {.bits = 4});
  const double mse8 = nn::quant_mse(w, {.bits = 8});
  EXPECT_GT(mse4, mse8 * 50.0);  // ~4^(8-4)=256x in theory
}

TEST(Quantize, AllZeroAndBadSpecs) {
  std::vector<float> zeros(8, 0.0f);
  EXPECT_EQ(nn::quantize_span(zeros, {.bits = 8}), 0.0f);
  std::vector<float> w = {1.0f};
  nn::QuantSpec bad;
  bad.bits = 1;
  EXPECT_THROW((void)nn::quantize_span(w, bad), std::invalid_argument);
  EXPECT_EQ(nn::max_quant_error(0.0f, {.bits = 8}), 0.0f);
}

TEST(Quantize, EightBitPreservesTrainedAccuracy) {
  // The deployment assumption: 8-bit weights should cost almost nothing.
  data::SyntheticCifarOptions dopts;
  dopts.image_size = 16;
  dopts.num_classes = 4;
  dopts.train_per_class = 12;
  dopts.test_per_class = 8;
  dopts.seed = 3;
  const auto data = data::make_synthetic_cifar(dopts);
  util::Rng rng(3);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>(3, 8, 3, 16, 16, rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::Dense>(8 * 16 * 16, 4, rng));
  nn::TrainOptions topts;
  topts.epochs = 3;
  (void)nn::train(net, data.train, topts, rng);
  const double before = nn::evaluate(net, data.test);
  auto params = net.params();
  (void)nn::quantize_params(params, {.bits = 8});
  const double after = nn::evaluate(net, data.test);
  EXPECT_NEAR(after, before, 0.05);
}

// ----------------------------------------------------------- BatchNorm2d

TEST(BatchNorm, NormalizesTrainingBatches) {
  nn::BatchNorm2d bn(2);
  util::Rng rng(4);
  nn::Tensor x({8, 2, 4, 4});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal(3.0, 2.0));
  const nn::Tensor& y = bn.forward(x);
  // Per channel: mean ~0, var ~1 (gamma=1, beta=0 initially).
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    int count = 0;
    for (int n = 0; n < 8; ++n) {
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          mean += y.at(n, c, i, j);
          ++count;
        }
      }
    }
    mean /= count;
    for (int n = 0; n < 8; ++n) {
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          var += (y.at(n, c, i, j) - mean) * (y.at(n, c, i, j) - mean);
        }
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  nn::BatchNorm2d bn(1);
  util::Rng rng(5);
  // Feed several training batches so running stats adapt.
  for (int step = 0; step < 30; ++step) {
    nn::Tensor x({4, 1, 2, 2});
    for (auto& v : x.data()) v = static_cast<float>(rng.normal(5.0, 1.0));
    (void)bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0, 0.5);
  bn.set_training(false);
  // A constant input at the running mean must map to ~0.
  nn::Tensor probe({1, 1, 2, 2});
  probe.fill(bn.running_mean()[0]);
  const nn::Tensor& y = bn.forward(probe);
  EXPECT_NEAR(y[0], 0.0, 1e-3);
}

TEST(BatchNorm, GradientCheck) {
  nn::BatchNorm2d bn(2);
  util::Rng rng(6);
  nn::Tensor x({3, 2, 2, 2});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1, 1));
  nn::Tensor mask(x.shape());
  for (auto& v : mask.data()) v = static_cast<float>(rng.uniform(-1, 1));

  auto loss = [&](const nn::Tensor& in) {
    const nn::Tensor& y = bn.forward(in);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * mask[i];
    return s;
  };
  (void)bn.forward(x);
  const nn::Tensor& dx = bn.backward(mask);
  const nn::Tensor dx_copy = dx;

  const float eps = 1e-3f;
  for (std::size_t idx : {0u, 5u, 13u, 23u}) {
    nn::Tensor xp = x;
    xp[idx] += eps;
    nn::Tensor xm = x;
    xm[idx] -= eps;
    const double num = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx_copy[idx], num, 5e-2) << "dx[" << idx << "]";
  }
}

TEST(BatchNorm, BackboneWithBatchNormTrains) {
  data::SyntheticCifarOptions dopts;
  dopts.image_size = 16;
  dopts.num_classes = 4;
  dopts.train_per_class = 12;
  dopts.test_per_class = 8;
  dopts.seed = 7;
  const auto data = data::make_synthetic_cifar(dopts);
  nn::BackboneOptions bopts;
  bopts.input_size = 16;
  bopts.num_classes = 4;
  bopts.hidden = 32;
  bopts.pool_after = {0, 2};
  bopts.batch_norm = true;
  util::Rng rng(7);
  nn::Sequential net =
      nn::build_backbone({{8, 3}, {8, 3}, {12, 3}, {12, 3}}, bopts, rng);
  nn::TrainOptions topts;
  topts.epochs = 4;
  topts.sgd.lr = 0.02;
  (void)nn::train(net, data.train, topts, rng);
  EXPECT_GT(nn::evaluate(net, data.test), 0.5);
}

TEST(BatchNorm, RejectsBadConfig) {
  EXPECT_THROW(nn::BatchNorm2d(0), std::invalid_argument);
  EXPECT_THROW(nn::BatchNorm2d(4, 1.0), std::invalid_argument);
  nn::BatchNorm2d bn(2);
  nn::Tensor wrong({1, 3, 4, 4});
  EXPECT_THROW((void)bn.forward(wrong), std::invalid_argument);
}

// ------------------------------------------------------------------- NoC

TEST(Noc, HtreeDepth) {
  EXPECT_EQ(cim::htree_depth(1), 0);
  EXPECT_EQ(cim::htree_depth(2), 1);
  EXPECT_EQ(cim::htree_depth(8), 3);
  EXPECT_EQ(cim::htree_depth(9), 4);
  EXPECT_THROW((void)cim::htree_depth(0), std::invalid_argument);
}

TEST(Noc, CostScalesWithBytesAndTiles) {
  const cim::NocModel noc = cim::make_noc();
  const auto small = cim::noc_layer_cost(noc, 1024.0, 4);
  const auto more_bytes = cim::noc_layer_cost(noc, 4096.0, 4);
  const auto more_tiles = cim::noc_layer_cost(noc, 1024.0, 64);
  EXPECT_GT(more_bytes.energy_pj, small.energy_pj * 3.9);
  EXPECT_GT(more_tiles.hops, small.hops);
  EXPECT_GT(more_tiles.energy_pj, small.energy_pj);
  EXPECT_THROW((void)cim::noc_layer_cost(noc, -1.0, 4), std::invalid_argument);
}

TEST(Noc, ContributesToButDoesNotDominateChipEnergy) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}};
  const auto rep = eval.evaluate({{32, 3}, {32, 3}, {64, 3}, {64, 3},
                                  {128, 3}, {128, 3}},
                                 nn::BackboneOptions{});
  EXPECT_GT(rep.energy_noc_pj, 0.0);
  EXPECT_LT(rep.energy_noc_pj, 0.2 * rep.energy_total_pj);
  EXPECT_GT(rep.area_noc_mm2, 0.0);
}

// -------------------------------------------------------------- Pipeline

TEST(Pipeline, BottleneckAndThroughput) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}};
  const auto rep = eval.evaluate({{32, 3}, {32, 3}, {64, 3}, {64, 3},
                                  {128, 3}, {128, 3}},
                                 nn::BackboneOptions{});
  const cim::PipelineReport pr = cim::analyze_pipeline(rep);
  ASSERT_EQ(pr.stage_latency_ns.size(), rep.layers.size());
  EXPECT_DOUBLE_EQ(pr.frame_latency_ns, rep.latency_ns);
  EXPECT_GE(pr.bottleneck_layer, 0);
  // Pipelined throughput can never be worse than single-frame throughput.
  EXPECT_GE(pr.pipelined_fps(), pr.frame_fps());
  EXPECT_GE(pr.imbalance(), 1.0);
  // The bottleneck really is the max stage.
  for (double l : pr.stage_latency_ns) EXPECT_LE(l, pr.bottleneck_latency_ns);
}

TEST(Pipeline, RejectsEmptyReport) {
  cim::CostReport empty;
  EXPECT_THROW((void)cim::analyze_pipeline(empty), std::invalid_argument);
}

// ------------------------------------------------------------- Annealing

TEST(Annealing, ProposalsInSpaceAndCooling) {
  const search::SearchSpace space;
  search::AnnealingOptimizer sa(space);
  const double t0 = sa.temperature();
  util::Rng rng(8);
  for (int ep = 0; ep < 50; ++ep) {
    const search::Design d = sa.propose(rng);
    ASSERT_TRUE(space.contains(d));
    search::Observation obs;
    obs.design = d;
    obs.reward = 0.1;
    sa.feedback(obs);
  }
  EXPECT_LT(sa.temperature(), t0);
  EXPECT_TRUE(sa.has_state());
}

TEST(Annealing, ClimbsAPlantedHill) {
  const search::SearchSpace space;
  search::AnnealingOptimizer sa(space);
  util::Rng rng(9);
  double best = -1.0;
  for (int ep = 0; ep < 300; ++ep) {
    const search::Design d = sa.propose(rng);
    search::Observation obs;
    obs.design = d;
    obs.reward = d.rollout[0].channels / 128.0 + d.rollout[1].channels / 256.0;
    best = std::max(best, obs.reward);
    sa.feedback(obs);
  }
  EXPECT_GT(best, 1.2);  // max is 1.5; uniform-random expectation ~0.68
}

TEST(Annealing, RejectsBadOptions) {
  search::AnnealingOptimizer::Options bad;
  bad.cooling_rate = 1.5;
  EXPECT_THROW(search::AnnealingOptimizer(search::SearchSpace{}, bad),
               std::invalid_argument);
}

TEST(Annealing, WiredIntoExperiment) {
  EXPECT_EQ(core::strategy_name(core::Strategy::kAnnealing), "Annealing");
  core::ExperimentConfig cfg;
  EXPECT_EQ(core::make_optimizer(core::Strategy::kAnnealing, cfg)->name(),
            "Annealing");
  const core::RunResult run =
      core::run_strategy(core::Strategy::kAnnealing, 10, cfg);
  EXPECT_EQ(run.episodes.size(), 10u);
}

// ----------------------------------------------------------- StatsRunner

TEST(StatsRunner, AggregatesAcrossSeeds) {
  core::ExperimentConfig cfg;
  cfg.seed = 50;
  const auto agg = core::run_aggregate(core::Strategy::kRandom, 8, 3, cfg, 0.0);
  EXPECT_EQ(agg.seeds, 3);
  EXPECT_EQ(agg.running_best.size(), 8u);
  EXPECT_EQ(agg.final_best.count(), 3u);
  // Running best is monotone in expectation too.
  for (int e = 1; e < 8; ++e) {
    EXPECT_GE(agg.mean_running_best(e), agg.mean_running_best(e - 1) - 1e-12);
  }
  // Threshold 0.0 should be reached by random search on this space.
  EXPECT_GT(agg.reached, 0);
  EXPECT_THROW((void)core::run_aggregate(core::Strategy::kRandom, 0, 3, cfg, 0.0),
               std::invalid_argument);
}

TEST(StatsRunner, LcdaDominatesRandomOnAggregate) {
  core::ExperimentConfig cfg;
  cfg.seed = 51;
  const double nan = std::nan("");
  const auto lcda = core::run_aggregate(core::Strategy::kLcda, 10, 3, cfg, nan);
  const auto random = core::run_aggregate(core::Strategy::kRandom, 10, 3, cfg, nan);
  EXPECT_GT(lcda.final_best.mean(), random.final_best.mean());
}

TEST(StatsRunner, SpeedupStudyProducesPerSeedReports) {
  core::ExperimentConfig cfg;
  cfg.seed = 52;
  cfg.lcda_episodes = 8;
  cfg.nacim_episodes = 80;
  const auto reports = core::speedup_study(cfg, 3);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_GT(r.lcda_best, -1.0);
    EXPECT_GT(r.nacim_best, -1.0);
  }
}

}  // namespace
}  // namespace lcda
