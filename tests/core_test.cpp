#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/evaluator.h"
#include "lcda/core/experiment.h"
#include "lcda/core/loop.h"
#include "lcda/core/pareto.h"
#include "lcda/core/reward.h"
#include "lcda/nn/model_builder.h"

// This binary replaces the global operator new and delete: each counts its
// calls and forwards to malloc/free, so sanitizer builds still see every
// block through their malloc interceptors. The aligned forms are left to
// the runtime; they pair only with each other.
namespace {
std::atomic<long long> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lcda::core {
namespace {

search::Design vgg_design() {
  search::Design d;
  d.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  return d;
}

// ---------------------------------------------------------------- Reward

TEST(Reward, EnergyFormulaEq1) {
  // reward_ae = acc - sqrt(E / 8e7)
  EXPECT_DOUBLE_EQ(reward_accuracy_energy(0.7, 8e7), 0.7 - 1.0);
  EXPECT_DOUBLE_EQ(reward_accuracy_energy(0.7, 2e7), 0.7 - 0.5);
  EXPECT_DOUBLE_EQ(reward_accuracy_energy(0.5, 0.0), 0.5);
  EXPECT_THROW((void)reward_accuracy_energy(0.5, -1.0), std::invalid_argument);
}

TEST(Reward, LatencyFormulaEq2) {
  // reward_al = acc + fps/1600, fps = 1e9 / latency_ns.
  // At the ISAAC normalization point (1600 FPS = 625000 ns) the term is 1.
  EXPECT_DOUBLE_EQ(reward_accuracy_latency(0.7, 1e9 / 1600.0), 0.7 + 1.0);
  EXPECT_DOUBLE_EQ(reward_accuracy_latency(0.6, 1e9 / 800.0), 0.6 + 0.5);
  EXPECT_THROW((void)reward_accuracy_latency(0.5, 0.0), std::invalid_argument);
}

TEST(Reward, InvalidHardwareGetsMinusOne) {
  cim::CostReport cost;
  cost.valid = false;
  const RewardFunction f(llm::Objective::kEnergy);
  EXPECT_DOUBLE_EQ(f(0.9, cost), kInvalidReward);
}

TEST(Reward, DispatchesOnObjective) {
  cim::CostReport cost;
  cost.valid = true;
  cost.energy_total_pj = 2e7;
  cost.latency_ns = 1e9 / 1600.0;
  const RewardFunction fe(llm::Objective::kEnergy);
  const RewardFunction fl(llm::Objective::kLatency);
  EXPECT_DOUBLE_EQ(fe(0.7, cost), 0.2);
  EXPECT_DOUBLE_EQ(fl(0.7, cost), 1.7);
  EXPECT_DOUBLE_EQ(fe.hw_metric(cost), 2e7);
  EXPECT_DOUBLE_EQ(fl.hw_metric(cost), 1e9 / 1600.0);
}

// ---------------------------------------------------------------- Pareto

TEST(Pareto, DominanceDefinition) {
  const TradeoffPoint a{1.0, 0.8};
  const TradeoffPoint b{2.0, 0.7};
  const TradeoffPoint c{1.0, 0.8};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, c)) << "equal points do not dominate each other";
}

TEST(Pareto, FrontExtraction) {
  const std::vector<TradeoffPoint> pts = {
      {1.0, 0.5}, {2.0, 0.7}, {3.0, 0.6}, {4.0, 0.9}, {2.5, 0.2}};
  const auto front = pareto_front(pts);
  // {3.0,0.6} dominated by {2.0,0.7}; {2.5,0.2} dominated by several.
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], 0u);
  EXPECT_EQ(front[1], 1u);
  EXPECT_EQ(front[2], 3u);
}

TEST(Pareto, FrontOfEmptyIsEmpty) {
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(Pareto, DominatedAreaPrefersBetterFronts) {
  const std::vector<TradeoffPoint> good = {{1.0, 0.8}, {2.0, 0.9}};
  const std::vector<TradeoffPoint> bad = {{2.0, 0.5}, {3.0, 0.6}};
  EXPECT_GT(dominated_area(good, 5.0), dominated_area(bad, 5.0));
  EXPECT_EQ(dominated_area({}, 5.0), 0.0);
}

TEST(Pareto, TradeoffPointsSkipInvalidEpisodes) {
  RunResult run;
  EpisodeRecord ok;
  ok.valid = true;
  ok.energy_pj = 1e7;
  ok.latency_ns = 1e6;
  ok.accuracy = 0.7;
  ok.episode = 0;
  EpisodeRecord bad = ok;
  bad.valid = false;
  bad.episode = 1;
  run.episodes = {ok, bad};
  const auto pts_e = tradeoff_points(run, llm::Objective::kEnergy);
  ASSERT_EQ(pts_e.points.size(), 1u);
  EXPECT_DOUBLE_EQ(pts_e.points[0].cost, 1e7);
  const auto pts_l = tradeoff_points(run, llm::Objective::kLatency);
  EXPECT_DOUBLE_EQ(pts_l.points[0].cost, 1e6);
}

// ------------------------------------------------------------ Evaluators

TEST(SurrogateEvaluator, DeterministicGivenSeed) {
  SurrogateEvaluator eval;
  auto run = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    return eval.evaluate(vgg_design(), rng);
  };
  const Evaluation a = run(1), b = run(1), c = run(2);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.cost.energy_total_pj, b.cost.energy_total_pj);
  EXPECT_NE(a.accuracy, c.accuracy);  // different MC draws
  EXPECT_EQ(a.cost.energy_total_pj, c.cost.energy_total_pj);  // cost is exact
}

TEST(SurrogateEvaluator, AccuracyWithinBounds) {
  SurrogateEvaluator eval;
  util::Rng rng(3);
  const Evaluation ev = eval.evaluate(vgg_design(), rng);
  EXPECT_GT(ev.accuracy, 0.1);
  EXPECT_LT(ev.accuracy, 0.99);
  EXPECT_GE(ev.accuracy_stddev, 0.0);
  EXPECT_TRUE(ev.cost.valid);
}

TEST(SurrogateEvaluator, NoisierHardwareLowersAccuracy) {
  SurrogateEvaluator::Options opts;
  opts.monte_carlo_samples = 64;
  SurrogateEvaluator eval(opts);
  search::Design rram = vgg_design();   // RRAM b2
  search::Design fefet = vgg_design();
  fefet.hw.device = cim::DeviceType::kFefet;
  util::Rng r1(4), r2(4);
  EXPECT_LT(eval.evaluate(rram, r1).accuracy, eval.evaluate(fefet, r2).accuracy);
}

TEST(SurrogateEvaluator, BatchOfNewRolloutsAllocatesNothing) {
  // Searches seldom revisit a rollout, so the batch holds 200 rollouts the
  // evaluator has not seen, all on one hardware config whose cost plan the
  // warm-up builds. The budget keeps every design valid, so no report
  // needs an invalid_reason string.
  const ExperimentConfig cfg;
  SurrogateEvaluator eval(cfg.evaluator);
  const search::SearchSpace space{cfg.space};
  cim::HardwareConfig hw;
  hw.area_budget_mm2 = 1e6;
  util::Rng design_rng(5);
  std::set<std::uint64_t> seen;
  std::vector<search::Design> designs;
  while (designs.size() < 201) {
    search::Design d = space.sample(design_rng);
    d.hw = hw;
    if (seen.insert(nn::rollout_hash(d.rollout, 0)).second) {
      designs.push_back(std::move(d));
    }
  }
  util::Rng warm_rng(1);
  (void)eval.evaluate(designs.back(), warm_rng);
  designs.pop_back();

  const std::size_t n = designs.size();
  std::vector<util::Rng> rngs;
  for (std::size_t i = 0; i < n; ++i) rngs.emplace_back(100 + i);
  std::vector<Evaluation> evals(n);
  std::vector<EvalRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i] = EvalRequest{&designs[i], &rngs[i], &evals[i]};
  }
  const long long before = g_allocations.load();
  eval.evaluate_batch(requests);
  const long long made = g_allocations.load() - before;
  EXPECT_EQ(made, 0) << "allocations for " << n << " evaluations";
  for (const Evaluation& ev : evals) EXPECT_TRUE(ev.cost.valid);
}

TEST(SurrogateEvaluator, ReusedShapeScratchMatchesFreshEvaluators) {
  // One evaluator on one thread costs 60 conv layers (past the cost pass's
  // 48-layer stack scratch), then 2, then 60 again. Each result must match
  // a fresh evaluator's on a fresh thread, whose scratch starts empty.
  const std::vector<nn::ConvSpec> deep = [] {
    std::vector<nn::ConvSpec> r;
    for (int i = 0; i < 60; ++i) r.push_back({16 + 16 * (i % 4), i % 3 == 0 ? 1 : 3});
    return r;
  }();
  const std::vector<nn::ConvSpec> shallow = {{32, 3}, {64, 5}};
  const auto bytes = [](const Evaluation& ev) {
    std::string out;
    util::BinaryWriter w(out);
    ckpt::encode_evaluation(w, ev);
    return out;
  };
  SurrogateEvaluator reused;
  std::uint64_t seed = 7;
  for (const std::vector<nn::ConvSpec>* rollout : {&deep, &shallow, &deep}) {
    search::Design d;
    d.rollout = *rollout;
    util::Rng rng(seed);
    const Evaluation got = reused.evaluate(d, rng);
    Evaluation want;
    std::thread([&] {
      SurrogateEvaluator fresh;
      util::Rng fresh_rng(seed);
      want = fresh.evaluate(d, fresh_rng);
    }).join();
    EXPECT_EQ(bytes(got), bytes(want)) << rollout->size() << " conv layers";
    ++seed;
  }
}

TEST(SurrogateEvaluator, RejectsNonPositiveMonteCarloSamples) {
  // No samples would score every design's accuracy 0 and rank designs by
  // hardware cost alone.
  for (const int samples : {0, -1}) {
    SurrogateEvaluator::Options opts;
    opts.monte_carlo_samples = samples;
    EXPECT_THROW((void)SurrogateEvaluator{opts}, std::invalid_argument)
        << samples;
  }
}

// ------------------------------------------------------- Training step

TEST(TrainStep, SameShapeBatchesAllocateNothing) {
  // The faithful evaluator's inner loop. Every layer type is here: Conv2d,
  // BatchNorm2d, ReLU, MaxPool2x2, Flatten and Dense. After one step,
  // every layer's output and gradient buffers fit any batch up to that
  // size, so a later full batch, and the partial batch that ends an epoch,
  // allocate nothing.
  nn::BackboneOptions backbone;
  backbone.input_size = 8;
  backbone.num_classes = 4;
  backbone.hidden = 16;
  backbone.pool_after = {0};
  backbone.batch_norm = true;
  util::Rng rng(3);
  nn::Sequential net = nn::build_backbone({{6, 3}, {10, 1}}, backbone, rng);
  const tensor::Tensor full = tensor::Tensor::uniform({6, 3, 8, 8}, -1, 1, rng);
  const tensor::Tensor partial = tensor::Tensor::uniform({4, 3, 8, 8}, -1, 1, rng);
  const std::vector<int> labels = {0, 1, 2, 3, 0, 1};
  const std::span<const int> partial_labels(labels.data(), 4);
  (void)net.train_step_loss(full, labels);

  const long long before = g_allocations.load();
  const double loss = net.train_step_loss(full, labels);
  const double partial_loss = net.train_step_loss(partial, partial_labels);
  const double again = net.train_step_loss(full, labels);
  const long long made = g_allocations.load() - before;
  EXPECT_EQ(made, 0) << "allocations for three training steps";
  EXPECT_TRUE(std::isfinite(loss) && std::isfinite(partial_loss));
  EXPECT_EQ(again, loss) << "no update ran between the two full steps";
}

// ------------------------------------------------------------------ Loop

class CountingOptimizer final : public search::Optimizer {
 public:
  explicit CountingOptimizer(search::SearchSpace space) : space_(std::move(space)) {}
  search::Design propose(util::Rng& rng) override {
    ++proposals;
    return space_.sample(rng);
  }
  void feedback(const search::Observation& obs) override {
    ++feedbacks;
    last_reward = obs.reward;
  }
  std::string name() const override { return "Counting"; }
  int proposals = 0;
  int feedbacks = 0;
  double last_reward = 0.0;

 private:
  search::SearchSpace space_;
};

TEST(CodesignLoop, RunsEpisodesAndRecords) {
  CountingOptimizer opt{search::SearchSpace{}};
  SurrogateEvaluator eval;
  CodesignLoop::Options lopts;
  lopts.episodes = 7;
  int callbacks = 0;
  lopts.on_episode = [&](const EpisodeRecord&) { ++callbacks; };
  CodesignLoop loop(opt, eval, RewardFunction(llm::Objective::kEnergy), lopts);
  util::Rng rng(5);
  const RunResult run = loop.run(rng);
  EXPECT_EQ(run.episodes.size(), 7u);
  EXPECT_EQ(opt.proposals, 7);
  EXPECT_EQ(opt.feedbacks, 7);
  EXPECT_EQ(callbacks, 7);
  EXPECT_GE(run.best_episode, 0);
  // best() really is the max reward.
  for (const auto& ep : run.episodes) {
    EXPECT_LE(ep.reward, run.best_reward());
  }
}

TEST(CodesignLoop, RunningMaxIsMonotone) {
  CountingOptimizer opt{search::SearchSpace{}};
  SurrogateEvaluator eval;
  CodesignLoop::Options lopts;
  lopts.episodes = 20;
  CodesignLoop loop(opt, eval, RewardFunction(llm::Objective::kEnergy), lopts);
  util::Rng rng(6);
  const RunResult run = loop.run(rng);
  const auto rmax = run.reward_running_max();
  ASSERT_EQ(rmax.size(), 20u);
  for (std::size_t i = 1; i < rmax.size(); ++i) {
    EXPECT_GE(rmax[i], rmax[i - 1]);
  }
  EXPECT_DOUBLE_EQ(rmax.back(), run.best_reward());
}

TEST(CodesignLoop, EpisodesToReach) {
  RunResult run;
  for (int i = 0; i < 5; ++i) {
    EpisodeRecord ep;
    ep.episode = i;
    ep.reward = 0.1 * i;
    run.episodes.push_back(ep);
  }
  EXPECT_EQ(run.episodes_to_reach(0.25), 3);
  EXPECT_EQ(run.episodes_to_reach(0.0), 0);
  EXPECT_EQ(run.episodes_to_reach(9.9), -1);
}

TEST(CodesignLoop, RejectsZeroEpisodes) {
  CountingOptimizer opt{search::SearchSpace{}};
  SurrogateEvaluator eval;
  CodesignLoop::Options lopts;
  lopts.episodes = 0;
  EXPECT_THROW(
      CodesignLoop(opt, eval, RewardFunction(llm::Objective::kEnergy), lopts),
      std::invalid_argument);
}

TEST(CodesignLoop, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    CountingOptimizer opt{search::SearchSpace{}};
    SurrogateEvaluator eval;
    CodesignLoop::Options lopts;
    lopts.episodes = 5;
    CodesignLoop loop(opt, eval, RewardFunction(llm::Objective::kEnergy), lopts);
    util::Rng rng(seed);
    return loop.run(rng);
  };
  const RunResult a = run_once(7), b = run_once(7);
  for (std::size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(a.episodes[i].design, b.episodes[i].design);
    EXPECT_DOUBLE_EQ(a.episodes[i].reward, b.episodes[i].reward);
  }
}

// ------------------------------------------------------------ Experiment

TEST(Experiment, StrategyNames) {
  EXPECT_EQ(strategy_name(Strategy::kLcda), "LCDA");
  EXPECT_EQ(strategy_name(Strategy::kLcdaNaive), "LCDA-naive");
  EXPECT_EQ(strategy_name(Strategy::kNacimRl), "NACIM");
}

TEST(Experiment, MakeOptimizerProducesCorrectTypes) {
  ExperimentConfig cfg;
  EXPECT_EQ(make_optimizer(Strategy::kLcda, cfg)->name(), "LCDA(SimulatedGPT4)");
  EXPECT_EQ(make_optimizer(Strategy::kLcdaNaive, cfg)->name(),
            "LCDA-naive(SimulatedGPT4)");
  EXPECT_EQ(make_optimizer(Strategy::kNacimRl, cfg)->name(), "NACIM-RL");
  EXPECT_EQ(make_optimizer(Strategy::kGenetic, cfg)->name(), "Genetic");
  EXPECT_EQ(make_optimizer(Strategy::kRandom, cfg)->name(), "Random");
}

TEST(Experiment, RunStrategySmoke) {
  ExperimentConfig cfg;
  cfg.seed = 11;
  const RunResult run = run_strategy(Strategy::kRandom, 10, cfg);
  EXPECT_EQ(run.episodes.size(), 10u);
}

TEST(Experiment, MeasureSpeedupReportsConsistentNumbers) {
  ExperimentConfig cfg;
  cfg.seed = 13;
  cfg.lcda_episodes = 10;
  cfg.nacim_episodes = 120;
  const SpeedupReport rep = measure_speedup(cfg);
  EXPECT_GT(rep.lcda_best, 0.0);
  EXPECT_GT(rep.nacim_best, -1.0);
  EXPECT_DOUBLE_EQ(rep.threshold, 0.95 * rep.nacim_best);
  if (rep.lcda_episodes > 0 && rep.nacim_episodes > 0) {
    EXPECT_DOUBLE_EQ(rep.speedup(),
                     static_cast<double>(rep.nacim_episodes) / rep.lcda_episodes);
    EXPECT_GE(rep.speedup(), 1.0) << "LCDA must not be slower than NACIM";
  }
  EXPECT_THROW((void)measure_speedup(cfg, 0.0), std::invalid_argument);
}

TEST(Experiment, WriteRunCsvEmitsOneRowPerEpisode) {
  ExperimentConfig cfg;
  cfg.seed = 14;
  const RunResult run = run_strategy(Strategy::kRandom, 4, cfg);
  std::ostringstream os;
  write_run_csv(os, run, "test");
  int lines = 0;
  for (char c : os.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
  EXPECT_NE(os.str().find("test,0,"), std::string::npos);
}

}  // namespace
}  // namespace lcda::core
