// google-benchmark microbenchmarks of the framework's hot components:
// throughput numbers that justify using the surrogate evaluator for
// 500-episode baseline runs and bound the cost of each pipeline stage.
#include <benchmark/benchmark.h>

#include "lcda/cim/cost_model.h"
#include "lcda/core/experiment.h"
#include "lcda/core/loop.h"
#include "lcda/core/scenario.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/nn/model_builder.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/search/rl_optimizer.h"
#include "lcda/surrogate/accuracy_model.h"
#include "lcda/tensor/ops.h"

namespace {

using namespace lcda;

const std::vector<nn::ConvSpec> kRollout = {{32, 3}, {32, 3}, {64, 3},
                                            {64, 3}, {128, 3}, {128, 3}};

// Every harness below reads its options from the paper-energy scenario, so
// the microbenchmarks measure exactly what the scenario-driven engine runs.
const core::ExperimentConfig& paper_config() {
  static const core::ExperimentConfig cfg =
      core::scenario_by_name("paper-energy").config;
  return cfg;
}

// The engine's per-rollout cost pass as the evaluator runs it: phase one
// (CostPlan) is memoized, the pass reads the layer shapes and writes into
// a reused report. Building the shapes is left out, so cost_evaluator_ns
// in BENCH_engine.json stays comparable across its entries.
void BM_CostEvaluator(benchmark::State& state) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}, paper_config().evaluator.cost};
  const std::vector<nn::LayerShape> shapes =
      nn::backbone_shapes(kRollout, paper_config().evaluator.backbone);
  cim::CostReport report;
  for (auto _ : state) {
    eval.evaluate_span(shapes, report);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CostEvaluator);

// Full-detail evaluation (per-layer costs + mapping), shape flattening
// included — what examples and offline analyses pay per call.
void BM_CostEvaluatorDetail(benchmark::State& state) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}, paper_config().evaluator.cost};
  const nn::BackboneOptions bopts = paper_config().evaluator.backbone;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(kRollout, bopts));
  }
}
BENCHMARK(BM_CostEvaluatorDetail);

void BM_SurrogateAccuracy(benchmark::State& state) {
  const surrogate::AccuracyModel model(paper_config().evaluator.accuracy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.noisy_accuracy(kRollout, 0.1, 1));
  }
}
BENCHMARK(BM_SurrogateAccuracy);

void BM_FullSurrogateEvaluation(benchmark::State& state) {
  core::SurrogateEvaluator eval(paper_config().evaluator);
  search::Design d;
  d.rollout = kRollout;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(d, rng));
  }
}
BENCHMARK(BM_FullSurrogateEvaluation);

// One engine round through the batch contract: distinct designs, each with
// its own pre-forked RNG stream, costed in one evaluate_batch pass — the
// work a pool worker does per chunk wakeup. Every iteration draws a fresh
// batch, untimed, as a search proposes new designs each round.
void BM_EvaluateBatch(benchmark::State& state) {
  core::SurrogateEvaluator eval(paper_config().evaluator);
  const search::SearchSpace space{paper_config().space};
  util::Rng design_rng(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<search::Design> designs(n);
  std::vector<util::Rng> rngs(n, util::Rng(0));
  std::vector<core::Evaluation> evals(n);
  std::vector<core::EvalRequest> requests(n);
  util::Rng stream(12);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) {
      designs[i] = space.sample(design_rng);
      rngs[i] = stream.fork();
      requests[i] = core::EvalRequest{&designs[i], &rngs[i], &evals[i]};
    }
    state.ResumeTiming();
    eval.evaluate_batch(std::span<core::EvalRequest>(requests));
    benchmark::DoNotOptimize(evals);
  }
}
BENCHMARK(BM_EvaluateBatch)->Arg(8);

void BM_PromptBuild(benchmark::State& state) {
  llm::PromptBuilder builder{search::SearchSpace{paper_config().space}, {}};
  llm::HistoryEntry h;
  h.design.rollout = kRollout;
  h.performance = 0.4;
  for (int i = 0; i < state.range(0); ++i) builder.add(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build());
  }
}
BENCHMARK(BM_PromptBuild)->Arg(0)->Arg(20)->Arg(64);

void BM_ResponseParse(benchmark::State& state) {
  const search::SearchSpace space(paper_config().space);
  const std::string response =
      "Based on the results, I suggest:\n"
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\n"
      "hardware=[FeFET,2,6,128,8]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(llm::parse_design_response(response, space));
  }
}
BENCHMARK(BM_ResponseParse);

void BM_SimulatedGpt4Turn(benchmark::State& state) {
  llm::SimulatedGpt4 gpt;
  llm::PromptBuilder builder{search::SearchSpace{paper_config().space}, {}};
  llm::HistoryEntry h;
  h.design.rollout = kRollout;
  h.performance = 0.4;
  for (int i = 0; i < 20; ++i) builder.add(h);
  const llm::ChatRequest req = builder.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpt.complete(req));
  }
}
BENCHMARK(BM_SimulatedGpt4Turn);

// The optimizer of a paper-energy LCDA study run for `episodes` episodes.
std::unique_ptr<search::Optimizer> lcda_study(int episodes) {
  auto optimizer = core::make_optimizer(core::Strategy::kLcda, paper_config());
  auto evaluator = core::make_evaluator(paper_config());
  const core::RewardFunction reward = core::make_reward(paper_config());
  core::CodesignLoop::Options opts;
  opts.episodes = episodes;
  core::CodesignLoop loop(*optimizer, *evaluator, reward, opts);
  util::Rng rng(paper_config().seed);
  (void)loop.run(rng);
  return optimizer;
}

// The first 64 designs and rewards of a real paper-energy LCDA study: a
// full history window, with the design spread and reward digits of the
// paper's own run.
const std::vector<llm::HistoryEntry>& lcda_history() {
  static const std::vector<llm::HistoryEntry> history =
      dynamic_cast<const llm::LlmOptimizer&>(*lcda_study(64)).history();
  return history;
}

std::unique_ptr<search::Optimizer> lcda_at_full_window() {
  auto optimizer = core::make_optimizer(core::Strategy::kLcda, paper_config());
  for (const llm::HistoryEntry& h : lcda_history()) {
    search::Observation obs;
    obs.design = h.design;
    obs.reward = h.performance;
    optimizer->feedback(obs);
  }
  return optimizer;
}

// One LCDA turn (propose + feedback) at the study's steady state: the
// prompt carries the 64-entry history window, and the stand-in's line memo
// already holds every history line but the newest.
void BM_LcdaTurn(benchmark::State& state) {
  const std::vector<llm::HistoryEntry>& history = lcda_history();
  auto optimizer = lcda_at_full_window();
  util::Rng rng(3);
  std::size_t turn = 0;
  for (auto _ : state) {
    search::Observation obs;
    obs.design = optimizer->propose(rng);
    obs.reward = history[++turn % history.size()].performance;
    optimizer->feedback(obs);
  }
}
BENCHMARK(BM_LcdaTurn);

// The prompts a paper-energy LCDA study sends once its history window is
// full, in order: each one slides the 64-line window by one line.
const std::vector<std::string>& lcda_window_prompts() {
  static const std::vector<std::string> prompts = [] {
    const auto optimizer = lcda_study(320);
    const auto& llm = dynamic_cast<const llm::LlmOptimizer&>(*optimizer);
    std::vector<std::string> out;
    for (const llm::LlmOptimizer::Exchange& ex : llm.transcript()) {
      if (ex.history_length >= 64) out.push_back(llm.prompt(ex));
    }
    return out;
  }();
  return prompts;
}

// The stand-in's prompt read as a study makes it: one long-lived reader
// fed the sliding window, so each read parses its one new line and takes
// the other 63 from the memo. At the end of the prompts the reader starts
// over, untimed, from the first one.
void BM_PromptRead(benchmark::State& state) {
  const std::vector<std::string>& prompts = lcda_window_prompts();
  llm::PromptReader reader;
  (void)reader.read(prompts.front());
  std::size_t next = 1;
  for (auto _ : state) {
    if (next == prompts.size()) {
      state.PauseTiming();
      reader = llm::PromptReader{};
      (void)reader.read(prompts.front());
      next = 1;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(reader.read(prompts[next++]));
  }
}
BENCHMARK(BM_PromptRead);

void BM_RlProposeFeedback(benchmark::State& state) {
  search::RlOptimizer rl{search::SearchSpace{paper_config().space}};
  util::Rng rng(2);
  for (auto _ : state) {
    const search::Design d = rl.propose(rng);
    search::Observation obs;
    obs.design = d;
    obs.reward = 0.3;
    rl.feedback(obs);
  }
}
BENCHMARK(BM_RlProposeFeedback);

// One loop round of a non-LLM search optimizer at the batch the loop gives
// it: a generation of 24 for Genetic and NSGA-II, one design for Annealing
// and Random. propose_batch_into, then feedback_batch with objectives read
// off each design's hash. Ten rounds run first, so the population methods
// are timed with a full pool.
void BM_OptimizerGeneration(benchmark::State& state, core::Strategy strategy) {
  auto optimizer = core::make_optimizer(strategy, paper_config());
  const std::size_t batch = std::max<std::size_t>(optimizer->preferred_batch(), 1);
  util::Rng rng(5);
  std::vector<search::Design> designs;
  std::vector<search::Observation> observations;
  const auto round = [&] {
    optimizer->propose_batch_into(batch, rng, designs);
    observations.resize(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const std::uint64_t h = designs[i].hash();
      search::Observation& obs = observations[i];
      obs.design = designs[i];
      obs.accuracy = static_cast<double>(h % 1000) / 1000.0;
      obs.energy_pj = static_cast<double>((h >> 16) % 1000) * 1e5;
      obs.reward = obs.accuracy;
      obs.valid = true;
    }
    optimizer->feedback_batch(observations);
  };
  for (int warm = 0; warm < 10; ++warm) round();
  for (auto _ : state) {
    round();
    benchmark::DoNotOptimize(designs.data());
  }
}
BENCHMARK_CAPTURE(BM_OptimizerGeneration, genetic, core::Strategy::kGenetic);
BENCHMARK_CAPTURE(BM_OptimizerGeneration, nsga2, core::Strategy::kNsga2);
BENCHMARK_CAPTURE(BM_OptimizerGeneration, annealing, core::Strategy::kAnnealing);
BENCHMARK_CAPTURE(BM_OptimizerGeneration, random, core::Strategy::kRandom);

void BM_MonteCarloSurrogate(benchmark::State& state) {
  const surrogate::AccuracyModel model(paper_config().evaluator.accuracy);
  util::Rng rng(3);
  const int samples = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise::monte_carlo(
        [&](util::Rng& r) {
          return model.noisy_accuracy_sample(kRollout, 0.1, 1, r);
        },
        samples, rng));
  }
}
BENCHMARK(BM_MonteCarloSurrogate)->Arg(16)->Arg(64);

// The conv layers the faithful evaluator trains on trained-small: perfbench's
// pinned first design (24-24-48-48, all 3x3) on the scenario's 16x16 inputs,
// at the trainer's batch of 32. Each layer carries the operands its
// forward and backward pass see; one iteration runs all four layers.
struct ConvLayer {
  tensor::ConvGeom g;
  tensor::Tensor x, w, b, y, dy, dx, dw, db;
  std::vector<float> scratch;
};

std::vector<ConvLayer> trained_small_conv_layers() {
  constexpr int kBatch = 32;
  const std::vector<nn::ConvSpec> rollout = {{24, 3}, {24, 3}, {48, 3}, {48, 3}};
  const nn::BackboneOptions backbone =
      core::scenario_by_name("trained-small").config.trained.backbone;
  util::Rng rng(4);
  std::vector<ConvLayer> layers;
  for (const nn::LayerShape& s : nn::backbone_shapes(rollout, backbone)) {
    if (s.is_fc) continue;
    ConvLayer l;
    l.g = tensor::ConvGeom{s.in_hw, s.in_hw, s.kernel, 1, s.kernel / 2};
    const int hw = l.g.out_h();
    l.x = tensor::Tensor::uniform({kBatch, s.in_channels, s.in_hw, s.in_hw}, -1, 1, rng);
    l.w = tensor::Tensor::uniform({s.out_channels, s.in_channels, s.kernel, s.kernel},
                                  -1, 1, rng);
    l.b = tensor::Tensor::uniform({s.out_channels}, -1, 1, rng);
    l.y = tensor::Tensor({kBatch, s.out_channels, hw, hw});
    l.dy = tensor::Tensor::uniform({kBatch, s.out_channels, hw, hw}, -1, 1, rng);
    l.dx = tensor::Tensor(l.x.shape());
    l.dw = tensor::Tensor(l.w.shape());
    l.db = tensor::Tensor(l.b.shape());
    layers.push_back(std::move(l));
  }
  return layers;
}

void BM_Conv2dForward(benchmark::State& state) {
  std::vector<ConvLayer> layers = trained_small_conv_layers();
  for (auto _ : state) {
    for (ConvLayer& l : layers) {
      tensor::conv2d_forward(l.x, l.w, l.b, l.g, l.y, l.scratch);
      benchmark::DoNotOptimize(l.y);
    }
  }
}
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMillisecond);

void BM_Conv2dBackward(benchmark::State& state) {
  std::vector<ConvLayer> layers = trained_small_conv_layers();
  for (auto _ : state) {
    for (ConvLayer& l : layers) {
      tensor::conv2d_backward(l.x, l.w, l.g, l.dy, &l.dx, &l.dw, &l.db, l.scratch);
      benchmark::DoNotOptimize(l.dw);
    }
  }
}
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMillisecond);

// One training step as nn::train runs it, less the weight update: forward,
// softmax cross-entropy and backward through the whole trained-small
// backbone the conv micros above take apart, on one batch of 32.
void BM_TrainStep(benchmark::State& state) {
  constexpr int kBatch = 32;
  const nn::BackboneOptions backbone =
      core::scenario_by_name("trained-small").config.trained.backbone;
  util::Rng rng(4);
  nn::Sequential net =
      nn::build_backbone({{24, 3}, {24, 3}, {48, 3}, {48, 3}}, backbone, rng);
  const int size = backbone.input_size;
  const tensor::Tensor x = tensor::Tensor::uniform(
      {kBatch, backbone.input_channels, size, size}, -1, 1, rng);
  std::vector<int> labels(kBatch);
  for (int i = 0; i < kBatch; ++i) labels[i] = i % backbone.num_classes;
  for (auto _ : state) benchmark::DoNotOptimize(net.train_step_loss(x, labels));
}
BENCHMARK(BM_TrainStep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
