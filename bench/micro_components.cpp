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
#include "lcda/llm/simulated_gpt4.h"
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

// The engine's per-rollout cost pass exactly as the evaluator runs it:
// phase one (CostPlan) and the flattened layer span are memoized, the pass
// writes into a reused report. Before the two-phase split this measured
// CostEvaluator::evaluate over memoized shapes — the same semantic point
// of the pipeline (BENCH_engine.json tracks it as cost_evaluator_ns).
void BM_CostEvaluator(benchmark::State& state) {
  const cim::CostEvaluator eval{cim::HardwareConfig{}, paper_config().evaluator.cost};
  const cim::LayerShapeSpan span = cim::LayerShapeSpan::from(
      nn::backbone_shapes(kRollout, paper_config().evaluator.backbone));
  cim::CostReport report;
  for (auto _ : state) {
    eval.evaluate_span(span, report);
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
// work a pool worker does per chunk wakeup.
void BM_EvaluateBatch(benchmark::State& state) {
  core::SurrogateEvaluator eval(paper_config().evaluator);
  const search::SearchSpace space{paper_config().space};
  util::Rng design_rng(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<search::Design> designs;
  designs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) designs.push_back(space.sample(design_rng));
  std::vector<util::Rng> rngs(n, util::Rng(0));
  std::vector<core::Evaluation> evals(n);
  std::vector<core::EvalRequest> requests(n);
  util::Rng stream(12);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) {
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

// The first 64 designs and rewards of a real paper-energy LCDA study: a
// full history window, with the design spread and reward digits of the
// paper's own run.
const std::vector<llm::HistoryEntry>& lcda_history() {
  static const std::vector<llm::HistoryEntry> history = [] {
    auto optimizer = core::make_optimizer(core::Strategy::kLcda, paper_config());
    auto evaluator = core::make_evaluator(paper_config());
    const core::RewardFunction reward = core::make_reward(paper_config());
    core::CodesignLoop::Options opts;
    opts.episodes = 64;
    core::CodesignLoop loop(*optimizer, *evaluator, reward, opts);
    util::Rng rng(paper_config().seed);
    (void)loop.run(rng);
    return dynamic_cast<const llm::LlmOptimizer&>(*optimizer).history();
  }();
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
// prompt carries the 64-entry history window. Every 256 turns the
// optimizer is rebuilt, untimed, so its transcript stays small.
void BM_LcdaTurn(benchmark::State& state) {
  const std::vector<llm::HistoryEntry>& history = lcda_history();
  auto optimizer = lcda_at_full_window();
  util::Rng rng(3);
  std::size_t turn = 0;
  for (auto _ : state) {
    if (++turn % 256 == 0) {
      state.PauseTiming();
      optimizer = lcda_at_full_window();
      state.ResumeTiming();
    }
    search::Observation obs;
    obs.design = optimizer->propose(rng);
    obs.reward = history[turn % history.size()].performance;
    optimizer->feedback(obs);
  }
}
BENCHMARK(BM_LcdaTurn);

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

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(4);
  const int c = static_cast<int>(state.range(0));
  const tensor::ConvGeom g{16, 16, 3, 1, 1};
  const tensor::Tensor x = tensor::Tensor::uniform({4, c, 16, 16}, -1, 1, rng);
  const tensor::Tensor w = tensor::Tensor::uniform({c, c, 3, 3}, -1, 1, rng);
  const tensor::Tensor b = tensor::Tensor::uniform({c}, -1, 1, rng);
  tensor::Tensor y({4, c, 16, 16});
  std::vector<float> scratch;
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, g, y, scratch);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
