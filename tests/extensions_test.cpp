// Tests for the extension modules: Explainer (explainable NAS), the
// fine-tuned-LLM ablation, Adam, JSON reports, and programming cost.
#include <gtest/gtest.h>

#include <memory>

#include "lcda/core/experiment.h"
#include "lcda/core/report.h"
#include "lcda/llm/explain.h"
#include "lcda/llm/scripted_llm.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/nn/adam.h"
#include "lcda/nn/sequential.h"

namespace lcda {
namespace {

llm::HistoryEntry entry(std::vector<nn::ConvSpec> rollout, double perf) {
  llm::HistoryEntry h;
  h.design.rollout = std::move(rollout);
  h.performance = perf;
  return h;
}

// ------------------------------------------------------------- Explainer

TEST(Explainer, RequestCarriesBothDesignsAndMarker) {
  const auto prev = entry({{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.40);
  const auto cur = entry({{48, 3}, {48, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.43);
  const llm::ChatRequest req =
      llm::Explainer::build_request(prev, cur, llm::Objective::kEnergy);
  const std::string text = req.full_text();
  EXPECT_NE(text.find(llm::kExplainMarker), std::string::npos);
  EXPECT_NE(text.find("[[32,3]"), std::string::npos);
  EXPECT_NE(text.find("[[48,3]"), std::string::npos);
  EXPECT_NE(text.find("performance=0.4"), std::string::npos);
}

TEST(Explainer, SimulatedGpt4NarratesChannelChange) {
  auto gpt = std::make_shared<llm::SimulatedGpt4>();
  llm::Explainer explainer(gpt);
  const auto prev = entry({{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.40);
  const auto cur = entry({{48, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.43);
  const std::string why = explainer.explain(prev, cur, llm::Objective::kEnergy);
  EXPECT_NE(why.find("layer 1"), std::string::npos);
  EXPECT_NE(why.find("32"), std::string::npos);
  EXPECT_NE(why.find("48"), std::string::npos);
  EXPECT_NE(why.find("widened"), std::string::npos);
}

TEST(Explainer, NarratesKernelAndHardwareChanges) {
  auto gpt = std::make_shared<llm::SimulatedGpt4>();
  llm::Explainer explainer(gpt);
  auto prev = entry({{32, 5}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.40);
  auto cur = prev;
  cur.design.rollout[0].kernel = 3;
  cur.design.hw.adc_bits = 4;
  cur.performance = 0.45;
  const std::string why =
      explainer.explain(prev, cur, llm::Objective::kLatency);
  EXPECT_NE(why.find("kernel 5x5 -> 3x3"), std::string::npos);
  EXPECT_NE(why.find("ADC resolution"), std::string::npos);
}

TEST(Explainer, IdenticalDesignsExplained) {
  auto gpt = std::make_shared<llm::SimulatedGpt4>();
  llm::Explainer explainer(gpt);
  const auto prev = entry({{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}}, 0.4);
  const std::string why = explainer.explain(prev, prev, llm::Objective::kEnergy);
  EXPECT_NE(why.find("identical"), std::string::npos);
}

TEST(Explainer, RejectsNullClient) {
  EXPECT_THROW(llm::Explainer(nullptr), std::invalid_argument);
}

// ------------------------------------------------- fine-tuned LLM ablation

TEST(Finetuned, StrategyWiring) {
  EXPECT_EQ(core::strategy_name(core::Strategy::kLcdaFinetuned), "LCDA-finetuned");
  EXPECT_EQ(core::strategy_name(core::Strategy::kNsga2), "NSGA-II");
  core::ExperimentConfig cfg;
  EXPECT_EQ(core::make_optimizer(core::Strategy::kLcdaFinetuned, cfg)->name(),
            "LCDA(SimulatedGPT4)");
  EXPECT_EQ(core::make_optimizer(core::Strategy::kNsga2, cfg)->name(), "NSGA-II");
}

TEST(Finetuned, PinsKernelsUnderLatencyObjective) {
  // With corrected priors the expert stops fiddling kernels on the latency
  // objective: proposals keep 3x3 everywhere.
  llm::SimulatedGpt4::Options o;
  o.seed = 9;
  o.wrong_cim_kernel_priors = false;
  llm::SimulatedGpt4 gpt(o);
  llm::PromptBuilder::Options popts;
  popts.objective = llm::Objective::kLatency;
  llm::PromptBuilder builder{search::SearchSpace{}, popts};

  builder.add(entry({{32, 5}, {32, 5}, {64, 5}, {64, 5}, {128, 5}, {128, 5}}, 0.5));
  for (int ep = 0; ep < 15; ++ep) {
    const auto resp = gpt.complete(builder.build());
    const auto parsed = llm::parse_design_response(resp.content, search::SearchSpace{});
    ASSERT_TRUE(parsed.ok);
    for (const auto& spec : parsed.design.rollout) {
      EXPECT_EQ(spec.kernel, 3) << "fine-tuned expert pins kernels at 3";
    }
    builder.add({parsed.design, 0.5 + 0.01 * ep});
  }
}

// ------------------------------------------------------------------ Adam

TEST(Adam, RejectsBadOptions) {
  nn::Param p;
  p.value = nn::Tensor({1});
  p.grad = nn::Tensor({1});
  std::vector<nn::Param*> params = {&p};
  EXPECT_THROW(nn::Adam(params, {.lr = 0.0}), std::invalid_argument);
  EXPECT_THROW(nn::Adam(params, {.lr = 0.1, .beta1 = 1.0}), std::invalid_argument);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  nn::Param p;
  p.value = nn::Tensor({2}, {1.0f, 1.0f});
  p.grad = nn::Tensor({2}, {0.5f, -3.0f});
  std::vector<nn::Param*> params = {&p};
  nn::Adam adam(params, {.lr = 0.01});
  adam.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4);
  EXPECT_NEAR(p.value[1], 1.0f + 0.01f, 1e-4);
  EXPECT_EQ(adam.steps(), 1);
}

TEST(Adam, MinimizesAQuadratic) {
  // f(w) = (w - 3)^2; grad = 2(w-3). Adam should converge to 3.
  nn::Param p;
  p.value = nn::Tensor({1}, {0.0f});
  p.grad = nn::Tensor({1});
  std::vector<nn::Param*> params = {&p};
  nn::Adam adam(params, {.lr = 0.05});
  for (int i = 0; i < 600; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05);
}

TEST(Adam, WeightDecayShrinksWeights) {
  nn::Param p;
  p.value = nn::Tensor({1}, {5.0f});
  p.grad = nn::Tensor({1}, {0.0f});
  std::vector<nn::Param*> params = {&p};
  nn::Adam adam(params, {.lr = 0.1, .weight_decay = 0.1});
  adam.step();
  EXPECT_LT(p.value[0], 5.0f);
}

// ----------------------------------------------------------- JSON report

TEST(Report, DesignJsonHasAllKnobs) {
  search::Design d;
  d.rollout = {{32, 3}, {64, 5}};
  d.hw.device = cim::DeviceType::kFefet;
  const std::string s = core::design_to_json(d).dump();
  EXPECT_NE(s.find("\"rollout\":[[32,3],[64,5]]"), std::string::npos);
  EXPECT_NE(s.find("\"device\":\"FeFET\""), std::string::npos);
  EXPECT_NE(s.find("\"xbar_size\":128"), std::string::npos);
}

TEST(Report, RunJsonRoundTrip) {
  core::ExperimentConfig cfg;
  cfg.seed = 41;
  const core::RunResult run = core::run_strategy(core::Strategy::kRandom, 3, cfg);
  const util::Json j = core::run_to_json(run, "random");
  const std::string s = j.dump();
  EXPECT_NE(s.find("\"label\":\"random\""), std::string::npos);
  EXPECT_NE(s.find("\"episodes\":3"), std::string::npos);
  EXPECT_NE(s.find("\"trace\":["), std::string::npos);
}

TEST(Report, ExperimentJsonCombinesRuns) {
  core::ExperimentConfig cfg;
  cfg.seed = 42;
  const core::RunResult a = core::run_strategy(core::Strategy::kRandom, 2, cfg);
  const core::RunResult b = core::run_strategy(core::Strategy::kLcda, 2, cfg);
  const util::Json j =
      core::experiment_to_json("fig2", 42, {{"A", &a}, {"B", &b}});
  const std::string s = j.dump();
  EXPECT_NE(s.find("\"experiment\":\"fig2\""), std::string::npos);
  EXPECT_NE(s.find("\"label\":\"A\""), std::string::npos);
  EXPECT_NE(s.find("\"label\":\"B\""), std::string::npos);
  EXPECT_THROW((void)core::experiment_to_json("x", 1, {{"A", nullptr}}),
               std::invalid_argument);
}

// ----------------------------------------------------- programming cost

TEST(ProgrammingCost, ScalesWithReplicationAndCells) {
  const std::vector<nn::ConvSpec> rollout = {{32, 3}, {32, 3}, {64, 3},
                                             {64, 3}, {128, 3}, {128, 3}};
  const nn::BackboneOptions bb;
  cim::HardwareConfig hw;
  const cim::CostEvaluator eval(hw);
  const cim::CostReport rep = eval.evaluate(rollout, bb);
  EXPECT_GT(rep.total_weights, 0);
  EXPECT_EQ(rep.total_cells, rep.total_weights * hw.cells_per_weight());
  EXPECT_GT(rep.programming_energy_pj, 0.0);

  // FeFET writes are cheaper per pulse.
  cim::HardwareConfig fefet = hw;
  fefet.device = cim::DeviceType::kFefet;
  const cim::CostReport frep = cim::CostEvaluator(fefet).evaluate(rollout, bb);
  EXPECT_LT(frep.programming_energy_pj / frep.total_cells,
            rep.programming_energy_pj / rep.total_cells);
}

}  // namespace
}  // namespace lcda
