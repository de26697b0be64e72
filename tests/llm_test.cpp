#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <tuple>

#include "lcda/core/experiment.h"
#include "lcda/core/loop.h"
#include "lcda/core/scenario.h"
#include "lcda/llm/explain.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/llm/scripted_llm.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/llm/transcript.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda::llm {
namespace {

search::SearchSpace default_space() { return search::SearchSpace{}; }

search::Design vgg_design() {
  search::Design d;
  d.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  return d;
}

// ---------------------------------------------------------------- Prompt

TEST(Prompt, ContainsAlgorithmOnePhrases) {
  PromptBuilder builder(default_space(), {});
  const ChatRequest req = builder.build();
  ASSERT_EQ(req.messages.size(), 2u);
  EXPECT_EQ(req.messages[0].content,
            "You are an expert in the field of neural architecture search.");
  const std::string& u = req.messages[1].content;
  EXPECT_NE(u.find("selecting the best rollout numbers"), std::string::npos);
  EXPECT_NE(u.find("CIFAR10"), std::string::npos);
  EXPECT_NE(u.find("the performance I give you will be -1"), std::string::npos);
  EXPECT_NE(u.find("rollout list consisting of 6 number pairs"), std::string::npos);
  EXPECT_NE(u.find("do not include anything else"), std::string::npos);
}

TEST(Prompt, ObjectiveSentenceSwitches) {
  PromptBuilder::Options energy;
  energy.objective = Objective::kEnergy;
  PromptBuilder::Options latency;
  latency.objective = Objective::kLatency;
  const std::string e =
      PromptBuilder(default_space(), energy).build().full_text();
  const std::string l =
      PromptBuilder(default_space(), latency).build().full_text();
  EXPECT_NE(e.find("energy consumption"), std::string::npos);
  EXPECT_EQ(e.find("inference latency"), std::string::npos);
  EXPECT_NE(l.find("inference latency"), std::string::npos);
}

TEST(Prompt, NaiveVariantStripsDomainContext) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  const std::string text =
      PromptBuilder(default_space(), naive).build().full_text();
  EXPECT_EQ(text.find("neural architecture"), std::string::npos);
  EXPECT_EQ(text.find("CIFAR"), std::string::npos);
  EXPECT_EQ(text.find("accelerator"), std::string::npos);
  EXPECT_EQ(text.find("model architecture"), std::string::npos);
  // The choices and scoring rule must still be there.
  EXPECT_NE(text.find("channels per layer"), std::string::npos);
  EXPECT_NE(text.find("score will be -1"), std::string::npos);
}

TEST(Prompt, HistoryLinesIncluded) {
  PromptBuilder builder(default_space(), {});
  HistoryEntry h;
  h.design = vgg_design();
  h.performance = 0.345;
  builder.add(h);
  const std::string text = builder.build().full_text();
  EXPECT_NE(text.find("rollout=[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]"),
            std::string::npos);
  EXPECT_NE(text.find("performance=0.345"), std::string::npos);
  EXPECT_NE(text.find("experimental results that you can use as a reference"),
            std::string::npos);
}

TEST(Prompt, HistoryIsCapped) {
  PromptBuilder::Options opts;
  opts.max_history = 3;
  PromptBuilder builder(default_space(), opts);
  for (int i = 0; i < 10; ++i) {
    HistoryEntry h;
    h.design = vgg_design();
    h.performance = i * 0.1;
    builder.add(h);
  }
  const std::string text = builder.build().full_text();
  // Only the 3 newest entries appear.
  EXPECT_EQ(text.find("performance=0.6"), std::string::npos);
  EXPECT_NE(text.find("performance=0.7"), std::string::npos);
  EXPECT_NE(text.find("performance=0.9"), std::string::npos);
}

TEST(Prompt, HardwareTextFormat) {
  cim::HardwareConfig hw;
  hw.device = cim::DeviceType::kFefet;
  hw.bits_per_cell = 4;
  hw.adc_bits = 5;
  hw.xbar_size = 256;
  hw.col_mux = 4;
  EXPECT_EQ(PromptBuilder::hardware_text(hw), "[FeFET,4,5,256,4]");
}

// ---------------------------------------------------------- PromptReader

TEST(PromptReader, RoundTripsEverythingThePromptCarries) {
  PromptBuilder::Options opts;
  opts.objective = Objective::kLatency;
  PromptBuilder builder(default_space(), opts);
  HistoryEntry h;
  h.design = vgg_design();
  h.design.hw.device = cim::DeviceType::kFefet;
  h.design.hw.adc_bits = 7;
  h.performance = -1.0;
  builder.add(h);
  const PromptFacts facts = read_prompt(builder.build().full_text());

  EXPECT_TRUE(facts.codesign_context);
  EXPECT_EQ(facts.objective, Objective::kLatency);
  EXPECT_EQ(facts.conv_layers, 6);
  EXPECT_EQ(facts.channel_choices, (std::vector<int>{16, 24, 32, 48, 64, 96, 128}));
  EXPECT_EQ(facts.kernel_choices, (std::vector<int>{1, 3, 5, 7}));
  EXPECT_EQ(facts.adc_bits_choices, (std::vector<int>{4, 5, 6, 7, 8}));
  EXPECT_EQ(facts.xbar_choices, (std::vector<int>{64, 128, 256}));
  ASSERT_EQ(facts.device_choices.size(), 2u);

  ASSERT_EQ(facts.history.size(), 1u);
  EXPECT_EQ(facts.history[0].design.rollout, h.design.rollout);
  EXPECT_EQ(facts.history[0].design.hw.device, cim::DeviceType::kFefet);
  EXPECT_EQ(facts.history[0].design.hw.adc_bits, 7);
  EXPECT_DOUBLE_EQ(facts.history[0].performance, -1.0);
}

TEST(PromptReader, DetectsNaivePrompt) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  const PromptFacts facts =
      read_prompt(PromptBuilder(default_space(), naive).build().full_text());
  EXPECT_FALSE(facts.codesign_context);
  // Choices still flow through the naive prompt.
  EXPECT_FALSE(facts.channel_choices.empty());
}

TEST(PromptReader, ToleratesGarbage) {
  const PromptFacts facts = read_prompt("complete nonsense with no structure");
  EXPECT_FALSE(facts.codesign_context);
  EXPECT_TRUE(facts.history.empty());
  EXPECT_EQ(facts.conv_layers, 6);
}

// ---------------------------------------------------------------- Parser

struct ParseCase {
  const char* name;
  const char* text;
  bool ok;
  int first_channels = 0;
  int first_kernel = 0;
};

class ParserCases : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParserCases, Parses) {
  const auto& p = GetParam();
  const ParseResult r = parse_design_response(p.text, default_space());
  EXPECT_EQ(r.ok, p.ok) << p.name << ": " << r.error;
  if (p.ok) {
    EXPECT_EQ(r.design.rollout[0].channels, p.first_channels) << p.name;
    EXPECT_EQ(r.design.rollout[0].kernel, p.first_kernel) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserCases,
    ::testing::Values(
        ParseCase{"clean", "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
                  true, 32, 3},
        ParseCase{"chatter",
                  "Sure! Based on the results I suggest:\n"
                  "[[48,5],[48,3],[64,3],[64,3],[96,3],[128,3]]\nGood luck!",
                  true, 48, 5},
        ParseCase{"spacing", "[ [ 16 , 7 ] , [24,3],[32,3],[48,3],[64,3],[96,3] ]",
                  true, 16, 7},
        ParseCase{"newlines", "[[32,3],\n[32,3],\n[64,3],\n[64,3],\n[128,3],\n[128,3]]",
                  true, 32, 3},
        ParseCase{"snapped-off-space",
                  "[[30,3],[32,3],[64,3],[64,3],[128,3],[128,3]]", true, 32, 3},
        ParseCase{"too-few-pairs", "[[32,3],[64,3]]", false},
        ParseCase{"no-design", "I cannot help with that.", false},
        ParseCase{"empty", "", false}));

TEST(Parser, ExtractsHardwareLine) {
  const ParseResult r = parse_design_response(
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\nhardware=[FeFET,4,8,256,4]",
      default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.hw.device, cim::DeviceType::kFefet);
  EXPECT_EQ(r.design.hw.bits_per_cell, 4);
  EXPECT_EQ(r.design.hw.adc_bits, 8);
  EXPECT_EQ(r.design.hw.xbar_size, 256);
  EXPECT_EQ(r.design.hw.col_mux, 4);
}

TEST(Parser, MissingHardwareUsesDefaults) {
  const ParseResult r = parse_design_response(
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]", default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.hw, cim::HardwareConfig{});
  EXPECT_EQ(r.repairs, 0);
}

TEST(Parser, CountsRepairs) {
  const ParseResult r = parse_design_response(
      "[[31,3],[32,4],[64,3],[64,3],[128,3],[128,3]]", default_space());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.design.rollout[0].channels, 32);  // snapped 31 -> 32
  EXPECT_GE(r.repairs, 2);
}

TEST(Parser, SnappedDesignIsAlwaysInSpace) {
  const search::SearchSpace space = default_space();
  const ParseResult r = parse_design_response(
      "[[999,9],[1,2],[64,3],[64,3],[500,6],[128,3]]\nhardware=[RRAM,3,9,100,5]",
      space);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(space.contains(r.design));
}

// ----------------------------------------------------------- ScriptedLlm

TEST(ScriptedLlm, ReplaysAndRecords) {
  ScriptedLlm llm({"one", "two"});
  ChatRequest req;
  req.messages.push_back({ChatMessage::Role::kUser, "hello"});
  EXPECT_EQ(llm.complete(req).content, "one");
  EXPECT_EQ(llm.complete(req).content, "two");
  EXPECT_EQ(llm.complete(req).content, "two");  // repeats the last
  EXPECT_EQ(llm.calls(), 3u);
  EXPECT_EQ(llm.requests()[0].messages[0].content, "hello");
}

// ---------------------------------------------------------- SimulatedGpt4

ChatRequest codesign_request(const std::vector<HistoryEntry>& history,
                             Objective objective = Objective::kEnergy) {
  PromptBuilder::Options opts;
  opts.objective = objective;
  PromptBuilder builder(default_space(), opts);
  for (const HistoryEntry& h : history) builder.add(h);
  return builder.build();
}

TEST(SimulatedGpt4, FirstProposalIsExpertLegal) {
  // "No cold start": episode-0 proposals must already be sensible.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SimulatedGpt4::Options o;
    o.seed = seed;
    SimulatedGpt4 gpt(o);
    const ChatResponse resp = gpt.complete(codesign_request({}));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << resp.content;
    int prev = 0;
    for (const auto& spec : r.design.rollout) {
      EXPECT_GE(spec.kernel, 3) << "expert avoids 1x1 backbones";
      if (prev > 0) {
        EXPECT_GE(spec.channels, prev) << "non-decreasing channels";
        EXPECT_LE(spec.channels, prev * 4) << "never grows by more than 4x";
      }
      prev = spec.channels;
    }
  }
}

TEST(SimulatedGpt4, ResponsesAlwaysParseable) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  for (int ep = 0; ep < 30; ++ep) {
    const ChatResponse resp = gpt.complete(codesign_request(history));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok) << "episode " << ep << ": " << resp.content;
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.1 * (ep % 5);
    history.push_back(h);
  }
}

TEST(SimulatedGpt4, AvoidsRepeatingHistoryDesigns) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  int repeats = 0;
  for (int ep = 0; ep < 25; ++ep) {
    const ChatResponse resp = gpt.complete(codesign_request(history));
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok);
    for (const auto& h : history) {
      if (h.design == r.design) {
        ++repeats;
        break;
      }
    }
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.3;
    history.push_back(h);
  }
  EXPECT_LE(repeats, 2);
}

TEST(SimulatedGpt4, BacksOffAfterInvalidReward) {
  SimulatedGpt4 gpt;
  std::vector<HistoryEntry> history;
  HistoryEntry big;
  big.design.rollout = {{128, 7}, {128, 7}, {128, 7}, {128, 7}, {128, 7}, {128, 7}};
  big.performance = -1.0;  // invalid: area too large
  history.push_back(big);
  const ChatResponse resp = gpt.complete(codesign_request(history));
  const ParseResult r = parse_design_response(resp.content, default_space());
  ASSERT_TRUE(r.ok);
  long long before = 0, after = 0;
  for (const auto& s : big.design.rollout) before += s.channels;
  for (const auto& s : r.design.rollout) after += s.channels;
  EXPECT_LT(after, before) << "expert shrinks after an area violation";
}

TEST(SimulatedGpt4, LatencyObjectiveTriggersKernelFiddling) {
  // The wrong CiM priors (Sec. IV-B) show up as frequent kernel changes
  // under the latency objective — much more than under energy.
  auto kernel_changes = [](Objective obj) {
    SimulatedGpt4::Options o;
    o.seed = 42;
    SimulatedGpt4 gpt(o);
    std::vector<HistoryEntry> history;
    HistoryEntry base;
    base.design = vgg_design();
    base.design.rollout[0].kernel = 5;  // leave room to shrink and grow
    base.performance = 0.4;
    history.push_back(base);
    int changes = 0;
    for (int ep = 0; ep < 40; ++ep) {
      const ChatResponse resp = gpt.complete(codesign_request(history, obj));
      const ParseResult r = parse_design_response(resp.content, default_space());
      if (!r.ok) continue;
      for (std::size_t i = 0; i < r.design.rollout.size(); ++i) {
        if (r.design.rollout[i].kernel != base.design.rollout[i].kernel) {
          ++changes;
          break;
        }
      }
    }
    return changes;
  };
  EXPECT_GT(kernel_changes(Objective::kLatency),
            kernel_changes(Objective::kEnergy));
}

TEST(SimulatedGpt4, NaivePromptProducesUnconstrainedDesigns) {
  PromptBuilder::Options naive;
  naive.codesign_context = false;
  PromptBuilder builder(default_space(), naive);
  SimulatedGpt4 gpt;
  bool violated_expert_rules = false;
  for (int ep = 0; ep < 30; ++ep) {
    const ChatResponse resp = gpt.complete(builder.build());
    const ParseResult r = parse_design_response(resp.content, default_space());
    ASSERT_TRUE(r.ok);
    int prev = 0;
    for (const auto& spec : r.design.rollout) {
      if (spec.kernel == 1 || (prev > 0 && spec.channels < prev)) {
        violated_expert_rules = true;
      }
      prev = spec.channels;
    }
    HistoryEntry h;
    h.design = r.design;
    h.performance = 0.1;
    builder.add(h);
  }
  EXPECT_TRUE(violated_expert_rules)
      << "without co-design context the model ignores the expert heuristics";
}

TEST(SimulatedGpt4, DeterministicGivenSeed) {
  SimulatedGpt4::Options o;
  o.seed = 5;
  SimulatedGpt4 a(o), b(o);
  const ChatRequest req = codesign_request({});
  EXPECT_EQ(a.complete(req).content, b.complete(req).content);
}

TEST(SimulatedGpt4, ExplainerPromptsLeaveTheProposalMemoWarm) {
  // One client answers an LCDA study and, after every episode, an Explainer
  // prompt about it; its twin answers the same study alone.
  auto client = std::make_shared<SimulatedGpt4>();
  auto twin = std::make_shared<SimulatedGpt4>();
  LlmOptimizer opt(default_space(), client), twin_opt(default_space(), twin);
  Explainer explainer(client);
  util::Rng rng(31), twin_rng(31);
  HistoryEntry previous;
  for (int ep = 0; ep < 70; ++ep) {
    search::Observation obs;
    obs.design = opt.propose(rng);
    ASSERT_EQ(obs.design, twin_opt.propose(twin_rng)) << "episode " << ep;
    obs.reward = rng.uniform();
    opt.feedback(obs);
    twin_opt.feedback(obs);
    const HistoryEntry current{obs.design, obs.reward};
    if (ep > 0) {
      EXPECT_FALSE(explainer.explain(previous, current, Objective::kEnergy).empty());
    }
    previous = current;
  }
  ASSERT_EQ(opt.transcript().size(), twin_opt.transcript().size());
  for (std::size_t i = 0; i < opt.transcript().size(); ++i) {
    EXPECT_EQ(opt.transcript()[i].response, twin_opt.transcript()[i].response)
        << "exchange " << i;
  }
  // The last proposal prompt carried the full 64-entry window; its lines are
  // all still in the memo, as in the twin's.
  EXPECT_GE(client->proposal_reader().memo_size(), 64u);
  EXPECT_EQ(client->proposal_reader().memo_size(), twin->proposal_reader().memo_size());
}

// ---------------------------------------------------------- LlmOptimizer

TEST(LlmOptimizer, ProposesParseableDesignsAndKeepsHistory) {
  auto client = std::make_shared<SimulatedGpt4>();
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(1);
  for (int ep = 0; ep < 5; ++ep) {
    const search::Design d = opt.propose(rng);
    EXPECT_TRUE(default_space().contains(d));
    search::Observation obs;
    obs.design = d;
    obs.reward = 0.2;
    opt.feedback(obs);
  }
  EXPECT_EQ(opt.history().size(), 5u);
  EXPECT_GE(opt.transcript().size(), 5u);
  EXPECT_TRUE(opt.transcript().front().parsed_ok);
}

TEST(LlmOptimizer, FallsBackOnGarbageResponses) {
  auto client = std::make_shared<ScriptedLlm>(
      std::vector<std::string>{"nope", "still nope", "nothing", "no"});
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(2);
  const search::Design d = opt.propose(rng);  // all retries fail -> random
  EXPECT_TRUE(default_space().contains(d));
  EXPECT_GE(client->calls(), 4u);  // initial + retries
}

TEST(LlmOptimizer, NameReflectsVariant) {
  auto client = std::make_shared<SimulatedGpt4>();
  LlmOptimizer::Options naive;
  naive.prompt.codesign_context = false;
  EXPECT_EQ(LlmOptimizer(default_space(), client).name(), "LCDA(SimulatedGPT4)");
  EXPECT_EQ(LlmOptimizer(default_space(), client, naive).name(),
            "LCDA-naive(SimulatedGPT4)");
}

TEST(LlmOptimizer, HistoryFlowsIntoPrompt) {
  auto client = std::make_shared<ScriptedLlm>(std::vector<std::string>{
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]"});
  LlmOptimizer opt(default_space(), client);
  util::Rng rng(3);
  const search::Design d = opt.propose(rng);
  search::Observation obs;
  obs.design = d;
  obs.reward = 0.777;
  opt.feedback(obs);
  (void)opt.propose(rng);
  const std::string& second_prompt = client->requests().back().full_text();
  EXPECT_NE(second_prompt.find("performance=0.777"), std::string::npos);
}

// ------------------------------------------------- Transcript prompts

/// Forwards every request to `inner` and keeps the prompt text it sent.
class RecordingClient final : public LlmClient {
 public:
  explicit RecordingClient(std::shared_ptr<LlmClient> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] ChatResponse complete(const ChatRequest& request) override {
    sent_.push_back(request.full_text());
    return inner_->complete(request);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] const std::vector<std::string>& sent() const { return sent_; }

 private:
  std::shared_ptr<LlmClient> inner_;
  std::vector<std::string> sent_;
};

/// Every exchange's re-rendered prompt is the text the client was sent.
void expect_prompts_match(const LlmOptimizer& opt,
                          const std::vector<std::string>& sent) {
  ASSERT_EQ(opt.transcript().size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(opt.prompt(opt.transcript()[i]), sent[i]) << "exchange " << i;
  }
}

class TranscriptPrompt
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(TranscriptPrompt, ReRendersTheBytesSent) {
  const auto [codesign, max_history] = GetParam();
  LlmOptimizer::Options opts;
  opts.prompt.codesign_context = codesign;
  opts.prompt.max_history = max_history;
  auto client = std::make_shared<RecordingClient>(std::make_shared<SimulatedGpt4>());
  LlmOptimizer opt(default_space(), client, opts);
  util::Rng rng(17);
  // Past the 64-entry window, with some invalid (-1) rewards.
  for (int ep = 0; ep < 80; ++ep) {
    search::Observation obs;
    obs.design = opt.propose(rng);
    obs.reward = rng.chance(0.1) ? -1.0 : rng.uniform();
    opt.feedback(obs);
  }
  expect_prompts_match(opt, client->sent());
}

INSTANTIATE_TEST_SUITE_P(
    ExpertAndNaive, TranscriptPrompt,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 3, 64)));

TEST(TranscriptRetries, EachTryReRendersItsPrompt) {
  const std::string valid = "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]";
  // Episode 0 parses on its second try; episode 2 exhausts all four tries
  // and falls back to a random design.
  auto client = std::make_shared<ScriptedLlm>(std::vector<std::string>{
      "nope", valid, valid, "no", "design", "here", "either", valid});
  LlmOptimizer::Options opts;
  opts.prompt.max_history = 3;
  LlmOptimizer opt(default_space(), client, opts);
  util::Rng rng(5);
  for (int ep = 0; ep < 6; ++ep) {
    search::Observation obs;
    obs.design = opt.propose(rng);
    obs.reward = 0.1 * ep;
    opt.feedback(obs);
  }
  std::vector<std::string> sent;
  for (const ChatRequest& request : client->requests()) {
    sent.push_back(request.full_text());
  }
  EXPECT_EQ(sent.size(), 10u);
  expect_prompts_match(opt, sent);
  EXPECT_FALSE(opt.transcript()[0].parsed_ok);
  EXPECT_EQ(opt.transcript()[1].history_length, 0u);
  EXPECT_EQ(opt.transcript()[6].history_length, 2u);
}

// ------------------------------------------------------ Transcript golden

/// FNV-1a of the Markdown transcript of one LLM-driven study, run the way
/// core::run_strategy runs it. 120 episodes carry the prompt well past the
/// 64-entry history window, so every prompt byte (header, history lines,
/// the window's slide) and every response byte is pinned, not just the
/// decisions the golden trace CSV records over 20 episodes.
std::string transcript_digest(std::string_view scenario, core::Strategy strategy) {
  const core::ExperimentConfig config = core::scenario_by_name(scenario).config;
  auto optimizer = core::make_optimizer(strategy, config);
  const auto* llm = dynamic_cast<const LlmOptimizer*>(optimizer.get());
  if (llm == nullptr) return "not an LLM optimizer";
  auto evaluator = core::make_evaluator(config);
  const core::RewardFunction reward = core::make_reward(config);
  core::CodesignLoop::Options opts;
  opts.episodes = 120;
  core::CodesignLoop loop(*optimizer, *evaluator, reward, opts);
  util::Rng rng(util::hash_combine(config.seed,
                                   static_cast<std::uint64_t>(strategy) + 101));
  (void)loop.run(rng);
  std::ostringstream os;
  write_transcript_markdown(os, *llm, scenario);
  return util::hex_u64(util::fnv1a64(os.str()));
}

struct TranscriptGolden {
  const char* scenario;
  core::Strategy strategy;
  const char* digest;
};

class TranscriptDigest : public ::testing::TestWithParam<TranscriptGolden> {};

TEST_P(TranscriptDigest, MatchesRecordedBytes) {
  const TranscriptGolden& g = GetParam();
  EXPECT_EQ(transcript_digest(g.scenario, g.strategy), g.digest)
      << g.scenario << " / " << core::strategy_name(g.strategy)
      << ": a prompt or response byte changed";
}

INSTANTIATE_TEST_SUITE_P(
    PaperStudies, TranscriptDigest,
    ::testing::Values(
        TranscriptGolden{"paper-energy", core::Strategy::kLcda, "e4c7fee2e1bc2dc6"},
        TranscriptGolden{"paper-energy", core::Strategy::kLcdaNaive, "cab24845a3a8a3df"},
        TranscriptGolden{"paper-energy", core::Strategy::kLcdaFinetuned,
                         "283d1356a4d1a476"},
        TranscriptGolden{"paper-latency", core::Strategy::kLcda, "23825b4f0ac966f5"},
        TranscriptGolden{"paper-latency", core::Strategy::kLcdaNaive, "fad77e76e2faa5c6"},
        TranscriptGolden{"paper-latency", core::Strategy::kLcdaFinetuned,
                         "6fa717742bf54f5b"}),
    [](const ::testing::TestParamInfo<TranscriptGolden>& info) {
      std::string name = std::string(info.param.scenario) + "_" +
                         std::string(core::strategy_name(info.param.strategy));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lcda::llm
