#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "lcda/search/design.h"
#include "lcda/search/genetic_optimizer.h"
#include "lcda/search/random_optimizer.h"
#include "lcda/search/rl_optimizer.h"
#include "lcda/search/space.h"
#include "lcda/util/rng.h"

namespace lcda::search {
namespace {

SearchSpace default_space() { return SearchSpace{}; }

Design vgg_design() {
  Design d;
  d.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  return d;
}

// ---------------------------------------------------------------- Design

TEST(Design, RolloutTextMatchesPaperFormat) {
  EXPECT_EQ(vgg_design().rollout_text(),
            "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]");
}

TEST(Design, HashDistinguishesRolloutAndHardware) {
  Design a = vgg_design();
  Design b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.rollout[2].kernel = 5;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.hw.adc_bits = 7;
  EXPECT_NE(a.hash(), b.hash());
}

// The hash is util::hash_ints over the design's ints, so every cache,
// store and fingerprint key built on it keeps its value.
TEST(Design, HashIsHashIntsOverTheDesignsInts) {
  const SearchSpace space = default_space();
  util::Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const Design d = space.sample(rng);
    std::vector<int> ints;
    for (const auto& spec : d.rollout) {
      ints.push_back(spec.channels);
      ints.push_back(spec.kernel);
    }
    for (const int v : {static_cast<int>(d.hw.device), d.hw.bits_per_cell,
                        d.hw.adc_bits, d.hw.xbar_size, d.hw.col_mux,
                        d.hw.weight_bits}) {
      ints.push_back(v);
    }
    EXPECT_EQ(d.hash(), util::hash_ints(ints, 0xdeca1ULL)) << d.describe();
  }
}

TEST(Design, DescribeIncludesHardware) {
  const std::string s = vgg_design().describe();
  EXPECT_NE(s.find("RRAM"), std::string::npos);
  EXPECT_NE(s.find("[[32,3]"), std::string::npos);
}

// ----------------------------------------------------------------- Space

TEST(Space, DimensionsAndCardinalities) {
  const SearchSpace space = default_space();
  EXPECT_EQ(space.dimensions(), 17u);  // 6*2 software + 5 hardware
  EXPECT_EQ(space.cardinality(0), 7u);   // channels
  EXPECT_EQ(space.cardinality(1), 4u);   // kernels
  EXPECT_EQ(space.cardinality(12), 2u);  // devices
  EXPECT_EQ(space.cardinality(16), 2u);  // col_mux
  EXPECT_THROW((void)space.cardinality(17), std::out_of_range);
}

TEST(Space, TotalDesignsIsProduct) {
  const SearchSpace space = default_space();
  // (7*4)^6 * 2*3*5*3*2 = 28^6 * 180
  EXPECT_DOUBLE_EQ(space.total_designs(), std::pow(28.0, 6) * 180.0);
}

TEST(Space, EncodeDecodeRoundTrip) {
  const SearchSpace space = default_space();
  const Design d = vgg_design();
  EXPECT_EQ(space.decode(space.encode(d)), d);
}

class SpaceRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpaceRoundTrip, RandomSamplesRoundTrip) {
  const SearchSpace space = default_space();
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Design d = space.sample(rng);
    EXPECT_TRUE(space.contains(d));
    EXPECT_EQ(space.decode(space.encode(d)), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaceRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(Space, EncodeRejectsOutOfSpace) {
  const SearchSpace space = default_space();
  Design d = vgg_design();
  d.rollout[0].channels = 33;
  EXPECT_THROW((void)space.encode(d), std::invalid_argument);
  EXPECT_FALSE(space.contains(d));
}

TEST(Space, DecodeRejectsBadIndices) {
  const SearchSpace space = default_space();
  std::vector<int> idx(space.dimensions(), 0);
  idx[0] = 99;
  EXPECT_THROW((void)space.decode(idx), std::invalid_argument);
  idx.pop_back();
  EXPECT_THROW((void)space.decode(idx), std::invalid_argument);
}

TEST(Space, SnapRepairsArbitraryValues) {
  const SearchSpace space = default_space();
  Design d;
  d.rollout = {{30, 2}, {200, 9}, {0, 0}, {64, 3}, {64, 3}, {128, 3}};
  d.hw.adc_bits = 20;
  d.hw.xbar_size = 100;
  const Design snapped = space.snap(d);
  EXPECT_TRUE(space.contains(snapped));
  EXPECT_EQ(snapped.rollout[0].channels, 32);
  EXPECT_EQ(snapped.rollout[0].kernel, 1);     // 2 -> nearest of {1,3}
  EXPECT_EQ(snapped.rollout[1].channels, 128);  // clamped to largest
  EXPECT_EQ(snapped.hw.adc_bits, 8);
  EXPECT_EQ(snapped.hw.xbar_size, 128);
}

TEST(Space, SnapPadsShortRollouts) {
  const SearchSpace space = default_space();
  Design d;
  d.rollout = {{32, 3}};
  const Design snapped = space.snap(d);
  EXPECT_EQ(snapped.rollout.size(), 6u);
  EXPECT_TRUE(space.contains(snapped));
}

TEST(Space, TextsMentionEveryAxis) {
  const SearchSpace space = default_space();
  const std::string choices = space.choices_text();
  EXPECT_NE(choices.find("channels per layer"), std::string::npos);
  EXPECT_NE(choices.find("kernel sizes"), std::string::npos);
  EXPECT_NE(choices.find("RRAM"), std::string::npos);
  EXPECT_NE(choices.find("adc_bits"), std::string::npos);
  const std::string model = space.model_text();
  EXPECT_NE(model.find("6 convolution layers (ReLU, 2x2 max-pool after layers "
                       "2, 4 and 6)"),
            std::string::npos)
      << model;
  EXPECT_NE(model.find("1024"), std::string::npos);

  // The prompt describes the network that is built: trained-small's four
  // layers pool after the first and third, deep-backbone's eight after
  // every second one. Pooling past the last layer never happens.
  SearchSpace::Options opts;
  opts.conv_layers = 4;
  opts.backbone.pool_after = {2, 0, 5};
  EXPECT_NE(SearchSpace(opts).model_text().find(
                "4 convolution layers (ReLU, 2x2 max-pool after layers 1 and 3)"),
            std::string::npos)
      << SearchSpace(opts).model_text();
  opts.conv_layers = 8;
  opts.backbone.pool_after = {1, 3, 5, 7};
  EXPECT_NE(SearchSpace(opts).model_text().find(
                "after layers 2, 4, 6 and 8)"),
            std::string::npos);
  opts.backbone.pool_after = {3};
  EXPECT_NE(SearchSpace(opts).model_text().find("after layer 4)"),
            std::string::npos);
  opts.backbone.pool_after.clear();
  EXPECT_NE(SearchSpace(opts).model_text().find("(ReLU, no pooling)"),
            std::string::npos);
}

TEST(Space, RejectsDegenerateOptions) {
  SearchSpace::Options opts;
  opts.channel_choices.clear();
  EXPECT_THROW(SearchSpace{opts}, std::invalid_argument);
  opts = {};
  opts.conv_layers = 0;
  EXPECT_THROW(SearchSpace{opts}, std::invalid_argument);
  opts = {};
  opts.hw.adc_bits.clear();
  EXPECT_THROW(SearchSpace{opts}, std::invalid_argument);
}

// ------------------------------------------------------------------- RL

TEST(RlOptimizer, StartsUniform) {
  const SearchSpace space = default_space();
  RlOptimizer rl(space);
  for (std::size_t d = 0; d < space.dimensions(); ++d) {
    const auto p = rl.policy(d);
    for (double pi : p) {
      EXPECT_NEAR(pi, 1.0 / static_cast<double>(p.size()), 1e-12);
    }
  }
}

TEST(RlOptimizer, ProposalsAreInSpace) {
  const SearchSpace space = default_space();
  RlOptimizer rl(space);
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(space.contains(rl.propose(rng)));
  }
}

TEST(RlOptimizer, LearnsAPlantedPreference) {
  // Reward = 1 when the first layer picks 128 channels, else 0. The policy
  // for dimension 0 must concentrate on that choice.
  const SearchSpace space = default_space();
  RlOptimizer rl(space);
  util::Rng rng(2);
  for (int ep = 0; ep < 400; ++ep) {
    const Design d = rl.propose(rng);
    Observation obs;
    obs.design = d;
    obs.reward = d.rollout[0].channels == 128 ? 1.0 : 0.0;
    obs.valid = true;
    rl.feedback(obs);
  }
  const auto p = rl.policy(0);
  // Index 6 is channels=128 in the default choice list.
  EXPECT_GT(p[6], 0.5);
  EXPECT_EQ(rl.episodes(), 400u);
}

TEST(RlOptimizer, ColdStartIsRandom) {
  // Before any feedback, proposals are spread out — the cold start the
  // paper criticizes. Check channel diversity over the first proposals.
  const SearchSpace space = default_space();
  RlOptimizer rl(space);
  util::Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 30; ++i) seen.insert(rl.propose(rng).rollout[0].channels);
  EXPECT_GE(seen.size(), 4u);
}

TEST(RlOptimizer, FeedbackForForeignDesignsViaEncode) {
  const SearchSpace space = default_space();
  RlOptimizer rl(space);
  Observation obs;
  obs.design = vgg_design();
  obs.reward = 1.0;
  rl.feedback(obs);  // no matching proposal: must re-encode without throwing
  EXPECT_EQ(rl.episodes(), 1u);
  // Out-of-space designs are ignored.
  obs.design.rollout[0].channels = 33;
  rl.feedback(obs);
  EXPECT_EQ(rl.episodes(), 1u);
}

// -------------------------------------------------------------- Genetic

TEST(GeneticOptimizer, SeedsThenBreedsInSpace) {
  const SearchSpace space = default_space();
  GeneticOptimizer ga(space, {.population = 8, .tournament = 2,
                              .crossover_rate = 0.9, .mutation_rate = 0.1,
                              .elite = 2});
  util::Rng rng(4);
  for (int ep = 0; ep < 40; ++ep) {
    const Design d = ga.propose(rng);
    EXPECT_TRUE(space.contains(d));
    Observation obs;
    obs.design = d;
    obs.reward = static_cast<double>(d.rollout[0].channels);
    ga.feedback(obs);
  }
  EXPECT_GT(ga.population_size(), 0u);
}

TEST(GeneticOptimizer, ExploitsAPlantedReward) {
  const SearchSpace space = default_space();
  GeneticOptimizer ga(space, {.population = 12, .tournament = 3,
                              .crossover_rate = 0.9, .mutation_rate = 0.05,
                              .elite = 3});
  util::Rng rng(5);
  double late_sum = 0.0;
  int late_n = 0;
  for (int ep = 0; ep < 200; ++ep) {
    const Design d = ga.propose(rng);
    Observation obs;
    obs.design = d;
    obs.reward = d.rollout[0].channels / 128.0;
    ga.feedback(obs);
    if (ep >= 150) {
      late_sum += obs.reward;
      ++late_n;
    }
  }
  // Uniform sampling gives mean (16+24+32+48+64+96+128)/7/128 = 0.455.
  EXPECT_GT(late_sum / late_n, 0.6);
}

TEST(GeneticOptimizer, RejectsDegenerateOptions) {
  EXPECT_THROW(GeneticOptimizer(default_space(),
                                {.population = 1, .tournament = 2,
                                 .crossover_rate = 0.9, .mutation_rate = 0.1,
                                 .elite = 1}),
               std::invalid_argument);
}

// ------------------------------------------------------------ decodes_to

TEST(SearchSpace, DecodesToAgreesWithDecode) {
  const SearchSpace space = default_space();
  util::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Design d = space.sample(rng);
    const std::vector<int> idx = space.encode(d);
    EXPECT_TRUE(space.decodes_to(idx, d));
    EXPECT_EQ(space.decode(idx), d);

    // Any single perturbation must break the match.
    Design wrong_rollout = d;
    wrong_rollout.rollout[0].channels += 1;
    EXPECT_FALSE(space.decodes_to(idx, wrong_rollout));
    Design wrong_hw = d;
    wrong_hw.hw.adc_bits += 1;
    EXPECT_FALSE(space.decodes_to(idx, wrong_hw));
    Design wrong_budget = d;
    wrong_budget.hw.area_budget_mm2 += 1.0;
    EXPECT_FALSE(space.decodes_to(idx, wrong_budget));
  }
  // Malformed indices are false, not a throw.
  const Design d = space.sample(rng);
  EXPECT_FALSE(space.decodes_to({}, d));
  std::vector<int> bad = space.encode(d);
  bad[0] = 10000;
  EXPECT_FALSE(space.decodes_to(bad, d));
}

// --------------------------------------------------------------- Random

TEST(RandomOptimizer, AvoidsDuplicates) {
  const SearchSpace space = default_space();
  RandomOptimizer random(space);
  util::Rng rng(6);
  std::set<std::uint64_t> seen;
  int dups = 0;
  for (int i = 0; i < 100; ++i) {
    const Design d = random.propose(rng);
    if (!seen.insert(d.hash()).second) ++dups;
    Observation obs;
    obs.design = d;
    random.feedback(obs);
  }
  EXPECT_EQ(dups, 0) << "the space is astronomically large; no dups expected";
}

}  // namespace
}  // namespace lcda::search
