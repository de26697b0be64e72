// Scenario registry, ExperimentConfig serialization, and the run-level
// behaviour of the persistent evaluation store: the contracts behind
// `lcda_run` and the data-driven benches. (Store internals — segments,
// budgets, corruption recovery, migration — live in store_test.)
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "lcda/core/scenario.h"
#include "lcda/core/report.h"
#include "lcda/noise/write_verify.h"

#include "temp_dir.h"

namespace {

using namespace lcda;

std::string canonical(const core::ExperimentConfig& config) {
  return core::config_to_json(config, /*include_defaults=*/true).dump();
}

/// Episode trace only — cache counters legitimately differ between a cold
/// and a warm run of the same study.
std::string trace_text(const core::RunResult& run) {
  return core::run_to_json(run, "run").at("trace").dump();
}

/// A unique fresh temp directory per test.
std::string temp_dir(const char* tag) {
  return test::fresh_temp_dir(std::string("lcda_scenario_test_") + tag).string();
}

// ------------------------------------------------------- config round-trip

TEST(ConfigJson, DefaultConfigSerializesEmpty) {
  const core::ExperimentConfig def;
  EXPECT_EQ(core::config_to_json(def).dump(), "{}");
}

TEST(ConfigJson, NonDefaultFieldsSurviveRoundTrip) {
  core::ExperimentConfig config;
  config.objective = llm::Objective::kLatency;
  config.combined_reward = true;
  config.latency_weight = 0.5;
  config.lcda_episodes = 7;
  config.seed = 99;
  config.space.conv_layers = 4;
  config.space.channel_choices = {8, 16};
  config.space.hw.devices = {cim::DeviceType::kFefet, cim::DeviceType::kSram};
  config.space.area_budget_mm2 = 12.5;
  config.space.backbone.pool_after = {0, 2};
  config.evaluator.monte_carlo_samples = 3;
  config.evaluator.accuracy.variation_coeff = 1.75;
  config.evaluator.write_verify_fraction = 0.2;
  config.evaluator_kind = core::EvaluatorKind::kTrained;
  config.trained.dataset.image_size = 16;
  config.trained.epochs = 2;
  config.batch_size = 8;
  config.cache_evaluations = false;
  config.persistent_cache_dir = "/tmp/cache";

  const util::Json sparse = core::config_to_json(config);
  const core::ExperimentConfig back = core::config_from_json(sparse);
  EXPECT_EQ(canonical(back), canonical(config));

  // The sparse form names only what changed.
  EXPECT_FALSE(sparse.contains("nacim_episodes"));
  EXPECT_FALSE(sparse.at("space").contains("kernel_choices"));
}

TEST(ConfigJson, FullDumpRoundTripsToo) {
  core::ExperimentConfig config;
  config.space.conv_layers = 5;
  const core::ExperimentConfig back =
      core::config_from_json(core::config_to_json(config, true));
  EXPECT_EQ(canonical(back), canonical(config));
}

TEST(ConfigJson, LargeSeedsRoundTripThroughHexStrings) {
  core::ExperimentConfig config;
  config.seed = 0xdeadbeefcafef00dULL;  // > 2^53
  const util::Json j = core::config_to_json(config);
  EXPECT_TRUE(j.at("seed").is_string());
  EXPECT_EQ(core::config_from_json(j).seed, config.seed);

  // Quoted seeds are hex only with an explicit 0x prefix; "42" means 42.
  EXPECT_EQ(core::config_from_json(util::Json::parse(R"({"seed":"42"})")).seed,
            42u);
  EXPECT_EQ(core::config_from_json(util::Json::parse(R"({"seed":"0x42"})")).seed,
            0x42u);
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"seed":"fast"})")),
               std::invalid_argument);
}

TEST(ConfigJson, UnknownKeysAreRejected) {
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"objectives":"energy"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"space":{"conv_layer":4}})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"evaluator":{"accuracy":{"lucky_sigma":1}}})")),
               std::invalid_argument);
  // The error names the offending key.
  try {
    (void)core::config_from_json(util::Json::parse(R"({"space":{"typo":1}})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("typo"), std::string::npos);
  }
}

TEST(ConfigJson, ScenarioConfigErrorsNameTheConfigKeyPath) {
  // A scenario file's (or shard spec's) config reports the same key paths
  // as config_from_json and --set.
  const auto error = [](const char* text) {
    try {
      (void)core::scenario_from_json(util::Json::parse(text));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error(R"({"name":"s","config":{"lcda_episodes":4294967298}})")
                .rfind("config.lcda_episodes: ", 0),
            0u);
  EXPECT_EQ(error(R"({"name":"s","config":{"typo":1}})")
                .rfind("config: unknown key(s) \"typo\"", 0),
            0u);
  EXPECT_EQ(error(R"({"name":"s","x":1})")
                .rfind("scenario: unknown key(s) \"x\"", 0),
            0u);
}

TEST(ConfigJson, ParallelismAboveTheThreadLimitIsRejected) {
  // Only parsed, never run: 4097 must not become a pool of 4097 threads.
  const auto error = [](const auto& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error([] {
              (void)core::scenario_from_json(util::Json::parse(
                  R"({"name":"s","config":{"parallelism":4097}})"));
            }),
            "config.parallelism: 4097 is above the limit of 4096");
  core::ExperimentConfig config;
  EXPECT_EQ(error([&] { core::apply_override(config, "parallelism=4097"); }),
            "config.parallelism: 4097 is above the limit of 4096");
  EXPECT_EQ(config.parallelism, 1);
  // Negative means nothing (0 is "every hardware thread"), as for
  // lcda_run --parallelism.
  EXPECT_EQ(error([] {
              (void)core::scenario_from_json(util::Json::parse(
                  R"({"name":"s","config":{"parallelism":-1}})"));
            }),
            "config.parallelism: -1 is negative");
  EXPECT_EQ(error([&] { core::apply_override(config, "parallelism=-1"); }),
            "config.parallelism: -1 is negative");
  EXPECT_EQ(config.parallelism, 1);
  core::apply_override(config, "parallelism=4096");
  EXPECT_EQ(config.parallelism, 4096);
}

TEST(ConfigJson, BadEnumValuesAreRejected) {
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"objective":"power"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(
                   util::Json::parse(R"({"evaluator_kind":"oracle"})")),
               std::invalid_argument);
  EXPECT_THROW((void)core::config_from_json(util::Json::parse(
                   R"({"space":{"hardware":{"devices":["MRAM"]}}})")),
               std::invalid_argument);
}

// --------------------------------------------------------------- overrides

TEST(ApplyOverride, DottedPathsReachEveryLayer) {
  core::ExperimentConfig config;
  core::apply_override(config, "objective=latency");
  core::apply_override(config, "space.conv_layers=4");
  core::apply_override(config, "space.channel_choices=[16,32,64]");
  core::apply_override(config, "space.hardware.devices=[\"FeFET\"]");
  core::apply_override(config, "evaluator.accuracy.variation_coeff=2.25");
  core::apply_override(config, "cache_evaluations=false");
  EXPECT_EQ(config.objective, llm::Objective::kLatency);
  EXPECT_EQ(config.space.conv_layers, 4);
  EXPECT_EQ(config.space.channel_choices, (std::vector<int>{16, 32, 64}));
  ASSERT_EQ(config.space.hw.devices.size(), 1u);
  EXPECT_EQ(config.space.hw.devices[0], cim::DeviceType::kFefet);
  EXPECT_EQ(config.evaluator.accuracy.variation_coeff, 2.25);
  EXPECT_FALSE(config.cache_evaluations);
}

TEST(ApplyOverride, RejectsUnknownPathsAndBadSyntax) {
  core::ExperimentConfig config;
  EXPECT_THROW(core::apply_override(config, "space.conv_layer=4"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "nope.deep.path=1"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "no_equals_sign"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "=5"), std::invalid_argument);
  // Integers outside int are rejected, not wrapped (to 2 and to 6).
  EXPECT_THROW(core::apply_override(config, "lcda_episodes=4294967298"),
               std::invalid_argument);
  EXPECT_THROW(core::apply_override(config, "space.conv_layers=4294967302"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(Registry, BuiltinCatalogIsComplete) {
  const std::vector<std::string> names = core::list_scenarios();
  for (const char* required :
       {"paper-energy", "paper-latency", "naive", "finetuned", "tight-area",
        "high-variation", "deep-backbone", "multi-objective", "trained-small"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing builtin scenario " << required;
  }
  EXPECT_GE(names.size(), 9u);
}

TEST(Registry, PaperScenariosMatchTheLegacyConfigs) {
  // The refactor's contract: the paper scenarios ARE the pre-registry
  // hardcoded configs. paper-energy is a default ExperimentConfig...
  EXPECT_EQ(canonical(core::scenario_by_name("paper-energy").config),
            canonical(core::ExperimentConfig{}));
  // ...and paper-latency/finetuned only flip the objective.
  core::ExperimentConfig latency;
  latency.objective = llm::Objective::kLatency;
  EXPECT_EQ(canonical(core::scenario_by_name("paper-latency").config),
            canonical(latency));
  EXPECT_EQ(canonical(core::scenario_by_name("finetuned").config),
            canonical(latency));
  EXPECT_EQ(core::scenario_by_name("naive").default_strategy,
            core::Strategy::kLcdaNaive);
  EXPECT_EQ(core::scenario_by_name("finetuned").default_strategy,
            core::Strategy::kLcdaFinetuned);
}

TEST(Registry, DuplicateAndUnknownNamesThrow) {
  core::Scenario s;
  s.name = "paper-energy";
  EXPECT_THROW(core::register_scenario(s), std::invalid_argument);
  try {
    (void)core::scenario_by_name("no-such-scenario");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists what IS available.
    EXPECT_NE(std::string(e.what()).find("paper-energy"), std::string::npos);
  }
}

TEST(Registry, CustomScenariosRegisterAndRoundTripThroughFiles) {
  core::Scenario s;
  s.name = "test-custom";
  s.summary = "registered by scenario_test";
  s.default_strategy = core::Strategy::kGenetic;
  s.config.space.conv_layers = 3;
  s.config.lcda_episodes = 4;
  core::register_scenario(s);

  const core::Scenario back = core::scenario_by_name("test-custom");
  EXPECT_EQ(back.summary, s.summary);
  EXPECT_EQ(back.default_strategy, core::Strategy::kGenetic);
  EXPECT_EQ(canonical(back.config), canonical(s.config));

  const std::string path = temp_dir("files") + "/custom.json";
  core::save_scenario(s, path);
  const core::Scenario loaded = core::load_scenario(path);
  EXPECT_EQ(loaded.name, s.name);
  EXPECT_EQ(loaded.default_strategy, s.default_strategy);
  EXPECT_EQ(canonical(loaded.config), canonical(s.config));
}

TEST(Registry, ScenarioDirRegistersDroppedInFilesInNameOrder) {
  const std::string dir = temp_dir("scenario_dir");
  core::Scenario s = core::scenario_by_name("tight-area");
  s.name = "dropped-in-b";
  core::save_scenario(s, dir + "/b.json");
  s.name = "dropped-in-a";
  core::save_scenario(s, dir + "/a.json");
  std::ofstream(dir + "/notes.txt") << "not a scenario";  // ignored

  const std::vector<std::string> names = core::register_scenarios_from(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "dropped-in-a");  // deterministic file-name order
  EXPECT_EQ(names[1], "dropped-in-b");
  EXPECT_EQ(core::scenario_by_name("dropped-in-a").config.space.area_budget_mm2,
            20.0);

  // Re-registering identical definitions (env autoload + explicit
  // --scenario-dir of the same directory) is a harmless no-op ...
  EXPECT_TRUE(core::register_scenarios_from(dir).empty());
  // ... but a CONFLICTING definition under a taken name fails loudly.
  const std::string dir2 = temp_dir("scenario_dir_conflict");
  s.name = "dropped-in-a";
  s.config.seed = 999;
  core::save_scenario(s, dir2 + "/a.json");
  EXPECT_THROW(core::register_scenarios_from(dir2), std::invalid_argument);
  // And a directory that cannot be read is a hard error, not a no-op.
  EXPECT_THROW(core::register_scenarios_from(dir + "/missing"),
               std::runtime_error);
}

TEST(Registry, ScenarioDirRejectsMalformedFiles) {
  const std::string dir = temp_dir("scenario_dir_bad");
  std::ofstream(dir + "/broken.json") << R"({"name": "broken", "typo": 1})";
  EXPECT_THROW(core::register_scenarios_from(dir), std::invalid_argument);
}

TEST(Registry, EveryBuiltinScenarioRoundTripsThroughJson) {
  for (const std::string& name : core::list_scenarios()) {
    const core::Scenario s = core::scenario_by_name(name);
    const core::Scenario back = core::scenario_from_json(core::scenario_to_json(s));
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.default_strategy, s.default_strategy);
    EXPECT_EQ(canonical(back.config), canonical(s.config)) << name;
  }
}

// ------------------------------------------------------- study fingerprint

TEST(StudyFingerprint, IgnoresEngineKnobsAndDefaultBudgets) {
  core::ExperimentConfig a;
  core::ExperimentConfig b;
  b.parallelism = 8;
  b.cache_evaluations = false;
  b.persistent_cache_dir = "/tmp/x";
  b.lcda_episodes = 50;  // only defaults; the real count is the parameter
  b.nacim_episodes = 100;
  EXPECT_EQ(core::study_fingerprint(a, core::Strategy::kLcda, 20),
            core::study_fingerprint(b, core::Strategy::kLcda, 20));
}

TEST(StudyFingerprint, SeparatesStudies) {
  const core::ExperimentConfig base;
  const auto fp = core::study_fingerprint(base, core::Strategy::kLcda, 20);
  EXPECT_NE(fp, core::study_fingerprint(base, core::Strategy::kNacimRl, 20));
  // Batched optimizers truncate their last batch at the budget, shifting
  // RNG consumption — different budgets must not share entries.
  EXPECT_NE(fp, core::study_fingerprint(base, core::Strategy::kLcda, 21));
  core::ExperimentConfig seeded = base;
  seeded.seed = 2;
  EXPECT_NE(fp, core::study_fingerprint(seeded, core::Strategy::kLcda, 20));
  core::ExperimentConfig spaced = base;
  spaced.space.area_budget_mm2 = 20.0;
  EXPECT_NE(fp, core::study_fingerprint(spaced, core::Strategy::kLcda, 20));
  core::ExperimentConfig batched = base;
  batched.batch_size = 4;  // batch composition can shape proposal streams
  EXPECT_NE(fp, core::study_fingerprint(batched, core::Strategy::kLcda, 20));
}

// ------------------------------------------------ fingerprint namespaces

TEST(EvaluationFingerprint, IgnoresStreamIdentityAndEngineKnobs) {
  // The evaluation-identity namespace is what legally determines an
  // Evaluation: space, evaluator, reward, noise. Seed, batch size and every
  // engine knob belong to the stream/engine side, so studies differing only
  // there share records through the store's shared namespace.
  core::ExperimentConfig a;
  core::ExperimentConfig b;
  b.seed = 99;
  b.batch_size = 4;
  b.parallelism = 8;
  b.pipeline_depth = 2;
  b.persistent_cache_dir = "/tmp/x";
  b.lcda_episodes = 50;
  EXPECT_EQ(core::evaluation_fingerprint(a), core::evaluation_fingerprint(b));
}

TEST(EvaluationFingerprint, SeparatesEvaluationIdentities) {
  const core::ExperimentConfig base;
  const auto fp = core::evaluation_fingerprint(base);
  core::ExperimentConfig spaced = base;
  spaced.space.area_budget_mm2 = 20.0;
  EXPECT_NE(fp, core::evaluation_fingerprint(spaced));
  core::ExperimentConfig noisy = base;
  noisy.evaluator.accuracy.variation_coeff = 1.75;
  EXPECT_NE(fp, core::evaluation_fingerprint(noisy));
  core::ExperimentConfig objective = base;
  objective.objective = llm::Objective::kLatency;
  EXPECT_NE(fp, core::evaluation_fingerprint(objective));
}

TEST(StreamFingerprint, SeparatesStreams) {
  const core::ExperimentConfig base;
  const auto fp = core::stream_fingerprint(base, core::Strategy::kLcda, 20);
  EXPECT_NE(fp, core::stream_fingerprint(base, core::Strategy::kNacimRl, 20));
  // Batched optimizers truncate their last batch at the budget, shifting
  // RNG consumption — different budgets must not share full keys.
  EXPECT_NE(fp, core::stream_fingerprint(base, core::Strategy::kLcda, 21));
  core::ExperimentConfig seeded = base;
  seeded.seed = 2;
  EXPECT_NE(fp, core::stream_fingerprint(seeded, core::Strategy::kLcda, 20));
  core::ExperimentConfig batched = base;
  batched.batch_size = 4;
  EXPECT_NE(fp, core::stream_fingerprint(batched, core::Strategy::kLcda, 20));
}

TEST(Fingerprints, PinnedForThePaperAndTrainedStudies) {
  // Every store record is keyed by the evaluation and stream fingerprints,
  // and every checkpoint directory by the study fingerprint. A change that
  // moves any value below therefore sends every existing store record and
  // checkpoint cold; such a change must update these pins on purpose and
  // say so in CHANGES.md.
  struct Pin {
    const char* scenario;
    int episodes;
    std::uint64_t study, evaluation, stream;
  };
  const Pin pins[] = {
      {"paper-energy", 20, 0xa74a3d2c5056e405ULL, 0x5701058edc09554cULL,
       0x8a7e408edff7ee83ULL},
      {"trained-small", 5, 0x9c44a38b53129410ULL, 0xdf0d3b6f0a83da12ULL,
       0x1bdfd6b4965cc172ULL},
  };
  for (const Pin& pin : pins) {
    core::ExperimentConfig config = core::scenario_by_name(pin.scenario).config;
    config.seed = 1;
    EXPECT_EQ(core::study_fingerprint(config, core::Strategy::kLcda, pin.episodes),
              pin.study)
        << pin.scenario;
    EXPECT_EQ(core::evaluation_fingerprint(config), pin.evaluation)
        << pin.scenario;
    EXPECT_EQ(
        core::stream_fingerprint(config, core::Strategy::kLcda, pin.episodes),
        pin.stream)
        << pin.scenario;
  }
}

// ------------------------------------------- persistent evaluation store

TEST(PersistentStore, SecondRunIsServedFromDiskWithIdenticalTrace) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("reuse");
  config.lcda_episodes = 8;

  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(cold.persistent_hits, 0);
  EXPECT_GT(cold.cache_misses, 0);

  const core::RunResult warm =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.persistent_hits, cold.cache_misses);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, DifferentEpisodeBudgetsDoNotShareEntries) {
  // Batched optimizers truncate the final batch at the budget, which
  // shifts RNG consumption: a 4-episode stream is NOT a prefix of an
  // 8-episode stream in general, so budgets must not share full keys. And
  // shared-namespace reuse only ever flows through compacted index buckets,
  // which don't exist until --store-compact runs.
  const std::string dir = temp_dir("budgets");
  core::ExperimentConfig config;
  config.persistent_cache_dir = dir;
  (void)core::run_strategy(core::Strategy::kLcda, 4, config);
  const core::RunResult big = core::run_strategy(core::Strategy::kLcda, 8, config);
  EXPECT_EQ(big.persistent_hits, 0);
  EXPECT_EQ(big.persistent_shared_hits, 0);
  // Each study published its own append-only segment.
  std::size_t segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/segments")) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 2u);
}

TEST(PersistentStore, WarmBatchedOptimizerRunsStayBitIdentical) {
  // The guarantee that forced episodes into the fingerprint: a genetic
  // run's warm rerun (same budget) must match its cold run bit for bit,
  // even though the population batching truncates at the budget tail.
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("batched");
  const core::RunResult cold =
      core::run_strategy(core::Strategy::kGenetic, 30, config);
  const core::RunResult warm =
      core::run_strategy(core::Strategy::kGenetic, 30, config);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_GT(warm.persistent_hits, 0);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, RunRespectsConfiguredBudgetAndStaysBitIdentical) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("evict_run");
  config.persistent_cache_max_entries = 4;
  config.lcda_episodes = 8;

  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  ASSERT_GT(cold.cache_misses, 4);  // else the budget never binds
  EXPECT_GT(cold.persistent_evictions, 0);

  // The warm rerun only finds the newest entries on disk, re-evaluates the
  // evicted ones — deterministically — and must stay bit-identical.
  const core::RunResult warm =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_GT(warm.persistent_hits, 0);
  EXPECT_GT(warm.cache_misses, 0);
  EXPECT_EQ(warm.persistent_hits + warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(trace_text(warm), trace_text(cold));
}

TEST(PersistentStore, DistinctStreamsDoNotShareFullKeys) {
  // LCDA and LCDA-naive share an evaluation identity (same space, evaluator
  // and reward) but not a stream, so neither study may claim the other's
  // records as its own — and the shared namespace stays silent until an
  // explicit --store-compact publishes index buckets.
  const std::string dir = temp_dir("separate");
  core::ExperimentConfig config;
  config.persistent_cache_dir = dir;
  config.lcda_episodes = 4;
  (void)core::run_strategy(core::Strategy::kLcda, 4, config);
  const core::RunResult other =
      core::run_strategy(core::Strategy::kLcdaNaive, 4, config);
  EXPECT_EQ(other.persistent_hits, 0);
  EXPECT_EQ(other.persistent_shared_hits, 0);
}

TEST(PersistentStore, SkippedFilesSurfaceInRunResult) {
  core::ExperimentConfig config;
  config.persistent_cache_dir = temp_dir("skip_visible");
  config.lcda_episodes = 4;
  const core::RunResult cold =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(cold.persistent_skipped, 0);
  EXPECT_EQ(cold.persistent_save_failures, 0);

  // Corrupt the study's published segment; the rerun reports the skip,
  // still completes (cold, deterministically), and stays bit-identical.
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           config.persistent_cache_dir + "/segments")) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "garbage";
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1u);
  const core::RunResult rerun =
      core::run_strategy(core::Strategy::kLcda, config.lcda_episodes, config);
  EXPECT_EQ(rerun.persistent_skipped, 1);
  EXPECT_EQ(rerun.persistent_hits, 0);
  EXPECT_EQ(trace_text(rerun), trace_text(cold));
}

// --------------------------------------------------- scenario behaviours

TEST(Scenarios, DescriptionsExistAndRoundTrip) {
  // Every built-in carries a description (lcda_run --list prints it, shard
  // specs embed it), and the field survives serialization. Only the
  // built-ins are checked: other tests drop scenarios into the shared
  // registry, and those need not carry one.
  for (const char* name :
       {"paper-energy", "paper-latency", "naive", "finetuned", "tight-area",
        "high-variation", "deep-backbone", "multi-objective", "trained-small"}) {
    EXPECT_FALSE(core::scenario_by_name(name).description.empty())
        << name << " has no description";
  }
  const core::Scenario s = core::scenario_by_name("paper-energy");
  const core::Scenario back = core::scenario_from_json(
      util::Json::parse(core::scenario_to_json(s).dump()));
  EXPECT_EQ(back.description, s.description);

  // Absent field stays absent: a description-less scenario serializes
  // without the key and loads back empty.
  core::Scenario bare;
  bare.name = "bare";
  EXPECT_FALSE(core::scenario_to_json(bare).contains("description"));
  EXPECT_TRUE(core::scenario_from_json(core::scenario_to_json(bare))
                  .description.empty());
}

TEST(Scenarios, TightAreaBudgetPropagatesToDesigns) {
  const core::Scenario s = core::scenario_by_name("tight-area");
  const search::SearchSpace space(s.config.space);
  util::Rng rng(1);
  const search::Design d = space.sample(rng);
  EXPECT_EQ(d.hw.area_budget_mm2, 20.0);
  // And snapping an out-of-space design stamps the budget too.
  EXPECT_EQ(space.snap(search::Design{}).hw.area_budget_mm2, 20.0);
}

TEST(Scenarios, WriteVerifyReducesEffectiveSigma) {
  EXPECT_EQ(noise::effective_sigma_scale(0.0, 0.1), 1.0);
  EXPECT_NEAR(noise::effective_sigma_scale(1.0, 0.1), 0.1, 1e-12);
  const double scale = noise::effective_sigma_scale(0.25, 0.1);
  EXPECT_GT(scale, 0.85);
  EXPECT_LT(scale, 0.88);
  EXPECT_THROW((void)noise::effective_sigma_scale(1.5, 0.1),
               std::invalid_argument);
}

TEST(Scenarios, WriteVerifyAccuracyGainIsPaidInProgrammingEnergy) {
  search::Design design;
  design.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  core::SurrogateEvaluator plain;
  core::SurrogateEvaluator::Options wv_opts;
  wv_opts.write_verify_fraction = 0.25;
  core::SurrogateEvaluator with_wv(wv_opts);
  util::Rng rng_a(1), rng_b(1);
  const core::Evaluation base = plain.evaluate(design, rng_a);
  const core::Evaluation verified = with_wv.evaluate(design, rng_b);
  EXPECT_GT(verified.accuracy, base.accuracy);  // reduced effective sigma
  // ...bought with extra one-time write pulses: (1-f) + f*pulses = 2.75x.
  EXPECT_NEAR(verified.cost.programming_energy_pj,
              2.75 * base.cost.programming_energy_pj,
              1e-6 * base.cost.programming_energy_pj);
}

TEST(Scenarios, CombinedRewardTradesBothMetrics) {
  const core::ExperimentConfig cfg = core::scenario_by_name("multi-objective").config;
  EXPECT_TRUE(cfg.combined_reward);
  const core::RewardFunction reward = core::make_reward(cfg);
  EXPECT_TRUE(reward.is_combined());
  cim::CostReport cost;
  cost.valid = true;
  cost.energy_total_pj = 8e7;  // energy term = 1
  cost.latency_ns = 1e9 / 1600.0;  // FPS term = 1
  EXPECT_NEAR(reward(0.5, cost), 0.5 - 1.0 + 1.0, 1e-12);
  cost.valid = false;
  EXPECT_EQ(reward(0.5, cost), core::kInvalidReward);
}

TEST(Scenarios, DeepBackbonePromptsYieldEightLayerRollouts) {
  core::ExperimentConfig cfg = core::scenario_by_name("deep-backbone").config;
  cfg.lcda_episodes = 3;
  const core::RunResult run =
      core::run_strategy(core::Strategy::kLcda, cfg.lcda_episodes, cfg);
  for (const auto& ep : run.episodes) {
    EXPECT_EQ(ep.design.rollout.size(), 8u);
  }
}

TEST(Scenarios, PaperEnergyViaRegistryMatchesLegacyHardcodedRun) {
  // The acceptance contract in miniature: driving the run through the
  // registry reproduces the pre-refactor (hand-built config) trace.
  core::ExperimentConfig legacy;  // what the benches used to build inline
  legacy.objective = llm::Objective::kEnergy;
  legacy.seed = 1;
  const core::RunResult expected = core::run_strategy(
      core::Strategy::kLcda, legacy.lcda_episodes, legacy);
  const core::RunResult actual = core::run_strategy(
      core::Strategy::kLcda, 20, core::scenario_by_name("paper-energy").config);
  EXPECT_EQ(trace_text(actual), trace_text(expected));
}

}  // namespace
