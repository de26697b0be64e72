// The checkpoint subsystem: fault-spec parsing, the round-record codec, the
// round log on disk (torn tails, foreign files, one log per writer, the
// longest log wins), and — the load-bearing contract — checkpointed,
// killed-and-resumed runs byte-identical to uninterrupted ones for every
// strategy, LCDA and its ablations included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/util/fault.h"
#include "lcda/util/logging.h"
#include "lcda/util/subprocess.h"

#include "temp_dir.h"

namespace {

using namespace lcda;

std::string temp_dir(const std::string& tag) {
  return test::fresh_temp_dir("lcda_ckpt_test_" + tag).string();
}

bool mentions(const std::string& text, const char* what) {
  return text.find(what) != std::string::npos;
}

/// A small config with per-episode rounds, so a log of N records holds
/// exactly N episodes for every strategy.
core::ExperimentConfig small_config() {
  core::ExperimentConfig config = core::scenario_by_name("paper-energy").config;
  config.batch_size = 1;
  return config;
}

std::string trace_csv(const core::RunResult& run, std::string_view label) {
  std::ostringstream csv;
  core::write_run_csv(csv, run, label);
  return csv.str();
}

/// Everything a run's byte contract covers: the full JSON document plus
/// the trace CSV.
std::string render(const core::RunResult& run, std::string_view label) {
  return core::run_to_json(run, label).dump(2) + "\n---\n" +
         trace_csv(run, label);
}

std::filesystem::path study_dir(const core::ExperimentConfig& config,
                                core::Strategy strategy, int episodes) {
  return ckpt::study_checkpoint_dir(
      config.checkpoint_dir,
      core::study_fingerprint(config, strategy, episodes));
}

/// Every file in a study directory.
std::vector<std::filesystem::path> files_in(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    files.push_back(entry.path());
  }
  return files;
}

/// Cuts a round log back to its header and first `rounds` records: the
/// file a crash leaves after that many finalized rounds.
void keep_rounds(const std::filesystem::path& log, int rounds) {
  std::ifstream in(log, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::size_t end = ckpt::kRoundLogMagic.size() + 8;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_LE(end + 16, bytes.size()) << "log holds fewer rounds";
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + end, sizeof(len));
    end += 16 + len;
  }
  std::filesystem::resize_file(log, end);
}

/// Counts every evaluation the loop asks for, then delegates.
class CountingEvaluator final : public core::PerformanceEvaluator {
 public:
  explicit CountingEvaluator(const core::ExperimentConfig& config)
      : inner_(core::make_evaluator(config)) {}

  core::Evaluation evaluate(const search::Design& design,
                            util::Rng& rng) override {
    ++calls;
    return inner_->evaluate(design, rng);
  }
  bool replay_evaluation(const core::Evaluation& cached, util::Rng& rng,
                         core::Evaluation& out) override {
    ++calls;
    return inner_->replay_evaluation(cached, rng, out);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::atomic<long long> calls{0};

 private:
  std::unique_ptr<core::PerformanceEvaluator> inner_;
};

// ------------------------------------------------------------- LCDA_FAULT

TEST(Fault, GrammarParsesEveryKindAndScope) {
  std::string error;
  const auto f = util::FaultInjector::parse(
      "kill@seed:2; sleep=400@seed:0,1; wedge@seed:3; kill@episode:9; "
      "torn-log@episode:5",
      &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(f.specs().size(), 5u);

  EXPECT_TRUE(f.kill_at_seed(2, /*attempt=*/0));
  EXPECT_FALSE(f.kill_at_seed(2, /*attempt=*/1));  // attempt-0 only
  EXPECT_FALSE(f.kill_at_seed(1, 0));
  EXPECT_TRUE(f.wedge_at_seed(3, 0));
  EXPECT_FALSE(f.wedge_at_seed(3, 1));
  EXPECT_EQ(f.sleep_ms_at_seed(0), 400);
  EXPECT_EQ(f.sleep_ms_at_seed(1), 400);
  EXPECT_EQ(f.sleep_ms_at_seed(2), 0);

  util::FaultInjector::set_attempt(0);
  EXPECT_EQ(f.kill_episode(), 9);
  EXPECT_EQ(f.torn_log_episode(), 5);
  // Episode faults disarm on retries through the process-wide attempt.
  util::FaultInjector::set_attempt(1);
  EXPECT_EQ(f.kill_episode(), -1);
  EXPECT_EQ(f.torn_log_episode(), -1);
  util::FaultInjector::set_attempt(0);
}

TEST(Fault, MalformedClausesAreDroppedNotFatal) {
  const char* kBad[] = {
      "explode@seed:1",        // unknown kind
      "torn-snapshot@episode:4",  // snapshots are gone: unknown kind
      "kill-seed:1",           // missing '@'
      "kill@turn:1",           // unknown scope
      "kill@seed",             // missing ':'
      "kill@seed:",            // empty target list
      "kill@seed:x",           // non-numeric
      "sleep@seed:1",          // sleep without '=<ms>'
      "kill=5@seed:1",         // kill does not take a value
      "wedge@episode:1",       // wedge is seed-scoped
      "torn-log@seed:1",       // torn-log is episode-scoped
      "kill@episode:1,2",      // episode scope takes a single episode
      "kill@seed:99999999999999999999",  // target overflows long long
      "kill@seed:-3",          // negative target
      "sleep=4294967297@seed:0",  // sleep above INT_MAX
  };
  for (const char* text : kBad) {
    std::string error;
    const auto f = util::FaultInjector::parse(text, &error);
    EXPECT_TRUE(f.specs().empty()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // A good clause next to a bad one still arms.
  std::string error;
  const auto f = util::FaultInjector::parse("bogus@seed:1;kill@seed:7", &error);
  EXPECT_FALSE(error.empty());
  ASSERT_EQ(f.specs().size(), 1u);
  EXPECT_TRUE(f.kill_at_seed(7, 0));
}

// ----------------------------------------------------------------- codecs

TEST(Codec, RoundDeltaRoundTripsAndRejectsTruncation) {
  core::RoundDelta delta;
  delta.first_episode = 42;
  delta.job_hashes = {0x1111, 0xdeadbeefcafe, 0};
  delta.job_evals.resize(3);
  delta.job_evals[0].cost.valid = true;
  delta.job_evals[0].accuracy = 0.875;
  delta.job_evals[2].cost.invalid_reason = "adc deficit";

  const std::string payload = ckpt::encode_round(delta);
  core::RoundDelta out;
  ASSERT_TRUE(ckpt::decode_round(payload, out));
  EXPECT_EQ(out.first_episode, 42);
  EXPECT_EQ(out.job_hashes, delta.job_hashes);
  ASSERT_EQ(out.job_evals.size(), 3u);
  EXPECT_TRUE(out.job_evals[0].cost.valid);
  EXPECT_EQ(out.job_evals[0].accuracy, 0.875);
  EXPECT_EQ(out.job_evals[2].cost.invalid_reason, "adc deficit");
  EXPECT_EQ(ckpt::encode_round(out), payload);

  core::RoundDelta trash;
  EXPECT_FALSE(ckpt::decode_round(payload.substr(0, payload.size() / 2), trash));
  EXPECT_FALSE(ckpt::decode_round("", trash));
  // An episode no round can start at is rejected, not narrowed.
  delta.first_episode = -1;
  EXPECT_FALSE(ckpt::decode_round(ckpt::encode_round(delta), trash));
}

// ---------------------------------------------------- the log on disk

/// A one-job round starting at `episode` (no engine needed).
core::RoundDelta round_at(int episode, std::uint64_t hash) {
  core::RoundDelta delta;
  delta.first_episode = episode;
  delta.job_hashes = {hash};
  delta.job_evals.resize(1);
  return delta;
}

TEST(Store, RoundLogLoadsAndToleratesTornTail) {
  const std::string root = temp_dir("torn_log");
  const std::uint64_t identity = 0x77;
  {
    ckpt::RunCheckpointer cp({root, identity});
    for (int ep = 0; ep < 3; ++ep) cp.on_round(round_at(ep, 11 + ep));
  }
  const auto rounds = ckpt::load_resume(root, identity);
  ASSERT_EQ(rounds.size(), 3u);
  for (int ep = 0; ep < 3; ++ep) {
    EXPECT_EQ(rounds[ep].first_episode, ep);
    EXPECT_EQ(rounds[ep].job_hashes, std::vector<std::uint64_t>{11u + ep});
  }
  // A different study identity sees nothing; an absent root is a cold
  // start, not an error.
  EXPECT_TRUE(ckpt::load_resume(root, identity + 1).empty());
  EXPECT_TRUE(ckpt::load_resume(root + "/nope", identity).empty());

  // Tear the last record: the reader keeps everything before the tear and
  // warns (counted), instead of failing the whole resume.
  const auto logs = files_in(ckpt::study_checkpoint_dir(root, identity));
  ASSERT_EQ(logs.size(), 1u);
  std::filesystem::resize_file(logs[0], std::filesystem::file_size(logs[0]) - 5);
  const std::string key = "ckpt-torn-log:" + logs[0].string();
  const long long warned_before = util::warn_once_count(key);
  const auto torn = ckpt::load_resume(root, identity);
  ASSERT_EQ(torn.size(), 2u);
  EXPECT_EQ(torn[1].first_episode, 1);
  EXPECT_GT(util::warn_once_count(key), warned_before);
}

TEST(Store, ForeignFilesResumeNothing) {
  // Garbage under a log's name, a log cut before its header, another
  // study's log, and the snapshot files of the earlier checkpoint format:
  // none of them resumes anything, and none is an error.
  const std::string root = temp_dir("foreign");
  const std::uint64_t identity = 0x99;
  const auto dir = ckpt::study_checkpoint_dir(root, identity);
  {
    ckpt::RunCheckpointer other({root, identity + 1});
    other.on_round(round_at(0, 11));
  }
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(
      files_in(ckpt::study_checkpoint_dir(root, identity + 1)).at(0),
      dir / "rounds-1-2.log");
  std::ofstream(dir / "rounds-1-0.log") << "not a round log at all";
  std::ofstream(dir / "rounds-1-1.log");
  std::ofstream(dir / "snap-4.ckpt") << "LCDACKP1 a snapshot";
  std::ofstream(dir / "snap-4.log") << "LCDALOG1 a changelog";

  const std::string key = "ckpt-bad-log:" + (dir / "rounds-1-2.log").string();
  const long long warned_before = util::warn_once_count(key);
  EXPECT_TRUE(ckpt::load_resume(root, identity).empty());
  EXPECT_GT(util::warn_once_count(key), warned_before);
}

TEST(Store, LongestLogWinsAndCompletionKeepsOnlyItsOwn) {
  // Two writers of one study (a stolen seed and the late-revoked copy its
  // first worker started anyway) never share a file. A resume takes the
  // longer history, and the first writer to complete deletes the other's
  // log.
  const std::string root = temp_dir("two_writers");
  const std::uint64_t identity = 0x55;
  const auto dir = ckpt::study_checkpoint_dir(root, identity);
  ckpt::RunCheckpointer a({root, identity});
  ckpt::RunCheckpointer b({root, identity});
  for (int ep = 0; ep < 2; ++ep) a.on_round(round_at(ep, 11 + ep));
  for (int ep = 0; ep < 3; ++ep) b.on_round(round_at(ep, 11 + ep));
  EXPECT_EQ(files_in(dir).size(), 2u);
  EXPECT_EQ(ckpt::load_resume(root, identity).size(), 3u);

  a.on_snapshot(core::LoopSnapshot{2});
  EXPECT_EQ(a.snapshots_written(), 1);
  EXPECT_EQ(files_in(dir).size(), 1u);
  EXPECT_EQ(ckpt::load_resume(root, identity).size(), 2u);

  // The other writer completing next finds its own log gone and deletes
  // nothing: the study keeps a whole log.
  b.on_snapshot(core::LoopSnapshot{3});
  EXPECT_EQ(b.snapshots_written(), 0);
  EXPECT_EQ(files_in(dir).size(), 1u);
  EXPECT_EQ(ckpt::load_resume(root, identity).size(), 2u);
}

// ------------------------------------------------ engine-level contracts

TEST(Engine, CheckpointingNeverChangesRunBytes) {
  // For every strategy: a checkpointed run renders the exact bytes of an
  // uncheckpointed one and leaves exactly one round log behind.
  for (core::Strategy strategy : core::all_strategies()) {
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    const int episodes = 6;
    core::ExperimentConfig config = small_config();
    const core::RunResult reference =
        core::run_strategy(strategy, episodes, config);

    core::ExperimentConfig ckpt_config = config;
    ckpt_config.checkpoint_dir =
        temp_dir("bytes_" + std::string(core::strategy_name(strategy)));
    const core::RunResult checkpointed =
        core::run_strategy(strategy, episodes, ckpt_config);

    EXPECT_EQ(render(checkpointed, "run"), render(reference, "run"));
    EXPECT_EQ(checkpointed.resumed_episodes, 0);
    EXPECT_EQ(files_in(study_dir(ckpt_config, strategy, episodes)).size(), 1u);
  }
}

TEST(Engine, ResumeReplaysAndContinuesByteIdentically) {
  // For every strategy: cut the log back to its first rounds, as a crash
  // would, and resume. The replayed prefix plus the live tail must render
  // the uninterrupted bytes, and the resumed run's own log — a whole
  // history again — is the one left behind.
  for (core::Strategy strategy : core::all_strategies()) {
    const int episodes = 8;
    core::ExperimentConfig config = small_config();
    config.checkpoint_dir =
        temp_dir("resume_" + std::string(core::strategy_name(strategy)));
    const std::string reference =
        render(core::run_strategy(strategy, episodes, config), "run");
    const auto dir = study_dir(config, strategy, episodes);
    const std::uint64_t identity =
        core::study_fingerprint(config, strategy, episodes);

    for (int kept : {5, 0, 7}) {
      SCOPED_TRACE(std::string(core::strategy_name(strategy)) + " kept " +
                   std::to_string(kept));
      const auto logs = files_in(dir);
      ASSERT_EQ(logs.size(), 1u);
      keep_rounds(logs[0], kept);
      core::ExperimentConfig resume_config = config;
      resume_config.resume = true;
      const core::RunResult resumed =
          core::run_strategy(strategy, episodes, resume_config);
      EXPECT_EQ(render(resumed, "run"), reference);
      EXPECT_EQ(resumed.resumed_episodes, kept);
      EXPECT_EQ(ckpt::load_resume(config.checkpoint_dir, identity).size(),
                static_cast<std::size_t>(episodes));
    }
  }
}

TEST(Engine, ResumingAFinishedStudyEvaluatesNothing) {
  // With a store too: the finished run saved its evaluations there, and
  // the replay must still count them as the cold run's misses rather than
  // turn them into disk hits.
  for (core::Strategy strategy : core::all_strategies()) {
    for (bool with_store : {false, true}) {
      const std::string tag = std::string(core::strategy_name(strategy)) +
                              (with_store ? "_store" : "");
      SCOPED_TRACE(tag);
      const int episodes = 6;
      core::ExperimentConfig config = small_config();
      config.checkpoint_dir = temp_dir("finished_" + tag);
      if (with_store) config.persistent_cache_dir = temp_dir("finished_db_" + tag);
      const std::string reference =
          render(core::run_strategy(strategy, episodes, config), "run");

      core::ExperimentConfig resume_config = config;
      resume_config.resume = true;
      CountingEvaluator counting(config);
      const core::RunResult resumed =
          core::run_strategy(strategy, episodes, resume_config, &counting);
      EXPECT_EQ(counting.calls.load(), 0);
      EXPECT_EQ(resumed.resumed_episodes, episodes);
      EXPECT_EQ(render(resumed, "run"), reference);
    }
  }
}

TEST(Engine, LcdaResumesFromItsRoundLog) {
  // The paper's method checkpoints like every other strategy: the resumed
  // run rebuilds the simulated client from the seed, replays the logged
  // turns through it, and continues the conversation live.
  const int episodes = 6;
  core::ExperimentConfig config = small_config();
  const std::string reference =
      render(core::run_strategy(core::Strategy::kLcda, episodes, config), "run");

  config.checkpoint_dir = temp_dir("lcda");
  (void)core::run_strategy(core::Strategy::kLcda, episodes, config);
  const auto logs = files_in(study_dir(config, core::Strategy::kLcda, episodes));
  ASSERT_EQ(logs.size(), 1u);
  keep_rounds(logs[0], 2);

  config.resume = true;
  const core::RunResult resumed =
      core::run_strategy(core::Strategy::kLcda, episodes, config);
  EXPECT_EQ(render(resumed, "run"), reference);
  EXPECT_EQ(resumed.resumed_episodes, 2);
}

TEST(Engine, PipelinedResumeRepublishesReplayedRoundsToTheStore) {
  // Random proposes ahead of its in-flight rounds at parallelism 4. A
  // resume cut mid-run still renders the uninterrupted bytes, and its
  // store session publishes the replayed evaluations too (through
  // finalize, as live rounds do): a warm rerun on that store evaluates
  // nothing and still writes the same trace.
  const int episodes = 200;
  core::ExperimentConfig config = core::scenario_by_name("paper-energy").config;
  config.parallelism = 4;
  config.checkpoint_dir = temp_dir("pipelined");
  const core::RunResult uninterrupted =
      core::run_strategy(core::Strategy::kRandom, episodes, config);
  const std::string reference = render(uninterrupted, "run");
  const auto logs =
      files_in(study_dir(config, core::Strategy::kRandom, episodes));
  ASSERT_EQ(logs.size(), 1u);
  keep_rounds(logs[0], 77);

  core::ExperimentConfig resume_config = config;
  resume_config.resume = true;
  resume_config.persistent_cache_dir = temp_dir("pipelined_store");
  const core::RunResult resumed =
      core::run_strategy(core::Strategy::kRandom, episodes, resume_config);
  EXPECT_EQ(render(resumed, "run"), reference);
  EXPECT_EQ(resumed.resumed_episodes, 77);

  core::ExperimentConfig warm_config = config;
  warm_config.checkpoint_dir.clear();
  warm_config.persistent_cache_dir = resume_config.persistent_cache_dir;
  CountingEvaluator counting(config);
  const core::RunResult warm =
      core::run_strategy(core::Strategy::kRandom, episodes, warm_config, &counting);
  EXPECT_EQ(trace_csv(warm, "run"), trace_csv(uninterrupted, "run"));
  EXPECT_EQ(warm.persistent_hits + warm.cache_hits, episodes);
  EXPECT_EQ(counting.calls.load(), 0);
}

// --------------------------------------- killed-and-resumed subprocesses

std::string lcda_run_path() {
  const std::string self = util::self_executable_path(nullptr);
  if (self.empty()) return "";
  const std::filesystem::path candidate =
      std::filesystem::path(self).parent_path() / "lcda_run";
  std::error_code ec;
  return std::filesystem::exists(candidate, ec) ? candidate.string() : "";
}

/// Runs an lcda_run child. A sanitized child reports into the stderr
/// captured here, where the sanitizer job's own checks cannot see it, so
/// any report fails the test.
util::Subprocess::Result run_child(std::vector<std::string> argv) {
  util::Subprocess::Result r = util::Subprocess::run(std::move(argv));
  EXPECT_FALSE(mentions(r.stderr_output, "runtime error:")) << r.stderr_output;
  EXPECT_FALSE(mentions(r.stderr_output, "Sanitizer")) << r.stderr_output;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The byte-contract slice of a CLI JSON document: the runs array. The
/// scenario echo necessarily differs between a reference run and a
/// checkpoint-flagged run (it reproduces the config verbatim, checkpoint
/// knobs included), so whole-file comparison would test the wrong thing.
std::string runs_slice(const std::string& json_path) {
  return util::Json::parse(slurp(json_path)).at("runs").dump(2);
}

/// The episode count a resumed CLI run narrates on stderr.
long long narrated_resumed(const std::string& stderr_output) {
  const auto pos = stderr_output.find("resumed_episodes=");
  if (pos == std::string::npos) return -1;
  return std::atoll(stderr_output.c_str() + pos +
                    std::string("resumed_episodes=").size());
}

/// Crashes a checkpointed 6-episode run under `fault` (the injected
/// _Exit(42)), resumes it, and checks the finished document and trace
/// against an uninterrupted, checkpoint-free reference (so checkpoint-on
/// == checkpoint-off byte invariance is re-proved too). Returns the
/// resumed run's stderr.
std::string crash_and_resume(const std::string& runner,
                             const std::string& strategy,
                             const std::string& fault, const std::string& tag) {
  const std::vector<std::string> base = {
      runner,
      "--scenario=paper-energy",
      "--strategy=" + strategy,
      "--episodes=6",
      "--seeds=1",
      "--set=batch_size=1",
      "--quiet",
  };
  auto argv = base;
  argv.push_back("--json=" + tag + "_ref.json");
  argv.push_back("--trace=" + tag + "_ref.csv");
  const auto ref = run_child(argv);
  EXPECT_EQ(ref.exit_code, 0) << ref.stderr_output;

  argv = base;
  argv.push_back("--checkpoint-dir=" + tag + "_ckpt");
  argv.push_back("--json=" + tag + ".json");
  argv.push_back("--trace=" + tag + ".csv");
  ::setenv("LCDA_FAULT", fault.c_str(), 1);
  const auto killed = run_child(argv);
  ::unsetenv("LCDA_FAULT");
  EXPECT_EQ(killed.exit_code, 42) << killed.stderr_output;

  argv.push_back("--resume");
  const auto resumed = run_child(argv);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_output;
  EXPECT_EQ(runs_slice(tag + ".json") + "\n---\n" + slurp(tag + ".csv"),
            runs_slice(tag + "_ref.json") + "\n---\n" + slurp(tag + "_ref.csv"));
  return resumed.stderr_output;
}

TEST(Crash, KillMidRunThenResumeIsByteIdentical) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const std::string out_dir = temp_dir("crash_sweep");
  for (const char* strategy : {"lcda", "naive", "finetuned", "rl", "genetic",
                               "nsga2", "annealing", "random"}) {
    for (int k : {1, 3, 5}) {
      SCOPED_TRACE(std::string(strategy) + " kill@" + std::to_string(k));
      const std::string err = crash_and_resume(
          runner, strategy, "kill@episode:" + std::to_string(k),
          out_dir + "/" + strategy + "_k" + std::to_string(k));
      // Every round before the kill was logged, and the resume replayed
      // exactly those.
      EXPECT_EQ(narrated_resumed(err), k) << err;
    }
  }
}

TEST(Crash, RetriedShardReplaysItsFinishedSeedAgainstTheStore) {
  // A store and checkpoints together. The one worker dies after its first
  // seed finished, which saved that seed's evaluations to the store. The
  // retry replays the seed's whole log while the store holds them; the
  // logged evaluations must stay the cold run's misses, so the merged
  // study renders the uninterrupted bytes, counters included.
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const std::string dir = temp_dir("crash_store");
  const std::vector<std::string> base = {
      runner,        "--scenario=paper-energy", "--strategy=genetic",
      "--episodes=6", "--seeds=2",              "--set=batch_size=1",
      "--quiet",
  };
  auto argv = base;
  argv.insert(argv.end(), {"--checkpoint-dir=" + dir + "/ref_ckpt",
                           "--cache-dir=" + dir + "/ref_db",
                           "--json=" + dir + "/ref.json",
                           "--trace=" + dir + "/ref.csv"});
  const auto ref = run_child(argv);
  EXPECT_EQ(ref.exit_code, 0) << ref.stderr_output;

  argv = base;
  argv.insert(argv.end(), {"--checkpoint-dir=" + dir + "/ckpt",
                           "--cache-dir=" + dir + "/db", "--distribute=1",
                           "--max-retries=1", "--json=" + dir + "/run.json",
                           "--trace=" + dir + "/run.csv"});
  ::setenv("LCDA_FAULT", "kill@seed:1", 1);
  const auto run = run_child(argv);
  ::unsetenv("LCDA_FAULT");
  EXPECT_EQ(run.exit_code, 0) << run.stderr_output;
  EXPECT_TRUE(mentions(run.stderr_output, "retries=1")) << run.stderr_output;
  EXPECT_EQ(runs_slice(dir + "/run.json") + "\n---\n" + slurp(dir + "/run.csv"),
            runs_slice(dir + "/ref.json") + "\n---\n" + slurp(dir + "/ref.csv"));
  // Seed 0 replayed all six episodes; seed 1 never started before the kill.
  EXPECT_EQ(narrated_resumed(run.stderr_output), 6) << run.stderr_output;
}

TEST(Crash, TornLogTailIsReplayedUpToTheTear) {
  const std::string runner = lcda_run_path();
  if (runner.empty()) {
    GTEST_SKIP() << "lcda_run binary not next to the test binary";
  }
  const std::string out_dir = temp_dir("crash_torn");
  for (const char* strategy : {"lcda", "genetic"}) {
    SCOPED_TRACE(strategy);
    // The writer truncates the episode-3 record mid-append, then dies; the
    // resume warns about the torn tail, replays the three whole records
    // before it, and evaluates the rest live.
    const std::string err = crash_and_resume(
        runner, strategy, "torn-log@episode:3", out_dir + "/" + strategy);
    EXPECT_TRUE(mentions(err, "round log tail is torn")) << err;
    EXPECT_EQ(narrated_resumed(err), 3) << err;
  }
}

}  // namespace
