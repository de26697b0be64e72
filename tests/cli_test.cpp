// The lcda_run command-line contract, driven through the real binary: every
// argument error (an unknown flag, a bad value, a flag whose required mode
// or flag is missing) exits 2 before any study output, file write or worker
// spawn, and prints the usage text generated from the flag table. An
// unwritable output file exits 1 before any run or store pass, the
// paper-energy study reproduces the checked-in golden trace through every
// output path, and the span timeline passes tools/check_trace_events.py.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "lcda/util/subprocess.h"

namespace {

using namespace lcda;
namespace fs = std::filesystem;

bool mentions(const std::string& text, const char* what) {
  return text.find(what) != std::string::npos;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// Spawns the lcda_run binary living next to this test binary (both sit in
/// the build root), each test in a fresh temp directory. Skips, instead of
/// failing, in build layouts where the binary is not there.
class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string self = util::self_executable_path(nullptr);
    const fs::path candidate = fs::path(self).parent_path() / "lcda_run";
    std::error_code ec;
    if (self.empty() || !fs::exists(candidate, ec)) {
      GTEST_SKIP() << "lcda_run binary not next to the test binary";
    }
    runner_ = candidate.string();
    dir_ = fs::temp_directory_path() /
           ("lcda_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }

  [[nodiscard]] Outcome run(std::vector<std::string> args) const {
    args.insert(args.begin(), runner_);
    util::Subprocess::Options options;
    options.pipe_stdout = true;
    util::Subprocess child(std::move(args), options);
    const util::Subprocess::Result result = child.wait();
    // A sanitized child reports into the stderr captured here, where the
    // sanitizer job's own checks cannot see it.
    EXPECT_FALSE(mentions(result.stderr_output, "runtime error:"))
        << result.stderr_output;
    EXPECT_FALSE(mentions(result.stderr_output, "Sanitizer"))
        << result.stderr_output;
    return {result.exit_code, child.read_stdout(), result.stderr_output};
  }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::string runner_;
  fs::path dir_;
};

// ------------------------------------------- rejected since the flag table

TEST_F(Cli, StoreBudgetFlagsRequireStoreCompact) {
  const std::string store = "--cache-dir=" + path("store");
  Outcome r = run({store, "--store-fsck", "--store-buckets=8"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_TRUE(mentions(r.err, "--store-buckets requires --store-compact")) << r.err;

  r = run({"--scenario=paper-energy", "--episodes=2", "--store-max-entries=5"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_TRUE(mentions(r.err, "--store-max-entries requires --store-compact"))
      << r.err;
  EXPECT_EQ(r.out, "");
}

TEST_F(Cli, ThresholdFractionRequiresSpeedupEvenAtItsDefault) {
  const Outcome r = run(
      {"--scenario=paper-energy", "--episodes=2", "--threshold-fraction=0.95"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_TRUE(mentions(r.err, "--threshold-fraction requires --speedup")) << r.err;
  EXPECT_EQ(r.out, "");
}

TEST_F(Cli, StoreMaintenanceRejectsStudyOutputs) {
  const std::string json = path("out.json");
  const Outcome r =
      run({"--cache-dir=" + path("store"), "--store-fsck", "--json=" + json});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_TRUE(mentions(r.err, "--json requires a study")) << r.err;
  EXPECT_FALSE(fs::exists(json));
}

TEST_F(Cli, BadValuesFailBeforeAnyOutputOrWorker) {
  const std::vector<std::string> speedup = {"--scenario=paper-energy",
                                            "--speedup", "--seeds=2",
                                            "--threshold-fraction=1.5"};
  Outcome r = run(speedup);
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_TRUE(mentions(r.err, "bad value for --threshold-fraction")) << r.err;

  // Distributed: no shard directory is planned, so none is left behind.
  const std::string shards = path("shards");
  std::vector<std::string> distributed = speedup;
  distributed.push_back("--distribute=2");
  distributed.push_back("--shard-dir=" + shards);
  r = run(distributed);
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_FALSE(fs::exists(shards));

  r = run({"--scenario=paper-energy", "--episodes=abc"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_TRUE(mentions(r.err, "bad value for --episodes: \"abc\"")) << r.err;

  // An unknown strategy name, in-process and distributed.
  const std::vector<std::string> strategy = {"--scenario=paper-energy",
                                             "--strategy=bogus"};
  r = run(strategy);
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_TRUE(mentions(r.err, "unknown strategy \"bogus\"")) << r.err;
  distributed = strategy;
  distributed.push_back("--distribute=2");
  distributed.push_back("--shard-dir=" + shards);
  r = run(distributed);
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_FALSE(fs::exists(shards));
}

TEST_F(Cli, UsageListsEveryFlagWithItsRequirement) {
  const Outcome r = run({"--no-such-flag"});
  EXPECT_EQ(r.exit_code, 2);
  for (const char* flag : {"--checkpoint-dir=DIR", "--resume",
                           "--store-buckets=N", "--distribute=N",
                           "--threshold-fraction=F", "--metrics-interval=SEC"}) {
    EXPECT_TRUE(mentions(r.err, flag)) << flag << "\n" << r.err;
  }
  EXPECT_TRUE(mentions(r.err, "requires --store-compact")) << r.err;
  EXPECT_FALSE(mentions(r.err, "--worker-loop")) << r.err;
  // Every round is logged, so there is no checkpoint cadence to set.
  EXPECT_FALSE(mentions(r.err, "--checkpoint-every")) << r.err;
  // The stall bar is fixed, so there is no steal threshold to set.
  EXPECT_FALSE(mentions(r.err, "--steal-threshold")) << r.err;
}

TEST_F(Cli, OutOfRangeConfigIntegersAreRejected) {
  const Outcome r = run({"--scenario=paper-energy", "--print-config",
                         "--set", "lcda_episodes=4294967298"});
  EXPECT_EQ(r.exit_code, 1) << r.err;
  EXPECT_TRUE(mentions(r.err, "config.lcda_episodes")) << r.err;
  EXPECT_EQ(r.out, "");
}

TEST_F(Cli, ThreadAndWorkerCountsAboveTheLimitAreRejected) {
  // --print-config starts no study, so a regressed bound fails the test
  // without spawning thousands of threads or workers.
  Outcome r = run({"--scenario=paper-energy", "--print-config",
                   "--parallelism=4097"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_TRUE(mentions(r.err, "bad value for --parallelism: \"4097\" (want an "
                              "integer from 0 to 4096)"))
      << r.err;
  r = run({"--scenario=paper-energy", "--print-config", "--distribute=4097"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.out, "");
  EXPECT_TRUE(mentions(r.err, "bad value for --distribute: \"4097\" (want an "
                              "integer from 1 to 4096)"))
      << r.err;

  // The scenario key, from a file and from --set.
  const std::string file = path("wide.json");
  std::ofstream(file) << R"({"name":"wide","config":{"parallelism":4097}})";
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--scenario-file=" + file, "--print-config"},
        std::vector<std::string>{"--scenario=paper-energy", "--print-config",
                                 "--set", "parallelism=4097"}}) {
    r = run(args);
    EXPECT_EQ(r.exit_code, 1) << r.err;
    EXPECT_EQ(r.out, "");
    EXPECT_TRUE(mentions(r.err, "config.parallelism: 4097 is above the limit"))
        << r.err;
  }

  r = run({"--scenario=paper-energy", "--print-config", "--parallelism=4096"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

// ------------------------------------------------------ study outputs

TEST_F(Cli, UnwritableOutputFailsBeforeAnyRun) {
  const std::string missing = path("no-such-dir");
  const std::vector<std::string> study = {"--scenario=paper-energy",
                                          "--strategy=lcda", "--seeds=2"};
  for (const std::string& output :
       {"--trace=" + missing + "/t.csv", "--json=" + missing + "/s.json",
        "--trace-spans=" + missing + "/spans.json",
        "--metrics-out=" + missing + "/m.json"}) {
    std::vector<std::string> args = study;
    args.push_back(output);
    Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 1) << output << "\n" << r.err;
    EXPECT_EQ(r.out, "") << output;  // not even the scenario header
    EXPECT_TRUE(mentions(r.err, "cannot write")) << r.err;

    // Distributed: the files are opened before any worker is spawned.
    const std::string shards = path("shards");
    args.push_back("--distribute=2");
    args.push_back("--shard-dir=" + shards);
    r = run(args);
    EXPECT_EQ(r.exit_code, 1) << output << "\n" << r.err;
    EXPECT_EQ(r.out, "") << output;
    EXPECT_FALSE(fs::exists(shards)) << output;
  }

  // A store pass takes the observability files too, and fails before its
  // report.
  const std::string store = path("store");
  fs::create_directories(store);
  for (const std::string& output : {"--trace-spans=" + missing + "/spans.json",
                                    "--metrics-out=" + missing + "/m.json"}) {
    const Outcome r = run({"--cache-dir=" + store, "--store-fsck", output});
    EXPECT_EQ(r.exit_code, 1) << output << "\n" << r.err;
    EXPECT_EQ(r.out, "") << output;
    EXPECT_TRUE(mentions(r.err, "cannot write")) << r.err;
  }
}

TEST_F(Cli, UnusableTileOrganizationFailsBeforeTheFirstEpisode) {
  // A zero arrays_per_tile divided the tile count by zero (SIGFPE in
  // process, "signal 8" from every worker attempt); negative sizes ran to
  // exit 0 with negative tiles, area and leakage. The options are checked
  // before any output, so nothing reaches stdout and no worker is spawned
  // to retry a failure that cannot change. No Monte-Carlo samples would
  // score every design 0, so a zero sample count fails the same way.
  const char* const kArrays = "arrays_per_tile must be at least 1";
  const char* const kBuffer = "buffer_kb_per_tile must not be negative";
  const char* const kSamples = "monte_carlo_samples must be positive";
  const std::vector<std::pair<std::vector<std::string>, const char*>> cases = {
      {{"--scenario=paper-energy", "--strategy=nacim", "--set",
        "evaluator.cost.arrays_per_tile=0"}, kArrays},
      {{"--scenario=paper-energy", "--strategy=nacim", "--set",
        "evaluator.cost.arrays_per_tile=-3"}, kArrays},
      {{"--scenario=paper-energy", "--strategy=nacim", "--set",
        "evaluator.cost.buffer_kb_per_tile=-1"}, kBuffer},
      {{"--scenario=trained-small", "--strategy=random", "--set",
        "trained.cost.arrays_per_tile=0"}, kArrays},
      {{"--scenario=paper-energy", "--strategy=nacim", "--set",
        "evaluator.monte_carlo_samples=0"}, kSamples},
      {{"--scenario=trained-small", "--strategy=random", "--set",
        "trained.monte_carlo_samples=0"}, kSamples}};
  for (const auto& [study, message] : cases) {
    std::vector<std::string> args = study;
    args.push_back("--episodes=3");
    Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 1) << study[3] << "\n" << r.err;
    EXPECT_TRUE(mentions(r.err, message)) << study[3] << "\n" << r.err;
    EXPECT_EQ(r.out, "") << study[3];

    args.push_back("--distribute=1");
    args.push_back("--shard-dir=" + path("shards"));
    r = run(args);
    EXPECT_EQ(r.exit_code, 1) << study[3] << "\n" << r.err;
    EXPECT_TRUE(mentions(r.err, message)) << study[3] << "\n" << r.err;
    EXPECT_FALSE(mentions(r.err, "signal")) << study[3] << "\n" << r.err;
    EXPECT_FALSE(mentions(r.err, "retrying")) << study[3] << "\n" << r.err;
    fs::remove_all(path("shards"));
  }
}

TEST_F(Cli, TraceCheckerPassesTimelinesAndFailsCraftedOnes) {
  // The checker CI and the benchmark's distributed workload gate on.
  const auto check = [](const std::string& file, const char* flag = nullptr) {
    std::vector<std::string> args = {
        "python3", std::string(LCDA_SOURCE_DIR) + "/tools/check_trace_events.py"};
    if (flag != nullptr) args.emplace_back(flag);
    args.push_back(file);
    util::Subprocess::Options options;
    options.pipe_stdout = true;
    util::Subprocess child(std::move(args), options);
    const util::Subprocess::Result result = child.wait();
    (void)child.read_stdout();
    return result.exit_code;
  };

  // A fresh merged timeline: the coordinator and two workers.
  const std::string timeline = path("timeline.json");
  const Outcome r = run({"--scenario=paper-energy", "--strategy=lcda",
                         "--seeds=2", "--quiet", "--distribute=2",
                         "--trace-spans=" + timeline});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const int fresh = check(timeline, "--min-pids=3");
  if (fresh == 127) GTEST_SKIP() << "no python3 on PATH";
  EXPECT_EQ(fresh, 0);
  EXPECT_EQ(check(timeline, "--min-pids=4"), 1);  // more lanes than it has

  const auto crafted = [&](const char* name, const std::string& events) {
    const std::string file = path(name);
    std::ofstream(file) << "{\"traceEvents\":[" << events << "]}\n";
    return file;
  };
  const auto span = [](int ts, int dur) {
    return "{\"name\":\"s\",\"ph\":\"X\",\"ts\":" + std::to_string(ts) +
           ",\"dur\":" + std::to_string(dur) + ",\"pid\":1,\"tid\":1}";
  };
  // Nested and touching spans pass; each fault below fails.
  EXPECT_EQ(check(crafted("nested.json",
                          span(10, 10) + "," + span(12, 3) + "," + span(20, 2))),
            0);
  EXPECT_EQ(check(crafted("overlap.json", span(10, 5) + "," + span(12, 5))), 1);
  EXPECT_EQ(check(crafted("negative.json", span(10, -1))), 1);
  EXPECT_EQ(check(crafted("begin.json",
                          "{\"name\":\"s\",\"ph\":\"B\",\"ts\":10,"
                          "\"pid\":1,\"tid\":1}")),
            1);
  EXPECT_EQ(check(crafted("empty.json",
                          "{\"name\":\"process_name\",\"ph\":\"M\","
                          "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"x\"}}")),
            1);
}

TEST_F(Cli, PaperEnergyReproducesTheGoldenTrace) {
  const std::string golden =
      read_file(std::string(LCDA_SOURCE_DIR) + "/tests/golden/paper_energy_lcda.csv");
  ASSERT_FALSE(golden.empty());
  const std::vector<std::string> study = {"--scenario=paper-energy",
                                          "--strategy=lcda", "--seeds=2",
                                          "--quiet"};
  const auto with = [&](std::vector<std::string> extra) {
    extra.insert(extra.begin(), study.begin(), study.end());
    return extra;
  };

  for (const char* parallelism : {"--parallelism=1", "--parallelism=4"}) {
    const std::string trace = path("trace.csv");
    Outcome r = run(with({parallelism, "--trace=" + trace}));
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(read_file(trace), golden) << parallelism << " --trace=FILE";

    r = run(with({parallelism, "--trace=-"}));  // narration goes to stderr
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(r.out, golden) << parallelism << " --trace=-";
  }

  // Cold, then warm: the warm pass is served from the store, every episode
  // of both seeds, and still writes the golden bytes.
  const std::string store = "--cache-dir=" + path("store");
  for (const bool warm : {false, true}) {
    const std::string trace = path("store.csv");
    const Outcome r = run(with({store, "--trace=" + trace}));
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(read_file(trace), golden) << (warm ? "warm" : "cold");
    if (warm) {
      std::size_t served = 0;
      for (std::size_t at = r.out.find(" 0 misses, 20 persistent hits\n");
           at != std::string::npos;
           at = r.out.find(" 0 misses, 20 persistent hits\n", at + 1)) {
        ++served;
      }
      EXPECT_EQ(served, 2u) << r.out;
    }
  }
}

// ------------------------------------------------- held before and after

TEST_F(Cli, UnknownFlagsAndUnmetRequirementsExit2) {
  EXPECT_EQ(run({"--scenario=paper-energy", "--bogus"}).exit_code, 2);
  EXPECT_EQ(
      run({"--scenario=paper-energy", "--aggregate", "--speedup"}).exit_code, 2);
  EXPECT_EQ(run({"--scenario=paper-energy", "--max-retries=2"}).exit_code, 2);
  EXPECT_EQ(run({"--scenario=paper-energy", "--resume"}).exit_code, 2);
  EXPECT_EQ(run({"--print-config"}).exit_code, 2);
  EXPECT_EQ(run({"--scenario=paper-energy", "--distribute=2",
                 "--steal-threshold=2"})
                .exit_code,
            2);
}

TEST_F(Cli, ValidSpellingsStillRun) {
  const Outcome compact =
      run({"--cache-dir=" + path("store"), "--store-compact",
           "--store-buckets=8", "--store-max-entries=5"});
  EXPECT_EQ(compact.exit_code, 0) << compact.err;
  EXPECT_TRUE(mentions(compact.out, "store-compact")) << compact.out;

  for (const std::vector<std::string>& set :
       {std::vector<std::string>{"--set", "lcda_episodes=4"},
        std::vector<std::string>{"--set=lcda_episodes=4"}}) {
    std::vector<std::string> args = {"--scenario=paper-energy",
                                     "--print-config"};
    args.insert(args.end(), set.begin(), set.end());
    const Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_TRUE(mentions(r.out, "\"lcda_episodes\": 4")) << r.out;
  }
}

}  // namespace
