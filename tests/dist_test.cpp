// The distributed study runner: shard planning, spec round trips, the
// subprocess helper, coordinator retries, and — the load-bearing contract —
// merged results byte-identical to single-process runs of the same study.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include <chrono>
#include <thread>

#include "lcda/core/report.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/coordinator.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/subprocess.h"

#include "temp_dir.h"

namespace {

using namespace lcda;

std::string temp_dir(const char* tag) {
  return test::fresh_temp_dir(std::string("lcda_dist_test_") + tag).string();
}

/// A small but non-trivial study: two strategies' worth of signal is not
/// needed, one strategy over several seeds is the sharding axis.
core::Scenario small_scenario() {
  core::Scenario s = core::scenario_by_name("paper-energy");
  s.config.lcda_episodes = 6;
  s.config.nacim_episodes = 16;
  return s;
}

/// Scoped setenv for the worker-injection variables: set for the tests
/// that spawn injected workers, guaranteed unset afterwards so later
/// tests' workers run clean.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Runs every shard in-process (run_shard — the exact worker body) and
/// returns the manifests after a JSON dump/parse round trip, exactly the
/// path bytes take through a real worker's result file.
std::vector<util::Json> run_shards_in_process(
    const std::vector<dist::ShardSpec>& specs) {
  std::vector<util::Json> manifests;
  for (const dist::ShardSpec& spec : specs) {
    manifests.push_back(util::Json::parse(dist::run_shard(spec).dump(1)));
  }
  return manifests;
}

/// Every spec's published result manifest, index-aligned with `specs`.
std::vector<util::Json> load_manifests(
    const std::vector<dist::ShardSpec>& specs) {
  std::vector<util::Json> manifests;
  for (const dist::ShardSpec& spec : specs) {
    manifests.push_back(dist::load_shard_manifest(spec));
  }
  return manifests;
}

/// A runs-mode study as its byte-diffed outputs carry it: the trace CSV,
/// then the run JSON array.
std::string render_runs(const std::vector<dist::MergedRun>& runs) {
  std::string csv;
  util::Json arr = util::Json::array();
  for (const dist::MergedRun& run : runs) {
    csv += run.csv;
    arr.push_back(run.run_json);
  }
  return csv + "\n---\n" + arr.dump(2);
}

/// The CLI's plain per-seed path (seed offsets, labels, CSV) over `seeds`
/// runs of lcda_episodes each, rendered like render_runs: the reference
/// every distributed runs-mode study must reproduce.
std::string reference_runs(const core::Scenario& scenario,
                           core::Strategy strategy, int seeds) {
  std::ostringstream csv;
  util::Json arr = util::Json::array();
  for (int s = 0; s < seeds; ++s) {
    core::ExperimentConfig cfg = scenario.config;
    cfg.seed = scenario.config.seed + static_cast<std::uint64_t>(s);
    const core::RunResult run =
        core::run_strategy(strategy, scenario.config.lcda_episodes, cfg);
    const std::string label = std::string(core::strategy_name(strategy)) +
                              "/seed" + std::to_string(cfg.seed);
    core::write_run_csv(csv, run, label);
    arr.push_back(core::run_to_json(run, label));
  }
  return csv.str() + "\n---\n" + arr.dump(2);
}

/// Tests that spawn the lcda_run binary living next to this test binary
/// (both sit in the build root). They skip, instead of failing, in exotic
/// build layouts where it is not there.
class WithRunner : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string self = util::self_executable_path(nullptr);
    const std::filesystem::path candidate =
        std::filesystem::path(self).parent_path() / "lcda_run";
    std::error_code ec;
    if (self.empty() || !std::filesystem::exists(candidate, ec)) {
      GTEST_SKIP() << "lcda_run binary not next to the test binary";
    }
    runner_ = candidate.string();
  }

  /// A quiet coordinator over `slots` resident workers in a fresh shard
  /// dir, stealing off (the stealing test turns it back on).
  dist::Coordinator::Options options(const char* tag, int slots,
                                     int retries) const {
    dist::Coordinator::Options opts;
    opts.worker_command = {runner_};
    opts.shard_dir = temp_dir(tag);
    opts.max_parallel = slots;
    opts.max_retries = retries;
    opts.verbose = false;
    opts.enable_steal = false;
    return opts;
  }

  std::string runner_;
};

class Distributed : public WithRunner {};

// ----------------------------------------------------------- subprocess

TEST(Subprocess, CapturesExitStatusAndStderr) {
  const auto result =
      util::Subprocess::run({"/bin/sh", "-c", "echo boom >&2; exit 3"});
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.stderr_output, "boom\n");
  EXPECT_EQ(result.describe(), "exit 3");
}

TEST(Subprocess, SuccessAndMissingProgram) {
  EXPECT_TRUE(util::Subprocess::run({"/bin/true"}).ok());
  // exec failure surfaces as the shell's 127, with a message.
  const auto result =
      util::Subprocess::run({"/definitely/not/a/program-xyz"});
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_NE(result.stderr_output.find("exec failed"), std::string::npos);
}

TEST(Subprocess, SignalDeathIsReported) {
  const auto result =
      util::Subprocess::run({"/bin/sh", "-c", "kill -KILL $$"});
  EXPECT_EQ(result.exit_code, -1);
  EXPECT_EQ(result.term_signal, 9);
  EXPECT_EQ(result.describe(), "signal 9");
}

/// Polls `condition` with short sleeps until it holds or ~10s elapse.
template <typename F>
bool eventually(F condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return condition();
}

TEST(Subprocess, PipedStdinStdoutRoundTrip) {
  util::Subprocess::Options popts;
  popts.pipe_stdin = true;
  popts.pipe_stdout = true;
  util::Subprocess cat({"/bin/cat"}, popts);
  EXPECT_TRUE(cat.write_stdin("hello pipe\n"));
  std::string got;
  EXPECT_TRUE(eventually([&] {
    got += cat.read_stdout();
    return got == "hello pipe\n";
  })) << "got: " << got;
  // EOF on stdin ends cat; the exit is visible to the non-blocking poll.
  cat.close_stdin();
  std::optional<util::Subprocess::Result> result;
  EXPECT_TRUE(eventually([&] {
    result = cat.try_wait();
    return result.has_value();
  }));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
}

TEST(Subprocess, WriteToDeadReaderReturnsFalseNotSignal) {
  util::Subprocess::Options popts;
  popts.pipe_stdin = true;
  util::Subprocess child({"/bin/true"}, popts);  // never reads stdin
  // Once the child is gone the pipe breaks; the write must surface that
  // as `false` (SIGPIPE is ignored), not kill the test process.
  EXPECT_TRUE(eventually([&] { return !child.write_stdin("x"); }));
  EXPECT_FALSE(child.write_stdin("y"));  // stays broken
  std::optional<util::Subprocess::Result> result;
  EXPECT_TRUE(eventually([&] {
    result = child.try_wait();
    return result.has_value();
  }));
}

// ------------------------------------------------- worker pipe protocol

TEST(Protocol, CommandAndReplyRoundTrip) {
  dist::WorkerCommand run;
  run.kind = dist::WorkerCommand::Kind::kRun;
  run.spec_path = "/tmp/spec with spaces.json";
  run.revoked = {3, 7};
  const std::string line = dist::encode_worker_command(run);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one line
  EXPECT_EQ(dist::parse_worker_command(line), run);

  dist::WorkerCommand revoke;
  revoke.kind = dist::WorkerCommand::Kind::kRevoke;
  revoke.revoked = {4};
  EXPECT_EQ(dist::parse_worker_command(dist::encode_worker_command(revoke)),
            revoke);
  dist::WorkerCommand shutdown;
  shutdown.kind = dist::WorkerCommand::Kind::kShutdown;
  EXPECT_EQ(dist::parse_worker_command(dist::encode_worker_command(shutdown)),
            shutdown);

  std::vector<dist::WorkerReply> replies(5);
  replies[0].kind = dist::WorkerReply::Kind::kSeedStart;
  replies[0].seed = 4;
  replies[1].kind = dist::WorkerReply::Kind::kSeedDone;
  replies[1].seed = 4;
  replies[1].wall_ms = 12.345678901234;
  replies[2].kind = dist::WorkerReply::Kind::kHeartbeat;
  replies[3].kind = dist::WorkerReply::Kind::kDone;
  replies[3].manifest_path = "/tmp/manifest.json";
  replies[4].kind = dist::WorkerReply::Kind::kFailed;
  replies[4].reason = "store exploded: \"quote\"\nsecond line";
  for (const dist::WorkerReply& reply : replies) {
    const std::string encoded = dist::encode_worker_reply(reply);
    EXPECT_EQ(encoded.find('\n'), encoded.size() - 1) << encoded;
    EXPECT_EQ(dist::parse_worker_reply(encoded), reply) << encoded;
  }
}

TEST(Protocol, MalformedLinesParseToNullopt) {
  EXPECT_FALSE(dist::parse_worker_command("").has_value());
  EXPECT_FALSE(dist::parse_worker_command("not json\n").has_value());
  EXPECT_FALSE(dist::parse_worker_command("[1,2,3]\n").has_value());
  EXPECT_FALSE(dist::parse_worker_command("{\"cmd\":\"run\"}\n").has_value());
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"other-v2\",\"cmd\":\"shutdown\"}\n")
          .has_value());
  // A v1 peer is a different protocol, not a v2 message.
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"lcda-worker-cmd-v1\",\"cmd\":\"shutdown\"}\n")
          .has_value());
  // `run` without a spec_path is incomplete, not a default-empty run.
  EXPECT_FALSE(
      dist::parse_worker_command(
          "{\"format\":\"lcda-worker-cmd-v2\",\"cmd\":\"run\"}\n")
          .has_value());
  // Revoked seeds must be non-negative ints.
  for (const char* revoked : {"[1.5]", "[-1]", "[\"2\"]", "3", "[1e10]"}) {
    EXPECT_FALSE(dist::parse_worker_command(
                     std::string("{\"format\":\"lcda-worker-cmd-v2\","
                                 "\"cmd\":\"revoke\",\"revoked\":") +
                     revoked + "}")
                     .has_value())
        << revoked;
  }
  EXPECT_FALSE(dist::parse_worker_reply("{\"reply\":\"done\"}\n").has_value());
  // `done` without its manifest path is torn, not an empty success.
  EXPECT_FALSE(
      dist::parse_worker_reply(
          "{\"format\":\"lcda-worker-cmd-v2\",\"reply\":\"done\"}\n")
          .has_value());
  // Seed events need their seed, and seed-done a sane wall clock.
  EXPECT_FALSE(dist::parse_worker_reply(
                   "{\"format\":\"lcda-worker-cmd-v2\",\"reply\":"
                   "\"seed-start\"}")
                   .has_value());
  EXPECT_FALSE(dist::parse_worker_reply(
                   "{\"format\":\"lcda-worker-cmd-v2\",\"reply\":"
                   "\"seed-done\",\"seed\":1}")
                   .has_value());
  EXPECT_FALSE(dist::parse_worker_reply(
                   "{\"format\":\"lcda-worker-cmd-v2\",\"reply\":"
                   "\"seed-done\",\"seed\":1,\"wall_ms\":-2}")
                   .has_value());
  // Garbage nested deep enough to overflow a recursive parser's stack is
  // still just garbage.
  EXPECT_FALSE(dist::parse_worker_reply(std::string(100000, '[')).has_value());
  EXPECT_FALSE(
      dist::parse_worker_command(std::string(100000, '{')).has_value());
}

TEST(Protocol, LineBufferReassemblesTornLines) {
  dist::LineBuffer lines;
  lines.feed("first li");
  EXPECT_FALSE(lines.next_line().has_value());  // incomplete: keep waiting
  lines.feed("ne\nsecond\nthi");
  auto line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "first line");
  line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "second");
  EXPECT_FALSE(lines.next_line().has_value());
  EXPECT_EQ(lines.pending(), "thi");
  lines.feed("rd\n");
  line = lines.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "third");
  EXPECT_TRUE(lines.pending().empty());
}

/// A resident `lcda_run --worker-loop` driven by hand over its pipes.
class WorkerLoop : public WithRunner {
 protected:
  void SetUp() override {
    WithRunner::SetUp();
    if (!IsSkipped()) launch();
  }

  /// (Re)starts the worker, e.g. once a test has armed LCDA_FAULT for it.
  void launch() {
    util::Subprocess::Options popts;
    popts.pipe_stdin = true;
    popts.pipe_stdout = true;
    worker_.reset();
    lines_ = dist::LineBuffer{};
    worker_.emplace(std::vector<std::string>{runner_, "--worker-loop"}, popts);
  }

  /// The next protocol message, heartbeats skipped unless asked for;
  /// nullopt on timeout or an unparseable line.
  std::optional<dist::WorkerReply> next(bool heartbeats = false) {
    for (;;) {
      std::optional<std::string> line;
      if (!eventually([&] {
            lines_.feed(worker_->read_stdout());
            line = lines_.next_line();
            return line.has_value();
          })) {
        return std::nullopt;
      }
      std::optional<dist::WorkerReply> reply = dist::parse_worker_reply(*line);
      if (heartbeats || !reply ||
          reply->kind != dist::WorkerReply::Kind::kHeartbeat) {
        return reply;
      }
    }
  }

  /// Sends `shutdown` and expects a clean exit 0, no kill needed.
  void shut_down() {
    dist::WorkerCommand shutdown;
    shutdown.kind = dist::WorkerCommand::Kind::kShutdown;
    ASSERT_TRUE(worker_->write_stdin(dist::encode_worker_command(shutdown)));
    std::optional<util::Subprocess::Result> result;
    EXPECT_TRUE(eventually([&] {
      result = worker_->try_wait();
      return result.has_value();
    }));
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok()) << result->describe();
  }

  std::optional<util::Subprocess> worker_;
  dist::LineBuffer lines_;
};

TEST_F(WorkerLoop, HeartbeatsRejectsGarbageAndDrainsOnShutdown) {
  // An idle worker still proves it is alive.
  const auto heartbeat = next(/*heartbeats=*/true);
  ASSERT_TRUE(heartbeat.has_value());
  EXPECT_EQ(heartbeat->kind, dist::WorkerReply::Kind::kHeartbeat);

  // A revocation with no spec in flight has nothing to act on: no reply.
  // Garbage does not kill the loop either; it is reported and the loop
  // keeps serving.
  dist::WorkerCommand revoke;
  revoke.kind = dist::WorkerCommand::Kind::kRevoke;
  revoke.revoked = {0};
  ASSERT_TRUE(worker_->write_stdin(dist::encode_worker_command(revoke)));
  ASSERT_TRUE(worker_->write_stdin("definitely not json\n"));
  const auto reply = next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, dist::WorkerReply::Kind::kFailed);
  EXPECT_EQ(reply->reason, "malformed command line");

  shut_down();
}

TEST_F(WorkerLoop, StreamsSeedEventsAndSkipsRevokedSeeds) {
  const std::string dir = temp_dir("worker_loop_run");
  dist::ShardSpec spec = dist::plan_shards(
      small_scenario(), dist::ShardMode::kAggregate,
      {{core::Strategy::kRandom, 4}}, /*seeds=*/4, /*shards=*/1, NAN, 0.95)[0];
  spec.result_path = dir + "/result.json";
  dist::save_shard_spec(spec, dir + "/spec.json");
  // Seeds 0 and 2 dawdle, so commands written once they started land
  // mid-spec, between the worker's stdin drains.
  const ScopedEnv slow("LCDA_FAULT", "sleep=300@seed:0,2");
  launch();

  // Seed 1 was stolen before this attempt: the `run` itself carries it.
  // The `run` is torn across two writes far enough apart that the idle
  // worker reads its first half alone; it must wait for the newline, not
  // act on or drop the partial line.
  dist::WorkerCommand run;
  run.kind = dist::WorkerCommand::Kind::kRun;
  run.spec_path = dir + "/spec.json";
  run.revoked = {1};
  const std::string run_line = dist::encode_worker_command(run);
  ASSERT_TRUE(worker_->write_stdin(run_line.substr(0, 9)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(worker_->write_stdin(run_line.substr(9)));

  // Seed 3 is stolen mid-spec by a torn `revoke`: its first half is
  // written while the worker sleeps inside seed 0, so the drains before
  // seeds 1 and 2 find only a partial line; the rest follows once seed 2
  // started (after those drains), while it sleeps. Only a worker that
  // keeps the partial line across drains skips seed 3.
  dist::WorkerCommand revoke;
  revoke.kind = dist::WorkerCommand::Kind::kRevoke;
  revoke.revoked = {3};
  const std::string revoke_line = dist::encode_worker_command(revoke);
  const std::size_t cut = revoke_line.size() / 2;

  std::vector<std::string> events;
  std::optional<dist::WorkerReply> reply;
  while ((reply = next()) &&
         (reply->kind == dist::WorkerReply::Kind::kSeedStart ||
          reply->kind == dist::WorkerReply::Kind::kSeedDone)) {
    const bool done = reply->kind == dist::WorkerReply::Kind::kSeedDone;
    if (done) {
      EXPECT_GE(reply->wall_ms, 0.0);
    }
    events.push_back((done ? "done " : "start ") + std::to_string(reply->seed));
    if (events.back() == "start 0") {
      ASSERT_TRUE(worker_->write_stdin(revoke_line.substr(0, cut)));
    } else if (events.back() == "start 2") {
      ASSERT_TRUE(worker_->write_stdin(revoke_line.substr(cut)));
    }
  }
  // Every seed event arrives, in order, before the spec's final reply.
  EXPECT_EQ(events, (std::vector<std::string>{"start 0", "done 0", "start 2",
                                              "done 2"}));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->kind, dist::WorkerReply::Kind::kDone) << reply->reason;
  EXPECT_EQ(reply->manifest_path, spec.result_path);
  std::vector<long long> published;
  for (const util::Json& e :
       dist::load_shard_manifest(spec).at("entries").elements()) {
    published.push_back(e.at("seed").as_int());
  }
  EXPECT_EQ(published, (std::vector<long long>{0, 2}));

  shut_down();
}

// ------------------------------------------------------- specs and plans

TEST(ShardSpec, RoundTripsThroughJson) {
  dist::ShardSpec spec;
  spec.index = 2;
  spec.count = 4;
  spec.mode = dist::ShardMode::kAggregate;
  spec.scenario = small_scenario();
  spec.strategy = core::Strategy::kNacimRl;
  spec.episodes = 16;
  spec.total_seeds = 8;
  spec.seeds = {4, 5};
  spec.threshold = 0.25;
  spec.threshold_fraction = 0.9;
  spec.result_path = "/tmp/r.json";
  spec.attempt = 1;

  const dist::ShardSpec back =
      dist::shard_spec_from_json(dist::shard_spec_to_json(spec));
  EXPECT_EQ(back.index, spec.index);
  EXPECT_EQ(back.count, spec.count);
  EXPECT_EQ(back.mode, spec.mode);
  EXPECT_EQ(back.strategy, spec.strategy);
  EXPECT_EQ(back.episodes, spec.episodes);
  EXPECT_EQ(back.total_seeds, spec.total_seeds);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.threshold, spec.threshold);
  EXPECT_EQ(back.threshold_fraction, spec.threshold_fraction);
  EXPECT_EQ(back.result_path, spec.result_path);
  EXPECT_EQ(back.attempt, spec.attempt);
  EXPECT_EQ(dist::shard_spec_checksum(back), dist::shard_spec_checksum(spec));

  // A NaN threshold ("no threshold") round-trips through key absence.
  spec.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(
      dist::shard_spec_from_json(dist::shard_spec_to_json(spec)).threshold));
}

TEST(ShardSpec, TamperedSpecIsRejected) {
  dist::ShardSpec spec;
  spec.scenario = small_scenario();
  spec.seeds = {0};
  util::Json j = dist::shard_spec_to_json(spec);
  j["episodes"] = 999;  // body no longer matches the embedded checksum
  EXPECT_THROW((void)dist::shard_spec_from_json(j), std::invalid_argument);
  EXPECT_THROW((void)dist::shard_spec_from_json(util::Json::parse("{}")),
               std::invalid_argument);
}

TEST(ShardPlan, PartitionsSeedsExactlyOnce) {
  const core::Scenario scenario = small_scenario();
  const auto plan = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, 6}, {core::Strategy::kRandom, 16}},
      /*seeds=*/5, /*shards=*/3, /*threshold=*/NAN, 0.95);
  // Two strategies x min(3, 5) chunks each.
  ASSERT_EQ(plan.size(), 6u);
  for (const auto& spec : plan) EXPECT_EQ(spec.count, 6);
  std::vector<int> seen;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan[i].strategy, core::Strategy::kLcda);
    EXPECT_EQ(plan[i].episodes, 6);
    for (int s : plan[i].seeds) seen.push_back(s);
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plan[3].strategy, core::Strategy::kRandom);
  EXPECT_EQ(plan[3].episodes, 16);

  // Never more shards than seeds.
  const auto tight = dist::plan_shards(scenario, dist::ShardMode::kRuns,
                                       {{core::Strategy::kLcda, 6}},
                                       /*seeds=*/2, /*shards=*/8, NAN, 0.95);
  EXPECT_EQ(tight.size(), 2u);
}

// ------------------------------------------------- merge == single process

TEST(Merge, AggregateIsByteIdenticalToSingleProcess) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 5;
  // Every seed reaches 0.0 at its first episode. The second threshold lies
  // between the seeds' worst and best final reward, so some seeds never
  // reach it and their entries carry threshold_episode -1.
  double threshold = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const core::AggregateResult reference =
        core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                            kSeeds, scenario.config, threshold);
    if (pass == 1) {
      ASSERT_GT(reference.reached, 0);
      ASSERT_LT(reference.reached, kSeeds);
    }

    auto specs = dist::plan_shards(
        scenario, dist::ShardMode::kAggregate,
        {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
        /*shards=*/2, threshold, 0.95);
    ASSERT_EQ(specs.size(), 2u);
    const core::AggregateResult merged =
        dist::merge_aggregate(specs, run_shards_in_process(specs)).at(0);

    EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
              core::aggregate_to_json(reference).dump(2));
    threshold = (reference.final_best.min() + reference.final_best.max()) / 2;
  }
}

TEST(Merge, AggregateWithoutThresholdMatchesToo) {
  core::Scenario scenario = small_scenario();
  const core::AggregateResult reference = core::run_aggregate(
      core::Strategy::kRandom, scenario.config.nacim_episodes, 4,
      scenario.config, NAN);
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kRandom, scenario.config.nacim_episodes}}, 4,
      /*shards=*/4, NAN, 0.95);
  const core::AggregateResult merged =
      dist::merge_aggregate(specs, run_shards_in_process(specs)).at(0);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

TEST(Merge, SpeedupIsByteIdenticalToSingleProcess) {
  core::Scenario scenario = small_scenario();
  const auto reference = core::speedup_study(scenario.config, 3, 0.95);
  auto specs = dist::plan_shards(scenario, dist::ShardMode::kSpeedup,
                                 {{core::Strategy::kLcda, 0}}, 3,
                                 /*shards=*/2, NAN, 0.95);
  const auto merged = dist::merge_speedup(specs, run_shards_in_process(specs));
  EXPECT_EQ(core::speedup_study_to_json(merged).dump(2),
            core::speedup_study_to_json(reference).dump(2));
}

TEST(Merge, RunsModeReassemblesTracesVerbatim) {
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 3,
      /*shards=*/3, NAN, 0.95);
  const auto merged = dist::merge_runs(specs, run_shards_in_process(specs));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(render_runs(merged),
            reference_runs(scenario, core::Strategy::kLcda, 3));
}

TEST(Merge, IncompleteOrForeignManifestsAreRejected) {
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 4,
      /*shards=*/2, NAN, 0.95);
  auto manifests = run_shards_in_process(specs);

  // A lost shard: merging one manifest over a 4-seed study must throw.
  EXPECT_THROW((void)dist::merge_aggregate({specs[0]}, {manifests[0]}),
               std::runtime_error);
  // A duplicated shard: the same seeds twice must throw, not double-count.
  EXPECT_THROW(
      (void)dist::merge_aggregate({specs[0], specs[0]},
                                  {manifests[0], manifests[0]}),
      std::runtime_error);
}

// ------------------------------------------- end-to-end worker processes

TEST_F(Distributed, WorkersAndRetriesConvergeToReferenceBytes) {
  // 2 workers x parallelism 2, shared persistent-cache directory — the
  // distributed acceptance configuration.
  core::Scenario scenario = small_scenario();
  scenario.config.parallelism = 2;
  scenario.config.persistent_cache_dir = temp_dir("shared_cache_ref");
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  // Fresh shared cache dir for the distributed run so both start cold and
  // the cache counters can match exactly.
  scenario.config.persistent_cache_dir = temp_dir("shared_cache_dist");
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  ASSERT_EQ(specs.size(), 2u);
  // Crash injection: shard 0's first attempt dies before its first seed,
  // so before any evaluation or store write; the coordinator must retry
  // it and the merged bytes must not change.
  const std::string kill_first =
      "kill@seed:" + std::to_string(specs[0].seeds.front());
  const ScopedEnv die("LCDA_FAULT", kill_first.c_str());

  // Stealing stays off: this test asserts the exact plan shape afterwards,
  // and stealing is free to append specs (it has its own test).
  dist::Coordinator(options("coord", /*slots=*/2, /*retries=*/1)).run(specs);
  EXPECT_EQ(specs[0].attempt, 1);  // the injected failure was retried
  EXPECT_EQ(specs[1].attempt, 0);

  const core::AggregateResult merged =
      dist::merge_aggregate(specs, load_manifests(specs)).at(0);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
  EXPECT_EQ(merged.persistent_hits, reference.persistent_hits);
}

// ----------------------------------------- stealing and dead workers

TEST_F(Distributed, StragglerStealingKeepsBytesIdentical) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 6;
  const std::string reference =
      reference_runs(scenario, core::Strategy::kLcda, kSeeds);

  // Inject a straggler: shard 0 owns seeds {0,1} (6 seeds over 4 chunks)
  // and sleeps 400ms before each, while its peers finish in milliseconds.
  // The coordinator must steal its unstarted seed — and the merged bytes
  // must not move.
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/4, NAN, 0.95);
  const ScopedEnv sleep_fault("LCDA_FAULT", "sleep=400@seed:0,1");

  dist::Coordinator::Options opts = options("steal", /*slots=*/4, 0);
  opts.enable_steal = true;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_GE(coordinator.stats().steals, 1);
  EXPECT_GE(coordinator.stats().stolen_seeds, 1);
  // No dispatch is wasted: every dispatched spec is in the final plan and
  // published a manifest.
  EXPECT_EQ(coordinator.stats().spawned, static_cast<int>(specs.size()));

  const std::vector<util::Json> manifests = load_manifests(specs);
  // The revocation took effect: a seed a steal moved to a new spec is
  // absent from its parent's manifest. (The merger keeps the lowest shard
  // index's copy of a seed published twice, so the merged bytes below
  // cannot tell a revoke that never reached its worker.)
  for (const dist::ShardSpec& thief : specs) {
    if (thief.stolen_from < 0) continue;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].index != thief.stolen_from) continue;
      for (const util::Json& e : manifests[i].at("entries").elements()) {
        const int seed = static_cast<int>(e.at("seed").as_int());
        EXPECT_EQ(std::count(thief.seeds.begin(), thief.seeds.end(), seed), 0)
            << "shard " << specs[i].index << " published seed " << seed
            << " after it was stolen by shard " << thief.index;
      }
    }
  }
  const std::vector<dist::MergedRun> merged = dist::merge_runs(specs, manifests);
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(render_runs(merged), reference);
}

TEST_F(Distributed, LoneSeedIsDispatchedOnce) {
  // One seed over two slots, stealing on: no seed has finished, so there
  // is no per-seed wall to judge a stall against, and the one spec must
  // run where it was dispatched instead of being moved between idle
  // workers.
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, /*seeds=*/1,
      /*shards=*/2, NAN, 0.95);
  ASSERT_EQ(specs.size(), 1u);

  dist::Coordinator::Options opts = options("lone", /*slots=*/2, 0);
  opts.enable_steal = true;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_EQ(coordinator.stats().spawned, 1);
  EXPECT_EQ(coordinator.stats().steals, 0);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(render_runs(dist::merge_runs(specs, load_manifests(specs))),
            reference_runs(scenario, core::Strategy::kLcda, 1));
}

TEST_F(Distributed, DeadWorkerIsReapedThroughHeartbeatTimeout) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  // Shard 1 owns seeds {2,3}; its attempt 0 stops heartbeating and hangs
  // at seed 2 — a live process writing nothing, invisible to try_wait().
  // Only the silence reaper can recover it (stealing stays off to isolate
  // that path).
  const ScopedEnv wedge("LCDA_FAULT", "wedge@seed:2");

  dist::Coordinator::Options opts = options("wedge", /*slots=*/2, 1);
  opts.heartbeat_timeout_ms = 1000;
  dist::Coordinator coordinator(opts);
  coordinator.run(specs);
  EXPECT_EQ(coordinator.stats().dead_workers, 1);
  EXPECT_EQ(coordinator.stats().retries, 1);

  const core::AggregateResult merged =
      dist::merge_aggregate(specs, load_manifests(specs)).at(0);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

// --------------------------------------------- persistent worker pool

TEST_F(Distributed, PooledMatchesInProcessInAllModes) {
  const core::Scenario scenario = small_scenario();
  // Drives `specs` through a two-slot coordinator; the executed plan comes
  // back through `specs`, the loaded manifests as the result.
  const auto through_pool = [&](std::vector<dist::ShardSpec>& specs,
                                const char* tag) {
    dist::Coordinator coordinator(options(tag, /*slots=*/2, 0));
    coordinator.run(specs);
    EXPECT_GE(coordinator.stats().pool_workers, 1);
    return load_manifests(specs);
  };

  // Aggregate mode: merged bytes must agree between in-process shards (the
  // merge contract's reference) and the resident pool.
  {
    auto specs = dist::plan_shards(
        scenario, dist::ShardMode::kAggregate,
        {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, /*seeds=*/4,
        /*shards=*/2, NAN, 0.95);
    const std::string reference =
        core::aggregate_to_json(
            dist::merge_aggregate(specs, run_shards_in_process(specs)).at(0))
            .dump(2);
    const std::vector<util::Json> manifests = through_pool(specs, "pool_agg");
    EXPECT_EQ(
        core::aggregate_to_json(dist::merge_aggregate(specs, manifests).at(0))
            .dump(2),
        reference);
  }

  // Speedup mode.
  {
    auto specs = dist::plan_shards(scenario, dist::ShardMode::kSpeedup,
                                   {{core::Strategy::kLcda, 0}}, /*seeds=*/2,
                                   /*shards=*/2, NAN, 0.95);
    const std::string reference =
        core::speedup_study_to_json(
            dist::merge_speedup(specs, run_shards_in_process(specs)))
            .dump(2);
    const std::vector<util::Json> manifests =
        through_pool(specs, "pool_speedup");
    EXPECT_EQ(
        core::speedup_study_to_json(dist::merge_speedup(specs, manifests))
            .dump(2),
        reference);
  }

  // Runs mode (CSV text and run JSON verbatim). The pooled run hands four
  // shards to two resident workers, so this also pins that a worker's
  // second spec is byte-identical to a fresh process's first — the
  // warm-reuse contract.
  {
    auto specs = dist::plan_shards(
        scenario, dist::ShardMode::kRuns,
        {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, /*seeds=*/4,
        /*shards=*/4, NAN, 0.95);
    const std::string reference =
        render_runs(dist::merge_runs(specs, run_shards_in_process(specs)));
    const std::vector<util::Json> manifests = through_pool(specs, "pool_runs");
    EXPECT_EQ(render_runs(dist::merge_runs(specs, manifests)), reference);
  }
}

TEST_F(Distributed, PoolWorkerKilledMidSpecIsRespawnedAndRetried) {
  core::Scenario scenario = small_scenario();
  const int kSeeds = 4;
  const core::AggregateResult reference =
      core::run_aggregate(core::Strategy::kLcda, scenario.config.lcda_episodes,
                          kSeeds, scenario.config, NAN);

  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  // Shard 1 owns seeds {2,3}; the resident worker _exit()s mid-spec at
  // seed 2 on attempt 0 — the process dies with the spec in flight, which
  // is exactly the pool's crash-recovery path (no manifest, no reply).
  const ScopedEnv die("LCDA_FAULT", "kill@seed:2");

  // One resident worker serves both shards.
  dist::Coordinator coordinator(options("pool_die", /*slots=*/1, 1));
  coordinator.run(specs);
  EXPECT_EQ(coordinator.stats().retries, 1);
  // The first resident worker died with the spec; its replacement ran the
  // retry. Launches: the original plus exactly one respawn.
  EXPECT_EQ(coordinator.stats().pool_workers, 2);

  const core::AggregateResult merged =
      dist::merge_aggregate(specs, load_manifests(specs)).at(0);
  EXPECT_EQ(core::aggregate_to_json(merged).dump(2),
            core::aggregate_to_json(reference).dump(2));
}

TEST_F(Distributed, KilledWorkerResumesFromCheckpointByteIdentically) {
  // Reference: the plain per-seed path with checkpointing OFF — the killed
  // and checkpoint-resumed distributed study below must reproduce these
  // bytes exactly (trace-invariance covers the checkpoint machinery too).
  // LCDA, the paper's method: a resume replays its round log from a fresh
  // optimizer, and the simulated client rebuilt from the seed answers the
  // same prompts the same way.
  core::Scenario scenario = small_scenario();
  scenario.config.batch_size = 1;
  const int kSeeds = 4;
  const std::string reference =
      reference_runs(scenario, core::Strategy::kLcda, kSeeds);

  // The distributed copy of the study logs every round of its 6 episodes.
  // Every attempt-0 worker _Exit(42)s mid-run once its first seed reaches
  // episode 4, so the retry (attempt 1, faults disarmed) replays that
  // seed's first 4 rounds from its log instead of re-running them.
  core::Scenario ckpt_scenario = scenario;
  ckpt_scenario.config.checkpoint_dir = temp_dir("ckpt_resume_store");
  auto specs = dist::plan_shards(
      ckpt_scenario, dist::ShardMode::kRuns,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, kSeeds,
      /*shards=*/2, NAN, 0.95);
  const ScopedEnv kill_fault("LCDA_FAULT", "kill@episode:4");

  dist::Coordinator coordinator(options("ckpt_resume", /*slots=*/2, 1));
  coordinator.run(specs);
  EXPECT_GE(coordinator.stats().retries, 1);

  const std::vector<util::Json> manifests = load_manifests(specs);
  // Resumed episodes reach the coordinator the way lcda_run reads them:
  // as engine.resumed_episodes in each manifest's metrics delta.
  long long resumed = 0;
  for (const util::Json& manifest : manifests) {
    resumed += obs::MetricsSnapshot::from_json(manifest.at("obs"))
                   .counter("engine.resumed_episodes");
  }
  // At least one retried seed actually restored episodes from disk — the
  // byte match below must not be explained by a silent cold re-run.
  EXPECT_GE(resumed, 1);

  const std::vector<dist::MergedRun> merged = dist::merge_runs(specs, manifests);
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(render_runs(merged), reference);
}

// ------------------------------------------------- merged span timeline

TEST_F(Distributed, TracedSpeedupTimelineCountsWorkerDrops) {
  // The Table-1 study, traced, over two resident workers: 128 seeds, about
  // 100k spans per worker, overflow each worker's span ring, and the
  // merged timeline must say so — in total and per lane — instead of
  // reporting the coordinator's zero.
  const std::string dir = temp_dir("traced_speedup");
  const std::string shard_dir = dir + "/shards";
  const std::string timeline = dir + "/timeline.json";
  // Through sh only to send the study's table (stdout) to /dev/null.
  const util::Subprocess::Result run = util::Subprocess::run(
      {"/bin/sh", "-c", "exec \"$0\" \"$@\" >/dev/null", runner_,
       "--scenario=paper-energy", "--speedup", "--seeds=128",
       "--distribute=2", "--parallelism=1", "--quiet",
       "--shard-dir=" + shard_dir, "--trace-spans=" + timeline});
  ASSERT_TRUE(run.ok()) << run.describe() << "\n" << run.stderr_output;

  std::ifstream in(timeline);
  std::ostringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  std::set<long long> pids;
  long long lane_drops = 0;
  long long coordinator_drops = -1;
  for (const util::Json& e : doc.at("traceEvents").elements()) {
    pids.insert(e.at("pid").as_int());
    if (e.at("ph").as_string() != "M") continue;
    const long long dropped = e.at("args").at("dropped_events").as_int();
    lane_drops += dropped;
    if (e.at("pid").as_int() == 0) coordinator_drops = dropped;
  }
  EXPECT_GE(pids.size(), 3u);
  ASSERT_GE(coordinator_drops, 0) << "no coordinator lane";

  // Every attempt file the workers left is one the strict reader takes.
  long long shard_drops = 0;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(shard_dir)) {
    if (entry.path().filename().string().find("-trace-a") == std::string::npos) {
      continue;
    }
    std::ifstream file(entry.path());
    std::ostringstream body;
    body << file.rdbuf();
    shard_drops += static_cast<long long>(
        obs::read_chrome_trace(body.str()).dropped);
    ++files;
  }
  EXPECT_GE(files, 2);
  EXPECT_GT(shard_drops, 0);
  const long long merged = doc.at("obs_dropped_events").as_int();
  EXPECT_EQ(merged, coordinator_drops + shard_drops);
  EXPECT_EQ(merged, lane_drops);
  EXPECT_NE(run.stderr_output.find(
                ", " + std::to_string(merged) + " dropped)"),
            std::string::npos)
      << run.stderr_output;
}

TEST_F(Distributed, ExhaustedRetriesFailLoudly) {
  core::Scenario scenario = small_scenario();
  auto specs = dist::plan_shards(
      scenario, dist::ShardMode::kAggregate,
      {{core::Strategy::kLcda, scenario.config.lcda_episodes}}, 2,
      /*shards=*/1, NAN, 0.95);
  const std::string kill_first =
      "kill@seed:" + std::to_string(specs[0].seeds.front());
  const ScopedEnv die("LCDA_FAULT", kill_first.c_str());

  // No second attempt: the injected crash is fatal, and the error quotes
  // the worker's exit status and its last stderr line.
  try {
    dist::Coordinator(options("coord_fail", /*slots=*/1, /*retries=*/0))
        .run(specs);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exit 42"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(injected)"), std::string::npos)
        << e.what();
  }
}

}  // namespace
