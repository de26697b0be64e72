// Worker-side half of the distributed study runner: executes one ShardSpec
// exactly as the single-process engine would have (same seed derivation,
// same per-seed parallelism split, same evaluator sharing) and reports a
// result manifest the merger can fold back bit-for-bit.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "lcda/core/report.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/fault.h"

namespace lcda::dist {

namespace {

/// Atomic publication, same discipline as the persistent cache: a
/// coordinator or a human inspecting the shard directory never sees a
/// torn manifest, and a crashed attempt leaves at most a stale temp file.
void write_manifest_atomically(const util::Json& manifest,
                               const std::string& path) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  core::write_json_file(manifest, tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("worker: rename to " + path +
                             " failed: " + ec.message());
  }
}

/// The resident worker's end of the coordinator pipe, its only channel.
/// Commands arrive on fd 0 and are reassembled through a LineBuffer;
/// replies, seed events and heartbeats leave on fd 1 through send(), the
/// one stdout writer: one write(2) per line under one mutex, shared by the
/// seed loop and the heartbeat thread, so lines never interleave.
class WorkerPipe {
 public:
  WorkerPipe() : heartbeat_([this] { beat(); }) {}
  ~WorkerPipe() { stop_heartbeats(); }

  WorkerPipe(const WorkerPipe&) = delete;
  WorkerPipe& operator=(const WorkerPipe&) = delete;

  /// The next command line from stdin: waits for one when `wait`,
  /// otherwise takes only what already arrived. std::nullopt when there
  /// is none (yet), or stdin is at EOF.
  std::optional<std::string> next_line(bool wait) {
    for (;;) {
      if (std::optional<std::string> line = lines_.next_line()) return line;
      if (closed_ || !read_stdin(wait ? -1 : 0)) return std::nullopt;
    }
  }

  void send(const WorkerReply& reply) {
    const std::string line = encode_worker_reply(reply);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(STDOUT_FILENO, line.data() + off,
                                line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // the coordinator is gone
      off += static_cast<std::size_t>(n);
    }
  }

  /// Seed revocation for the spec about to run: the seeds its `run`
  /// command already carried (earlier steals, honoured by a retry too).
  void begin_spec(const std::vector<int>& revoked) {
    revoked_.clear();
    revoked_.insert(revoked.begin(), revoked.end());
  }

  /// Whether the coordinator has stolen `seed`, after draining every
  /// command line that arrived since the last check without blocking
  /// (the coordinator sends nothing but `revoke` while a spec is in
  /// flight).
  bool revoked(int seed) {
    while (const std::optional<std::string> line = next_line(/*wait=*/false)) {
      const std::optional<WorkerCommand> cmd = parse_worker_command(*line);
      if (cmd && cmd->kind == WorkerCommand::Kind::kRevoke) {
        revoked_.insert(cmd->revoked.begin(), cmd->revoked.end());
      }
    }
    return revoked_.count(seed) != 0;
  }

  /// Ends the heartbeats for good — on exit, and from the wedge fault.
  void stop_heartbeats() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (heartbeat_.joinable()) heartbeat_.join();
  }

 private:
  /// Reads what fd 0 has within `timeout_ms` (-1 = until something
  /// arrives) into the line buffer. False when nothing arrived in time or
  /// stdin hit EOF.
  bool read_stdin(int timeout_ms) {
    pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) return true;
    if (ready <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) {
      closed_ = true;
      return false;
    }
    lines_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    return true;
  }

  void beat() {
    WorkerReply hb;
    hb.kind = WorkerReply::Kind::kHeartbeat;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(kHeartbeatMs),
                         [this] { return stop_; })) {
      lock.unlock();
      send(hb);
      lock.lock();
    }
  }

  LineBuffer lines_;
  std::set<int> revoked_;
  bool closed_ = false;
  std::mutex mutex_;  ///< guards fd 1 and stop_
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread heartbeat_;  ///< last: starts once the members above exist
};

/// Drives the per-seed loop shared by all three modes. Under the worker
/// loop (`pipe` non-null) it skips seeds the coordinator revoked, checked
/// before each seed, and streams seed-start/seed-done events; in-process
/// callers pass nullptr. It also honours the LCDA_FAULT injection harness
/// (util/fault.h): wedge@seed hangs without heartbeats (the injected dead
/// worker — still a live process, so only the coordinator's liveness
/// reaper can catch it), kill@seed _exit(42)s (the injected mid-spec crash
/// — only the respawn-and-retry path can recover), and sleep@seed is the
/// injected straggler. `body(seed)` computes one seed and appends its
/// manifest entry.
template <typename Body>
void for_each_owned_seed(const ShardSpec& spec, WorkerPipe* pipe,
                         const Body& body) {
  util::FaultInjector::set_attempt(spec.attempt);
  const util::FaultInjector& faults = util::FaultInjector::instance();
  WorkerReply event;
  for (int s : spec.seeds) {
    if (pipe != nullptr && pipe->revoked(s)) continue;
    event.seed = s;
    event.kind = WorkerReply::Kind::kSeedStart;
    if (pipe != nullptr) pipe->send(event);
    if (faults.wedge_at_seed(s, spec.attempt)) {
      std::fprintf(stderr, "worker: shard %d wedging at seed %d (injected)\n",
                   spec.index, s);
      if (pipe != nullptr) pipe->stop_heartbeats();
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    if (faults.kill_at_seed(s, spec.attempt)) {
      std::fprintf(stderr, "worker: shard %d dying at seed %d (injected)\n",
                   spec.index, s);
      std::fflush(stderr);
      ::_exit(42);
    }
    if (const int sleep_ms = faults.sleep_ms_at_seed(s); sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    std::optional<obs::Span> seed_span;
    if (obs::SpanTracer::instance().enabled()) {
      char label[32];
      std::snprintf(label, sizeof(label), "seed-%d", s);
      seed_span.emplace(label);
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(s);
    if (pipe != nullptr) {
      event.kind = WorkerReply::Kind::kSeedDone;
      event.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      pipe->send(event);
    }
  }
}

/// run_shard's body; `pipe` is the worker loop's channel, or nullptr.
util::Json compute_manifest(const ShardSpec& spec, WorkerPipe* pipe,
                         core::PerformanceEvaluator* warm_evaluator) {
  const core::ExperimentConfig& config = spec.scenario.config;
  // This spec's slice of the worker's metrics: the resident loop runs many
  // specs in one process, so the manifest carries a DELTA over the
  // registry, not the process totals. Disabled registry -> empty delta.
  const obs::MetricsSnapshot obs_base = obs::Registry::instance().snapshot();
  util::Json entries = util::Json::array();

  // Retried and stolen shard copies resume each seed from its checkpoint
  // when the study checkpoints at all: they replay the seed's round log
  // (all of it, for a seed the dead attempt finished) and continue live
  // from its last logged round — and either way the re-run seed's output
  // is byte-identical to a clean first attempt, which is what keeps the
  // retry path inside the merge byte-contract.
  const bool resume_retries = spec.attempt > 0 || spec.stolen_from >= 0;
  auto with_resume = [&](core::ExperimentConfig cfg) {
    if (!cfg.checkpoint_dir.empty() && resume_retries) cfg.resume = true;
    return cfg;
  };

  switch (spec.mode) {
    case ShardMode::kAggregate: {
      // One shared evaluator across the shard's seeds, like run_aggregate
      // shares one across the whole study: its memo is content-keyed,
      // so sharing scope cannot change a result. A warm evaluator from the
      // worker loop widens the scope to "across specs" under the same
      // contract.
      const auto owned =
          warm_evaluator != nullptr ? nullptr : core::make_evaluator(config);
      core::PerformanceEvaluator* evaluator =
          warm_evaluator != nullptr ? warm_evaluator : owned.get();
      for_each_owned_seed(spec, pipe, [&](int s) {
        const core::RunResult run = core::run_strategy(
            spec.strategy, spec.episodes,
            with_resume(core::aggregate_seed_config(config, s, spec.total_seeds)),
            evaluator);
        entries.push_back(aggregate_entry(
            s, core::aggregate_seed_record(run, spec.threshold), spec.threshold));
      });
      break;
    }
    case ShardMode::kSpeedup: {
      const auto owned =
          warm_evaluator != nullptr ? nullptr : core::make_evaluator(config);
      core::PerformanceEvaluator* evaluator =
          warm_evaluator != nullptr ? warm_evaluator : owned.get();
      for_each_owned_seed(spec, pipe, [&](int s) {
        const core::SpeedupReport report = core::measure_speedup(
            with_resume(core::aggregate_seed_config(config, s, spec.total_seeds)),
            spec.threshold_fraction, evaluator);
        entries.push_back(speedup_entry(s, report));
      });
      break;
    }
    case ShardMode::kRuns: {
      for_each_owned_seed(spec, pipe, [&](int s) {
        const core::SeedRun seed = core::runs_mode_seed(spec.strategy, config, s);
        const core::RunResult run = core::run_strategy(
            spec.strategy, spec.episodes, with_resume(seed.config),
            warm_evaluator);
        entries.push_back(run_entry(s, seed.label, run));
      });
      break;
    }
  }

  // The spec's metrics delta is the one carrier of the shard's store
  // traffic ("store.*") and checkpoint-restored episodes
  // ("engine.resumed_episodes"); lcda_run merges the deltas across
  // manifests with the coordinator's own snapshot into the study totals.
  return shard_manifest(
      spec, std::move(entries),
      obs::Registry::instance().snapshot().delta_since(obs_base).to_json());
}

}  // namespace

util::Json run_shard(const ShardSpec& spec,
                     core::PerformanceEvaluator* warm_evaluator) {
  return compute_manifest(spec, nullptr, warm_evaluator);
}

namespace {

/// One dispatched spec, end to end: the shard's seeds, atomic manifest
/// publication, the span export, and the completion line on stderr.
/// Throws on any failure.
void execute_spec(const ShardSpec& spec, WorkerPipe& pipe,
                  core::PerformanceEvaluator* warm_evaluator) {
  if (spec.result_path.empty()) {
    throw std::invalid_argument("worker: spec has no result_path");
  }
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  const bool tracing = !spec.trace_path.empty();
  if (tracing) {
    // Each exported file covers exactly this spec: a resident worker
    // clears between specs, so its ring never mixes two shards' spans.
    tracer.enable();
    tracer.clear();
  }
  {
    char label[32];
    std::snprintf(label, sizeof(label), "shard-%d", spec.index);
    obs::Span span(label);
    write_manifest_atomically(compute_manifest(spec, &pipe, warm_evaluator),
                              spec.result_path);
  }
  if (tracing) {
    // After the manifest: an attempt that died mid-spec leaves no trace
    // file, so the gatherer only ever sees complete timelines.
    obs::ChromeTraceWriter timeline(spec.trace_path);
    tracer.render(timeline, static_cast<int>(::getpid()),
                  "worker shard " + std::to_string(spec.index));
    timeline.finish();
  }
  std::fprintf(stderr, "worker: shard %d/%d done (%zu seed(s), attempt %d)\n",
               spec.index, spec.count, spec.seeds.size(), spec.attempt);
}

}  // namespace

int run_worker_loop() {
  // Die with the coordinator. It keeps this worker in a process group of
  // its own, so a signal to the coordinator's group (a terminal's Ctrl-C,
  // a harness's killpg) never reaches it directly; should the coordinator
  // die before this line, stdin is already at EOF and the loop exits.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  // Workers always meter: the manifest's "obs" delta is how store totals
  // and engine counters reach the coordinator's merged snapshot. Metering
  // is counter bumps at run/round granularity — noise next to a spec's
  // evaluation work — and it never touches an output byte.
  obs::Registry::instance().enable();
  // One warm evaluator and the evaluation fingerprint it was built for: a
  // spec with that fingerprint reuses it, so the striped cost-plan memo
  // survives across specs, and a spec with another one rebuilds it. One is
  // all a worker needs: it serves the specs of one plan_shards call, and
  // every spec of a plan (steal specs included) carries its scenario.
  // Surrogate only — the trained evaluator's options are not covered by
  // the fingerprint's replay contract, so it stays per-spec.
  std::unique_ptr<core::PerformanceEvaluator> warm;
  std::uint64_t warm_fingerprint = 0;

  WorkerPipe pipe;
  while (const std::optional<std::string> line = pipe.next_line(/*wait=*/true)) {
    const std::optional<WorkerCommand> cmd = parse_worker_command(*line);
    WorkerReply reply;
    reply.kind = WorkerReply::Kind::kFailed;
    if (!cmd) {
      reply.reason = "malformed command line";
      pipe.send(reply);
      continue;
    }
    if (cmd->kind == WorkerCommand::Kind::kShutdown) return 0;
    // A revocation that lands after its spec finished has nothing to act on.
    if (cmd->kind == WorkerCommand::Kind::kRevoke) continue;
    try {
      const ShardSpec spec = load_shard_spec(cmd->spec_path);
      core::PerformanceEvaluator* warm_evaluator = nullptr;
      const core::ExperimentConfig& config = spec.scenario.config;
      if (config.evaluator_kind == core::EvaluatorKind::kSurrogate) {
        const std::uint64_t fp = core::evaluation_fingerprint(config);
        if (!warm || fp != warm_fingerprint) {
          warm = core::make_evaluator(config);
          warm_fingerprint = fp;
        }
        warm_evaluator = warm.get();
      }
      pipe.begin_spec(cmd->revoked);
      execute_spec(spec, pipe, warm_evaluator);
      reply.kind = WorkerReply::Kind::kDone;
      reply.manifest_path = spec.result_path;
    } catch (const std::exception& e) {
      reply.reason = e.what();
    }
    pipe.send(reply);
  }
  // stdin EOF: the coordinator is gone (or closed us out) — exit cleanly.
  return 0;
}

}  // namespace lcda::dist
