#include "lcda/dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "lcda/dist/protocol.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/subprocess.h"
#include "lcda/util/thread_pool.h"

namespace lcda::dist {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Scheduler pacing: the poll loop sleeps kPollMinMs after an event and
/// backs off exponentially to kPollMaxMs while idle.
constexpr int kPollMinMs = 2;
constexpr int kPollMaxMs = 100;

/// The stall bar: a shard has stalled once it has sent no seed event for
/// kStealThreshold x the median per-seed wall, floored at
/// kStealMinStaleMs so scan jitter on sub-millisecond seeds cannot trip it.
constexpr double kStealThreshold = 2.0;
constexpr double kStealMinStaleMs = 10.0;

/// SIGTERM-to-SIGKILL grace for a wedged worker stopped mid-spec.
constexpr int kStopGraceMs = 500;

/// "seeds 4-7" / "seeds 3" — shard log labels.
std::string seeds_label(const ShardSpec& spec) {
  if (spec.seeds.empty()) return "no seeds";
  const auto [lo, hi] =
      std::minmax_element(spec.seeds.begin(), spec.seeds.end());
  if (*lo == *hi) return "seed " + std::to_string(*lo);
  return "seeds " + std::to_string(*lo) + "-" + std::to_string(*hi);
}

/// The last non-empty stderr line — the part of a crash worth quoting in
/// a one-line retry message (the full capture goes into the final error).
std::string last_line(const std::string& text) {
  std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  std::size_t begin = text.find_last_of('\n', end);
  begin = begin == std::string::npos ? 0 : begin + 1;
  return text.substr(begin, end - begin + 1);
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Upper median of an unsorted sample (copies; samples are tiny).
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Scheduler-side shard record, parallel to the specs vector.
struct Track {
  std::set<int> revoked;           // stolen seeds (sent with every `run`)
  std::set<int> started, done;     // current attempt's seed events
  Clock::time_point dispatch_time{};  // when the CURRENT spec was handed to
                                      // its worker (not when the resident
                                      // process was forked — an idle-then-
                                      // busy pool worker must not inherit
                                      // stale wall)
  Clock::time_point last_event{};  // when a seed start/done was last
                                   // observed (heartbeats excluded — they
                                   // prove liveness, not progress)
  double done_wall_ms = 0.0;       // sum of finished seeds' walls
  double wall_ms = 0.0;            // busy wall summed across attempts
  int slot = -1;
  int spawns = 0;
};

/// One scheduler slot, which IS a resident --worker-loop process:
/// `worker` outlives the specs dispatched to it, `lines` reassembles its
/// stdout into protocol messages, `last_line` is when it last wrote one
/// (the liveness signal), and `busy`/`pos` name the spec in flight.
struct Slot {
  std::unique_ptr<util::Subprocess> worker;
  LineBuffer lines;
  Clock::time_point last_line{};
  bool busy = false;
  std::size_t pos = 0;  // spec in flight (valid while busy)
};

/// The seeds a spec still owes the merger: its seed list minus the
/// revoked ones (the worker skips those; thief specs own them now).
std::vector<int> owned_seeds(const ShardSpec& spec,
                             const std::set<int>& revoked) {
  std::vector<int> out;
  for (int s : spec.seeds) {
    if (revoked.count(s) == 0) out.push_back(s);
  }
  return out;
}

}  // namespace

Coordinator::Coordinator(Options opts) : opts_(std::move(opts)) {
  if (opts_.worker_command.empty()) {
    throw std::invalid_argument("Coordinator: empty worker_command");
  }
  if (opts_.shard_dir.empty()) {
    throw std::invalid_argument("Coordinator: empty shard_dir");
  }
  if (opts_.max_parallel < 1 || opts_.max_parallel > util::kMaxParallelism) {
    throw std::invalid_argument("Coordinator: max_parallel must be in [1, " +
                                std::to_string(util::kMaxParallelism) + "]");
  }
  if (opts_.max_retries < 0) {
    throw std::invalid_argument("Coordinator: max_retries must be >= 0");
  }
}

void Coordinator::run(std::vector<ShardSpec>& specs) {
  obs::Span run_span("dist.run");
  std::error_code ec;
  fs::create_directories(opts_.shard_dir, ec);
  if (ec) {
    throw std::runtime_error("Coordinator: cannot create shard dir " +
                             opts_.shard_dir + ": " + ec.message());
  }

  stats_ = Stats{};
  stats_.planned = static_cast<int>(specs.size());

  std::vector<Track> track(specs.size());
  std::deque<std::size_t> queue;
  std::vector<Slot> slots(static_cast<std::size_t>(opts_.max_parallel));

  // Shard "names" (spec.index) survive steals: new specs take fresh
  // indices past every existing one, so file stems never collide.
  int next_index = 0;
  for (const ShardSpec& spec : specs) {
    next_index = std::max(next_index, spec.index + 1);
  }

  const auto stem = [&](std::size_t p) {
    return opts_.shard_dir + "/shard-" + std::to_string(specs[p].index);
  };

  for (std::size_t p = 0; p < specs.size(); ++p) {
    specs[p].result_path = stem(p) + "-result.json";
    // Leftovers from a previous plan in a reused directory must not be
    // mistaken for this run's output (the checksum would catch a
    // different study, but not a re-run of the same one).
    fs::remove(specs[p].result_path, ec);
    queue.push_back(p);
  }

  const auto free_slot = [&]() -> int {
    for (int s = 0; s < opts_.max_parallel; ++s) {
      const Slot& slot = slots[static_cast<std::size_t>(s)];
      if (!slot.busy) return s;
    }
    return -1;
  };
  const auto idle_slots = [&] {
    int n = 0;
    for (const Slot& slot : slots) n += !slot.busy;
    return n;
  };
  const auto any_busy = [&] {
    for (const Slot& slot : slots) {
      if (slot.busy) return true;
    }
    return false;
  };

  /// Forks a fresh resident --worker-loop process into `slot`, replacing
  /// whatever was there (a dead or killed predecessor).
  const auto launch_worker = [&](Slot& slot) {
    obs::Span span("dist.respawn");
    std::vector<std::string> argv = opts_.worker_command;
    argv.push_back("--worker-loop");
    util::Subprocess::Options popts;
    popts.pipe_stdin = true;
    popts.pipe_stdout = true;
    slot.worker = std::make_unique<util::Subprocess>(std::move(argv), popts);
    slot.lines = LineBuffer{};
    ++stats_.pool_workers;
  };

  /// Hands spec `p` to slot `slot_idx`: writes the spec file and streams a
  /// `run` command, with the shard's revoked seeds, to the slot's resident
  /// worker (spawning or respawning it as needed).
  const auto dispatch = [&](std::size_t p, int slot_idx) {
    obs::Span span("dist.dispatch");
    Slot& slot = slots[static_cast<std::size_t>(slot_idx)];
    ShardSpec& spec = specs[p];
    Track& t = track[p];
    const std::string spec_path = stem(p) + "-spec.json";
    if (opts_.trace_spans) {
      // Per attempt: a retry must not clobber (or be mistaken for) the
      // attempt that died.
      spec.trace_path =
          stem(p) + "-trace-a" + std::to_string(spec.attempt) + ".json";
      fs::remove(spec.trace_path, ec);
    }
    save_shard_spec(spec, spec_path);
    WorkerCommand cmd;
    cmd.kind = WorkerCommand::Kind::kRun;
    cmd.spec_path = spec_path;
    cmd.revoked.assign(t.revoked.begin(), t.revoked.end());
    const std::string line = encode_worker_command(cmd);
    // A worker that died while idle surfaces here as a broken pipe; one
    // respawn covers it. Failing twice in a row means workers cannot be
    // created at all, which is fatal exactly like a failed fork was.
    bool sent = false;
    for (int tries = 0; tries < 2 && !sent; ++tries) {
      if (!slot.worker || slot.worker->waited()) launch_worker(slot);
      sent = slot.worker->write_stdin(line);
      if (!sent) slot.worker.reset();
    }
    if (!sent) {
      throw std::runtime_error(
          "Coordinator: cannot keep a resident worker alive on slot " +
          std::to_string(slot_idx));
    }
    slot.busy = true;
    slot.pos = p;
    t.started.clear();
    t.done.clear();
    t.slot = slot_idx;
    t.dispatch_time = Clock::now();
    t.last_event = t.dispatch_time;
    slot.last_line = t.dispatch_time;
    t.done_wall_ms = 0.0;
    ++t.spawns;
    ++stats_.spawned;
    if (opts_.verbose) {
      std::fprintf(stderr,
                   "[dist] shard %d/%d (%s, %s, attempt %d) -> pid %ld "
                   "slot %d\n",
                   spec.index, spec.count,
                   std::string(core::strategy_name(spec.strategy)).c_str(),
                   seeds_label(spec).c_str(), spec.attempt,
                   static_cast<long>(slot.worker->pid()), slot_idx);
    }
  };

  /// Frees a busy slot whose spec just ended, one way or another, and adds
  /// the spec's busy wall. Returns the spec's position.
  const auto release = [&](Slot& slot) {
    slot.busy = false;
    Track& t = track[slot.pos];
    t.wall_ms += elapsed_ms(t.dispatch_time);
    return slot.pos;
  };

  /// Shard `p` failed: queues its next attempt, or, once max_retries are
  /// spent, aborts the run with the worker's stderr.
  const auto on_failure = [&](std::size_t p, const std::string& described,
                              const std::string& stderr_output) {
    // attempt N failed; N+1 is the next one. max_retries bounds the
    // retries, so attempts 0..max_retries are allowed.
    if (specs[p].attempt < opts_.max_retries) {
      ++specs[p].attempt;
      ++stats_.retries;
      if (opts_.verbose) {
        const std::string line = last_line(stderr_output);
        std::fprintf(stderr,
                     "[dist] shard %d failed (%s)%s%s — retrying "
                     "(attempt %d/%d)\n",
                     specs[p].index, described.c_str(),
                     line.empty() ? "" : ": ", line.c_str(), specs[p].attempt,
                     opts_.max_retries);
      }
      queue.push_back(p);
      return;
    }
    throw std::runtime_error(
        "Coordinator: shard " + std::to_string(specs[p].index) + " failed (" +
        described + ") after " + std::to_string(specs[p].attempt + 1) +
        " attempt(s); worker stderr:\n" + stderr_output);
  };

  /// Creates a steal spec owning `seeds`, inheriting the parent's study
  /// identity, and queues it for the next idle slot.
  const auto dispatch_steal = [&](std::size_t parent, std::vector<int> seeds) {
    ShardSpec spec;
    spec.index = next_index++;
    spec.count = specs[parent].count;
    spec.mode = specs[parent].mode;
    spec.scenario = specs[parent].scenario;
    spec.strategy = specs[parent].strategy;
    spec.episodes = specs[parent].episodes;
    spec.total_seeds = specs[parent].total_seeds;
    spec.seeds = std::move(seeds);
    spec.threshold = specs[parent].threshold;
    spec.threshold_fraction = specs[parent].threshold_fraction;
    spec.study_slot = specs[parent].study_slot;
    spec.stolen_from = specs[parent].index;
    specs.push_back(std::move(spec));
    track.emplace_back();
    const std::size_t p = specs.size() - 1;
    specs[p].result_path = stem(p) + "-result.json";
    fs::remove(specs[p].result_path, ec);
    queue.push_back(p);
    ++stats_.steals;
    stats_.stolen_seeds += static_cast<int>(specs[p].seeds.size());
  };

  /// One straggler-mitigation pass, run only when a slot is idle and
  /// nothing is queued. A shard is a straggler when its progress has
  /// STALLED: no seed started or finished for longer than kStealThreshold
  /// x the observed median per-seed wall (floored by kStealMinStaleMs so
  /// scan jitter cannot trip it). Healthy shards racing to the finish keep
  /// emitting seed events at per-seed cadence and never look stalled —
  /// even on an oversubscribed box where every wall estimate is inflated
  /// by CPU queueing — while a shard grinding inside one slow seed goes
  /// quiet (heartbeats keep it alive, not fresh: they are excluded from
  /// last_event on purpose). Its not-yet-started seeds are revoked and
  /// re-dispatched onto the idle slots; seeds it has started stay with it.
  /// At most one steal per pass keeps the policy easy to reason about; the
  /// next scan can steal again.
  const auto maybe_steal = [&] {
    if (!opts_.enable_steal || !queue.empty() || free_slot() < 0) return false;

    struct Candidate {
      std::size_t pos;
      Slot* slot;
      double stale_ms;
      std::vector<int> owned;
    };
    std::vector<Candidate> running;
    for (Slot& slot : slots) {
      if (!slot.busy) continue;
      const Track& t = track[slot.pos];
      Candidate c;
      c.pos = slot.pos;
      c.slot = &slot;
      c.stale_ms = elapsed_ms(t.last_event);
      c.owned = owned_seeds(specs[slot.pos], t.revoked);
      if (t.done.size() < c.owned.size()) running.push_back(std::move(c));
    }
    if (running.empty()) return false;

    // Reference scale: median of the shards' observed mean per-seed walls
    // (any state — a finished shard's seed events all arrived before its
    // `done`). Without a single finished seed anywhere there is no scale
    // to judge "stalled" against, and nothing is stolen.
    std::vector<double> seed_walls;
    for (const Track& t : track) {
      if (!t.done.empty() && t.done_wall_ms > 0.0) {
        seed_walls.push_back(t.done_wall_ms /
                             static_cast<double>(t.done.size()));
      }
    }
    const double reference = seed_walls.empty() ? 0.0 : median_of(seed_walls);

    // Most-stalled first.
    std::sort(running.begin(), running.end(), [](const auto& x, const auto& y) {
      return x.stale_ms > y.stale_ms;
    });
    for (const Candidate& c : running) {
      // "Stalled" judges the gap between OBSERVED events, so it needs at
      // least one: before the first start event the gap only measures
      // dispatch-to-startup latency, and flagging on that would revoke
      // seeds from healthy-but-queued workers (each revocation spawning a
      // child that is equally slow to start — an unbounded chain). A
      // worker wedged before its first event is the heartbeat reaper's
      // case, not the stealer's.
      ++stats_.steal_considered;
      const bool judged = reference > 0.0 && !track[c.pos].started.empty();
      const bool over_bar = judged && c.stale_ms > kStealThreshold * reference;
      const bool stalled = over_bar && c.stale_ms > kStealMinStaleMs;
      if (over_bar && !stalled) ++stats_.steal_suppressed_min_stale;
      if (!stalled) continue;

      // No reference into track across dispatch_steal: it grows the
      // vector and would invalidate one.
      std::vector<int> unstarted;
      for (int s : c.owned) {
        if (track[c.pos].started.count(s) == 0) unstarted.push_back(s);
      }
      if (unstarted.empty()) continue;

      // Revoke the unstarted seeds and split them over the idle slots. The
      // worker drains its stdin before each seed, so it simply never runs
      // them. A worker that died meanwhile surfaces through try_wait; its
      // retry's `run` carries every revocation.
      obs::Span steal_span("dist.steal");
      for (int s : unstarted) track[c.pos].revoked.insert(s);
      WorkerCommand revoke;
      revoke.kind = WorkerCommand::Kind::kRevoke;
      revoke.revoked = unstarted;
      (void)c.slot->worker->write_stdin(encode_worker_command(revoke));
      const std::size_t chunks = std::min(
          unstarted.size(), static_cast<std::size_t>(idle_slots()));
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        const std::size_t begin = ch * unstarted.size() / chunks;
        const std::size_t end = (ch + 1) * unstarted.size() / chunks;
        dispatch_steal(c.pos, std::vector<int>(unstarted.begin() + begin,
                                               unstarted.begin() + end));
      }
      if (opts_.verbose) {
        std::fprintf(stderr,
                     "[dist] stealing %zu not-yet-started seed(s) from "
                     "shard %d into %zu new shard(s)\n",
                     unstarted.size(), specs[c.pos].index, chunks);
      }
      return true;
    }
    return false;
  };

  /// Applies one line from `slot`'s worker, which proves it alive. Seed events advance the in-flight shard's progress; `done` /
  /// `failed` resolve it, attributing the worker's stderr so far to it
  /// (`dead_stderr` stands in for take_stderr() once the worker is
  /// reaped). Returns whether the line freed the slot.
  const auto on_line = [&](Slot& slot, const std::string& line,
                           const std::string* dead_stderr) {
    slot.last_line = Clock::now();
    const std::optional<WorkerReply> reply = parse_worker_reply(line);
    // Stray stdout noise is not a scheduling signal; real worker trouble
    // surfaces as a `failed` reply, a process exit, or silence.
    if (!reply || !slot.busy) return false;
    Track& t = track[slot.pos];
    switch (reply->kind) {
      case WorkerReply::Kind::kHeartbeat:
        return false;
      case WorkerReply::Kind::kSeedStart:
        t.started.insert(reply->seed);
        t.last_event = slot.last_line;
        return false;
      case WorkerReply::Kind::kSeedDone:
        t.started.insert(reply->seed);
        if (t.done.insert(reply->seed).second) t.done_wall_ms += reply->wall_ms;
        t.last_event = slot.last_line;
        return false;
      case WorkerReply::Kind::kDone:
      case WorkerReply::Kind::kFailed:
        break;
    }
    const std::string worker_stderr =
        dead_stderr != nullptr ? *dead_stderr : slot.worker->take_stderr();
    const std::size_t p = release(slot);
    if (reply->kind == WorkerReply::Kind::kFailed) {
      on_failure(p, reply->reason.empty() ? "worker error" : reply->reason,
                 worker_stderr);
    } else if (opts_.verbose) {
      std::fprintf(stderr, "[dist] shard %d done\n", specs[p].index);
    }
    return true;
  };

  /// Worker scan: one pass over the slots that drains each worker's stdout
  /// through its line buffer, applies the lines in order, then judges
  /// process exits. An exit is abnormal (a healthy resident worker replies
  /// and stays alive), but a reply written just before death still
  /// counts, so a dead worker's final stdout is applied before its exit.
  const auto scan_workers = [&] {
    bool event = false;
    for (int s = 0; s < opts_.max_parallel; ++s) {
      Slot& slot = slots[static_cast<std::size_t>(s)];
      if (!slot.worker) continue;
      const std::optional<util::Subprocess::Result> result =
          slot.worker->try_wait();
      slot.lines.feed(slot.worker->read_stdout());
      while (const std::optional<std::string> line = slot.lines.next_line()) {
        event = on_line(slot, *line, result ? &result->stderr_output : nullptr) ||
                event;
      }
      if (!result) continue;
      const long pid = static_cast<long>(slot.worker->pid());
      slot.worker.reset();
      if (slot.busy) {
        if (opts_.verbose) {
          std::fprintf(stderr,
                       "[dist] resident worker pid %ld died mid-spec "
                       "(%s) — will respawn\n",
                       pid, result->describe().c_str());
        }
        on_failure(release(slot), result->describe(), result->stderr_output);
        event = true;
      } else if (opts_.verbose && result->exit_code != 0) {
        std::fprintf(stderr,
                     "[dist] idle resident worker pid %ld exited (%s)\n",
                     pid, result->describe().c_str());
      }
    }
    return event;
  };

  /// Liveness: a busy worker that has written no line for
  /// heartbeat_timeout_ms is alive but wedged (a crash would have surfaced
  /// through try_wait already). Stop it (TERM -> grace -> KILL) and route
  /// the shard through the ordinary failure path without waiting for a
  /// voluntary exit; the slot respawns a replacement on its next dispatch.
  const auto reap_silent = [&] {
    bool event = false;
    for (int s = 0; s < opts_.max_parallel; ++s) {
      Slot& slot = slots[static_cast<std::size_t>(s)];
      if (!slot.busy || opts_.heartbeat_timeout_ms <= 0 ||
          elapsed_ms(slot.last_line) <=
              static_cast<double>(opts_.heartbeat_timeout_ms)) {
        continue;
      }
      const long pid = static_cast<long>(slot.worker->pid());
      const util::Subprocess::Result result = slot.worker->stop(kStopGraceMs);
      slot.worker.reset();
      const std::size_t p = release(slot);
      ++stats_.dead_workers;
      if (opts_.verbose) {
        std::fprintf(stderr,
                     "[dist] shard %d worker pid %ld stale (no line for "
                     "> %d ms) — stopped (%s)\n",
                     specs[p].index, pid, opts_.heartbeat_timeout_ms,
                     result.describe().c_str());
      }
      on_failure(p, "heartbeat timeout", result.stderr_output);
      event = true;
    }
    return event;
  };

  int backoff_ms = kPollMinMs;
  while (!queue.empty() || any_busy()) {
    bool event = false;

    while (!queue.empty()) {
      const int slot = free_slot();
      if (slot < 0) break;
      const std::size_t next = queue.front();
      queue.pop_front();
      dispatch(next, slot);
      event = true;
    }

    // Reap in completion order: every in-flight worker is polled, so a
    // straggler at the head of the dispatch order never blocks reaping
    // (and retrying, and stealing from) everyone behind it.
    event = scan_workers() || event;
    event = reap_silent() || event;
    event = maybe_steal() || event;

    if (event) {
      backoff_ms = kPollMinMs;
      continue;  // something changed; see if more work unblocked
    }
    if (!any_busy()) continue;  // pending work only; dispatch next pass
    // Not a blind sleep: block on the live workers' pipes so any protocol
    // line, stderr output, or the EOF of an exit wakes the loop the moment
    // it happens. The backoff only paces the purely time-based checks
    // (worker silence, stalled shards) between wakes.
    std::vector<int> wake_fds;
    for (const Slot& slot : slots) {
      if (!slot.worker || slot.worker->waited()) continue;
      for (const int fd : slot.worker->poll_fds()) wake_fds.push_back(fd);
    }
    if (util::Subprocess::wait_any_readable(wake_fds, backoff_ms)) {
      backoff_ms = kPollMinMs;
    } else {
      backoff_ms = std::min(backoff_ms * 2, kPollMaxMs);
    }
  }

  // Drain the pool: ask each surviving resident worker to exit on its own
  // (`shutdown` + stdin EOF), give the fleet a short shared grace window,
  // then escalate to stop() for any that linger. Workers are gone before
  // run() returns, so the caller can delete the shard directory safely.
  for (Slot& slot : slots) {
    if (!slot.worker || slot.worker->waited()) {
      slot.worker.reset();
      continue;
    }
    WorkerCommand cmd;
    cmd.kind = WorkerCommand::Kind::kShutdown;
    (void)slot.worker->write_stdin(encode_worker_command(cmd));
    slot.worker->close_stdin();
  }
  // Give quick exits one poll, then escalate. An idle resident holds no
  // in-flight state, so there is nothing a long grace window could save —
  // stop(0) (TERM, KILL backstop, reap) collapses a straggling worker's
  // drain to one blocking reap instead of polling the fleet down over
  // several scheduler quanta.
  for (Slot& slot : slots) {
    if (slot.worker && !slot.worker->waited() && !slot.worker->try_wait()) {
      (void)util::Subprocess::wait_any_readable(slot.worker->poll_fds(), 1);
      if (!slot.worker->try_wait()) (void)slot.worker->stop(/*grace_ms=*/0);
    }
    slot.worker.reset();
  }

  for (std::size_t p = 0; p < specs.size(); ++p) {
    ShardStats s;
    s.index = specs[p].index;
    s.stolen_from = specs[p].stolen_from;
    s.attempts = std::max(1, track[p].spawns);
    s.slot = track[p].slot;
    s.wall_ms = track[p].wall_ms;
    s.seeds = static_cast<int>(specs[p].seeds.size());
    stats_.shards.push_back(s);
  }

  // Mirror the scheduling outcome into the metrics registry once, at the
  // end — cheap, and it keeps the hot scheduling loop free of metric
  // plumbing. Stats itself stays authoritative when the registry is off.
  if (obs::Registry::instance().enabled()) {
    obs::add_counter("dist.shards_planned", stats_.planned);
    obs::add_counter("dist.dispatches", stats_.spawned);
    obs::add_counter("dist.pool_workers", stats_.pool_workers);
    obs::add_counter("dist.retries", stats_.retries);
    obs::add_counter("dist.steals", stats_.steals);
    obs::add_counter("dist.stolen_seeds", stats_.stolen_seeds);
    obs::add_counter("dist.steal_considered", stats_.steal_considered);
    obs::add_counter("dist.steal_suppressed_min_stale",
                     stats_.steal_suppressed_min_stale);
    obs::add_counter("dist.dead_workers", stats_.dead_workers);
  }
}

}  // namespace lcda::dist
