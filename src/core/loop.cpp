#include "lcda/core/loop.h"

#include "lcda/store/eval_store.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/util/fault.h"
#include "lcda/util/logging.h"
#include "lcda/util/thread_pool.h"

namespace lcda::core {

const EpisodeRecord& RunResult::best() const {
  static const EpisodeRecord kEmpty = [] {
    EpisodeRecord ep;
    ep.episode = -1;
    ep.reward = -std::numeric_limits<double>::infinity();
    return ep;
  }();
  if (best_episode < 0 || best_episode >= static_cast<int>(episodes.size())) {
    return kEmpty;
  }
  return episodes[static_cast<std::size_t>(best_episode)];
}

double RunResult::best_reward() const { return best().reward; }

std::vector<double> RunResult::reward_running_max() const {
  std::vector<double> out;
  out.reserve(episodes.size());
  double mx = -std::numeric_limits<double>::infinity();
  for (const auto& ep : episodes) {
    mx = std::max(mx, ep.reward);
    out.push_back(mx);
  }
  return out;
}

int RunResult::episodes_to_reach(double threshold) const {
  for (const auto& ep : episodes) {
    if (ep.reward >= threshold) return ep.episode;
  }
  return -1;
}

CodesignLoop::CodesignLoop(search::Optimizer& optimizer,
                           PerformanceEvaluator& evaluator, RewardFunction reward,
                           Options opts)
    : optimizer_(&optimizer),
      evaluator_(&evaluator),
      reward_(reward),
      opts_(std::move(opts)) {
  if (opts_.episodes <= 0) throw std::invalid_argument("CodesignLoop: episodes");
}

std::size_t CodesignLoop::effective_batch(std::size_t remaining) const {
  // The batch composition must never depend on `parallelism`, or parallel
  // and sequential runs would fork their evaluation RNGs at different
  // points of the proposal stream and the traces would diverge.
  const std::size_t pref = optimizer_->preferred_batch();
  std::size_t batch;
  if (opts_.batch_size > 0) {
    batch = pref > 0 ? std::min(opts_.batch_size, pref) : opts_.batch_size;
  } else {
    batch = pref > 0 ? pref : 1;
  }
  return std::min(std::max<std::size_t>(batch, 1), remaining);
}

namespace {

/// One propose->evaluate round in flight. Planned entirely on the driving
/// thread (proposals, RNG forks, cache decisions), evaluated by the pool,
/// finalized (duplicates, cache commits, records, feedback) on the driving
/// thread again — in round order, so pipelining rounds never reorders
/// anything observable.
///
/// Rounds are pooled and their storage reused (reset() keeps every
/// buffer's capacity), so the steady-state engine allocates nothing per
/// episode.
struct Round {
  int first_episode = 0;
  std::vector<search::Design> designs;
  std::vector<Evaluation> evals;

  /// Slots proposing a design that was still pending (a miss of this round
  /// or of one in flight) at planning time, with its hash: finalize copies
  /// the committed cache entry into them.
  std::vector<std::pair<std::size_t, std::uint64_t>> duplicates;

  /// The round's unique cache misses, in episode order: slot/hash for the
  /// finalize-time cache commit, the RNG stream pre-forked on the driving
  /// thread, and the request list handed to the evaluator in pool-sized
  /// chunks (pointers into this round's storage — stable because planning
  /// finishes before dispatch).
  std::vector<std::size_t> job_slots;
  std::vector<std::uint64_t> job_hashes;
  std::vector<util::Rng> job_rngs;
  std::vector<EvalRequest> requests;

  /// Plan-time stamp for the engine.round_us histogram; 0 while metrics
  /// are off (the clock is only read when the histogram is live).
  std::int64_t obs_begin_us = 0;

  /// The chunks in flight. Declared last so it is destroyed first: a round
  /// unwound mid-flight waits out the chunks reading the storage above.
  util::ThreadPool::Fanout fanout;

  void reset(int episode) {
    first_episode = episode;
    obs_begin_us = 0;
    designs.clear();
    evals.clear();
    duplicates.clear();
    job_slots.clear();
    job_hashes.clear();
    job_rngs.clear();
    requests.clear();
  }
};

}  // namespace

RunResult CodesignLoop::run(util::Rng& rng) {
  RunResult result;
  result.episodes.reserve(static_cast<std::size_t>(opts_.episodes));

  const int parallelism = util::ThreadPool::resolve_parallelism(opts_.parallelism);
  std::unique_ptr<util::ThreadPool> pool;
  if (parallelism > 1) pool = std::make_unique<util::ThreadPool>(parallelism);

  // Round-latency histogram, acquired once per run (inert when metrics are
  // off — observe() and the clock reads behind it cost a branch).
  obs::Histogram round_us =
      obs::Registry::instance().histogram("engine.round_us");
  const auto steady_now_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  // Content-addressed evaluation cache: Design::hash -> Evaluation of the
  // first episode that proposed it. Bucket count reserved up front: a run
  // inserts at most one entry per episode, and incremental rehashing of a
  // growing map was measurable in the per-episode budget.
  std::unordered_map<std::uint64_t, Evaluation> cache;
  if (opts_.cache_evaluations) {
    cache.reserve(static_cast<std::size_t>(opts_.episodes));
  }

  // The round log and its replay key each round by its jobs' hashes.
  const bool ckpt_on = opts_.checkpoint_every > 0;

  // Hashes of the misses whose round has not been finalized yet. Without
  // pipelining this only ever covers the round being planned (in-batch
  // duplicates); with rounds in flight a later round's proposal of a
  // design an earlier round is still evaluating is a duplicate too — its
  // value lands in `cache` before that later round finalizes, so it
  // resolves to exactly what a non-pipelined run would have found as a
  // cache hit.
  std::unordered_set<std::uint64_t> pending;

  // Retired rounds parked for reuse (their buffers keep their capacity).
  std::vector<std::unique_ptr<Round>> spare_rounds;

  // Window of rounds in flight. 1 = the classic plan -> evaluate ->
  // feedback cadence; pipelining admits more only when the optimizer's
  // proposal stream is declared feedback-free, so the proposals an
  // eager driving thread draws are the ones a strict schedule would have
  // drawn — which is what keeps sequential, pipelined and parallel traces
  // bit-identical.
  std::size_t max_window = 1;
  if (pool && opts_.pipeline_depth > 0) {
    const std::size_t lookahead = optimizer_->pipeline_lookahead();
    if (lookahead > 0) {
      max_window = 1 + std::min(opts_.pipeline_depth, lookahead);
    }
  }

  // Plans one round on the driving thread, in episode order: propose the
  // batch, fork one eval RNG per episode (hit or miss, so the stream
  // layout is independent of cache contents), resolve cache hits and
  // duplicates, and collect the unique misses as jobs. A replayed round
  // passes its logged job hashes: those stay jobs whatever the store holds
  // by now (the logged run saved them to it if it finished), so the replay
  // makes the cold run's decisions and counts the cold run's counters.
  auto plan_round = [&](int ep, std::span<const std::uint64_t> logged_jobs) {
    obs::Span span("round.plan");
    const std::size_t batch =
        effective_batch(static_cast<std::size_t>(opts_.episodes - ep));
    std::unique_ptr<Round> round;
    if (!spare_rounds.empty()) {
      round = std::move(spare_rounds.back());
      spare_rounds.pop_back();
    } else {
      round = std::make_unique<Round>();
    }
    Round& r = *round;
    r.reset(ep);
    if (round_us.live()) r.obs_begin_us = steady_now_us();

    // des_i = parse(LLM(prompt)) / controller sample / breed / ...
    optimizer_->propose_batch_into(batch, rng, r.designs);
    if (r.designs.size() != batch) {
      throw std::logic_error("CodesignLoop: propose_batch returned " +
                             std::to_string(r.designs.size()) +
                             " designs, want " + std::to_string(batch));
    }

    r.evals.resize(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      util::Rng eval_rng = rng.fork();
      std::uint64_t h = 0;
      if (opts_.cache_evaluations) {
        h = r.designs[i].hash();
        if (auto hit = cache.find(h); hit != cache.end()) {
          r.evals[i] = hit->second;
          ++result.cache_hits;
          continue;
        }
        if (!pending.empty() && pending.contains(h)) {
          r.duplicates.emplace_back(i, h);
          ++result.cache_hits;
          continue;
        }
        const std::size_t job = r.job_hashes.size();
        const bool logged_job =
            job < logged_jobs.size() && logged_jobs[job] == h;
        if (opts_.persistent_store && !logged_job) {
          if (auto disk = opts_.persistent_store->lookup(h)) {
            r.evals[i] = *disk;
            cache.emplace(h, *disk);
            ++result.persistent_hits;
            continue;
          }
          // Cross-study reuse: a sibling study's record for this design in
          // the same evaluation-identity namespace carries the
          // deterministic part (cost + accuracy-model params); replaying
          // the Monte-Carlo draws with THIS slot's pre-forked stream
          // yields the exact Evaluation a cold run would compute, so the
          // hit is trace-invisible. Replayed here on the driving thread
          // (it is a handful of normal draws), and inserted under this
          // study's own key so the next warm rerun full-hits.
          if (auto shared = opts_.persistent_store->lookup_shared(h)) {
            Evaluation replayed;
            if (evaluator_->replay_evaluation(*shared, eval_rng, replayed)) {
              r.evals[i] = replayed;
              cache.emplace(h, replayed);
              opts_.persistent_store->insert(h, replayed);
              ++result.persistent_shared_hits;
              continue;
            }
          }
        }
        // A pending entry can only ever be consulted by a later proposal
        // of the same planning horizon: another slot of this batch, or a
        // round planned while this one is still in flight. Scalar rounds
        // with no pipeline window have neither, so skip the bookkeeping.
        if (batch > 1 || max_window > 1) {
          pending.insert(h);
        }
      } else if (ckpt_on) {
        h = r.designs[i].hash();
      }
      ++result.cache_misses;
      r.job_slots.push_back(i);
      r.job_hashes.push_back(h);
      r.job_rngs.push_back(eval_rng);
    }
    return round;
  };

  // acc_i, hw_i = evaluators. The round's unique misses are split into at
  // most pool-size contiguous chunks, one fan-out item each, so a worker
  // costs a whole sub-batch per claim (PerformanceEvaluator::evaluate_batch).
  // Without a pool the whole round runs inline as a single batch.
  auto dispatch = [&](Round& r) {
    obs::Span span("round.dispatch");
    const std::size_t jobs = r.job_slots.size();
    if (jobs == 0) return;
    r.requests.reserve(jobs);
    for (std::size_t k = 0; k < jobs; ++k) {
      r.requests.push_back(EvalRequest{&r.designs[r.job_slots[k]],
                                       &r.job_rngs[k],
                                       &r.evals[r.job_slots[k]]});
    }
    if (!pool) {
      evaluator_->evaluate_batch(std::span<EvalRequest>(r.requests));
      return;
    }
    const std::size_t chunks = std::min<std::size_t>(jobs, pool->size());
    r.fanout = pool->start(chunks, [this, &r, chunks](std::size_t c) {
      obs::Span span("eval.chunk");
      const auto [begin, end] = util::chunk_range(r.requests.size(), chunks, c);
      evaluator_->evaluate_batch(
          std::span<EvalRequest>(r.requests.data() + begin, end - begin));
    });
  };

  // Waits the round out, commits it to the caches, resolves duplicates,
  // and delivers records + feedback — always called in round order.
  std::vector<search::Observation> observations;
  auto finalize = [&](Round& r) {
    obs::Span span("round.drain");
    r.fanout.wait();

    // Commit fresh evaluations first so this round's duplicates and future
    // rounds resolve against them.
    if (opts_.cache_evaluations) {
      for (std::size_t k = 0; k < r.job_slots.size(); ++k) {
        const std::uint64_t h = r.job_hashes[k];
        const Evaluation& ev = r.evals[r.job_slots[k]];
        cache.emplace(h, ev);
        if (opts_.persistent_store) opts_.persistent_store->insert(h, ev);
        if (!pending.empty()) pending.erase(h);
      }
    }
    for (const auto& [slot, h] : r.duplicates) r.evals[slot] = cache.at(h);

    // perf_i = f(acc_i, hw_i); add des_i and perf_i to l_des / l_perf.
    const std::size_t batch = r.designs.size();
    observations.resize(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const Evaluation& ev = r.evals[i];
      const double reward = reward_(ev.accuracy, ev.cost);

      EpisodeRecord record;
      record.episode = r.first_episode + static_cast<int>(i);
      record.design = r.designs[i];
      record.accuracy = ev.accuracy;
      record.energy_pj = ev.cost.energy_total_pj;
      record.latency_ns = ev.cost.latency_ns;
      record.area_mm2 = ev.cost.area_total_mm2;
      record.reward = reward;
      record.valid = ev.cost.valid;

      search::Observation& obs = observations[i];
      obs.design = std::move(r.designs[i]);
      obs.reward = reward;
      obs.accuracy = ev.accuracy;
      obs.energy_pj = ev.cost.energy_total_pj;
      obs.latency_ns = ev.cost.latency_ns;
      obs.valid = ev.cost.valid;

      if (result.best_episode < 0 || reward > result.best_reward()) {
        result.best_episode = record.episode;
      }
      if (opts_.on_episode) opts_.on_episode(record);
      result.episodes.push_back(std::move(record));
    }
    optimizer_->feedback_batch(observations);
    if (r.obs_begin_us != 0) {
      round_us.observe(steady_now_us() - r.obs_begin_us);
    }
  };

  // Round-log emission, from a reused delta.
  RoundDelta delta_scratch;
  auto emit_round = [&](const Round& r) {
    if (!ckpt_on || !opts_.on_round) return;
    delta_scratch.first_episode = r.first_episode;
    delta_scratch.job_hashes = r.job_hashes;
    delta_scratch.job_evals.clear();
    delta_scratch.job_evals.reserve(r.job_slots.size());
    for (std::size_t k = 0; k < r.job_slots.size(); ++k) {
      delta_scratch.job_evals.push_back(r.evals[r.job_slots[k]]);
    }
    opts_.on_round(delta_scratch);
  };

  std::deque<std::unique_ptr<Round>> window;
  int ep = 0;

  // Resume: replay the log's rounds through the NORMAL planning path with
  // the recorded evaluations injected, from the fresh optimizer and RNG the
  // caller built. Replay re-derives optimizer state, the RNG stream, every
  // cache/duplicate decision, counter and record, and re-inserts into the store
  // session through finalize exactly as live rounds do — so the
  // continuation is bit-identical to the uninterrupted run. Replayed rounds
  // are logged again, so the new log is a whole history too. A round that
  // does not match its record (a log from different code or a corrupt
  // record slipping validation) is evaluated live from there, never an
  // abort.
  for (const RoundDelta& delta : opts_.resume) {
    if (ep >= opts_.episodes) break;
    auto round = plan_round(ep, delta.job_hashes);
    Round& r = *round;
    ep += static_cast<int>(r.designs.size());
    if (r.first_episode != delta.first_episode ||
        r.job_hashes != delta.job_hashes ||
        delta.job_evals.size() != delta.job_hashes.size()) {
      util::warn_once("ckpt-replay-diverged", "core",
                      "round log does not match the replanned round; "
                      "evaluating live from here");
      dispatch(r);
      window.push_back(std::move(round));
      break;
    }
    for (std::size_t k = 0; k < r.job_slots.size(); ++k) {
      r.evals[r.job_slots[k]] = delta.job_evals[k];
    }
    finalize(r);
    emit_round(r);
    result.resumed_episodes += static_cast<int>(r.designs.size());
    spare_rounds.push_back(std::move(round));
  }

  const long long kill_episode = util::FaultInjector::instance().kill_episode();

  // A throw unwinds `window`, and each round's `fanout` handle waits out
  // the chunks still reading that round's storage.
  while (ep < opts_.episodes || !window.empty()) {
    while (ep < opts_.episodes && window.size() < max_window) {
      // Fault injection: die before planning this episode.
      if (kill_episode >= 0 && ep >= kill_episode) std::_Exit(42);
      auto round = plan_round(ep, {});
      ep += static_cast<int>(round->designs.size());
      dispatch(*round);
      window.push_back(std::move(round));
    }
    if (!window.empty()) {
      Round& r = *window.front();
      finalize(r);
      emit_round(r);
      spare_rounds.push_back(std::move(window.front()));
      window.pop_front();
    }
  }
  if (ckpt_on && opts_.on_snapshot) opts_.on_snapshot(LoopSnapshot{ep});
  return result;
}

}  // namespace lcda::core
