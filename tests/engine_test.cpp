// Tests of the batched parallel evaluation engine: the thread pool, the
// seed-derivation scheme, the optimizer batch contract, the evaluation
// cache, the bit-for-bit determinism guarantee (same seed => same trace,
// for every parallelism setting) and the recorded trace bytes of every
// non-LLM baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "lcda/core/experiment.h"
#include "lcda/core/loop.h"
#include "lcda/core/scenario.h"
#include "lcda/core/stats_runner.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/search/genetic_optimizer.h"
#include "lcda/search/nsga2_optimizer.h"
#include "lcda/search/random_optimizer.h"
#include "lcda/util/rng.h"
#include "lcda/util/striped_cache.h"
#include "lcda/util/strings.h"
#include "lcda/util/thread_pool.h"

namespace lcda {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, StartedFanoutRunsEveryItemOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(200);
  util::ThreadPool::Fanout fanout =
      pool.start(counts.size(), [&](std::size_t i) { ++counts[i]; });
  fanout.wait();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  fanout.wait();  // a waited handle is empty
}

TEST(ThreadPool, WaitRunsUnclaimedItemsOnTheCallingThread) {
  // No worker is woken, so every item is left for wait().
  util::ThreadPool pool(2);
  std::vector<std::thread::id> ran_on(10);
  pool.start(ran_on.size(),
             [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); }, 0)
      .wait();
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, PoolJobsMayFanOutOnTheirOwnPool) {
  // A pool-wide wait would count the outer job itself and never return.
  util::ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) { ++counts[i * kInner + j]; });
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, FanoutsSharingAPoolKeepTheirOwnErrors) {
  util::ThreadPool pool(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::atomic<int> healthy_items{0};
    util::ThreadPool::Fanout failing = pool.start(64, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom");
    });
    util::ThreadPool::Fanout healthy =
        pool.start(64, [&](std::size_t) { ++healthy_items; });
    EXPECT_NO_THROW(healthy.wait());
    EXPECT_EQ(healthy_items.load(), 64);
    EXPECT_THROW(failing.wait(), std::runtime_error);
  }
}

TEST(ThreadPool, DestroyedFanoutWaitsForClaimedItemsAndSkipsTheRest) {
  util::ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  std::thread releaser;
  {
    // One worker claims item 0 and holds it until released; the handle
    // is destroyed while it does.
    util::ThreadPool::Fanout fanout = pool.start(
        100,
        [&](std::size_t) {
          ++started;
          while (!release.load()) std::this_thread::yield();
          ++finished;
        },
        1);
    while (started.load() == 0) std::this_thread::yield();
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release = true;
    });
  }
  EXPECT_EQ(finished.load(), 1);
  EXPECT_EQ(started.load(), 1);
  pool.parallel_for(8, [](std::size_t) {});  // the worker is free again
  EXPECT_EQ(started.load(), 1);
  releaser.join();
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveParallelism) {
  EXPECT_EQ(util::ThreadPool::resolve_parallelism(3), 3);
  EXPECT_EQ(util::ThreadPool::resolve_parallelism(1), 1);
  EXPECT_GE(util::ThreadPool::resolve_parallelism(0), 1);  // auto
  EXPECT_EQ(util::ThreadPool::resolve_parallelism(util::kMaxParallelism),
            util::kMaxParallelism);
  // Only the pure call: a pool this size would start 4,097 threads if the
  // constructor's guard ever regressed.
  EXPECT_THROW((void)util::ThreadPool::resolve_parallelism(
                   util::kMaxParallelism + 1),
               std::invalid_argument);
}

TEST(ThreadPool, NullPoolHelperRunsInline) {
  std::vector<int> counts(10, 0);
  util::parallel_for_each_index(nullptr, counts.size(),
                                [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

// ------------------------------------------------------- seed derivation

TEST(DeriveSeed, OrderIndependentAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) {
    seeds.insert(util::derive_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 100u) << "streams must be distinct";
  // Same (base, index) in any order gives the same seed.
  EXPECT_EQ(util::derive_seed(42, 7), util::derive_seed(42, 7));
  EXPECT_NE(util::derive_seed(42, 7), util::derive_seed(43, 7));
  // Derived streams behave like independent Rngs.
  util::Rng a(util::derive_seed(1, 0)), b(util::derive_seed(1, 1));
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------- chunked dispatch

TEST(ThreadPool, ChunkRangesPartitionExactly) {
  for (std::size_t n : {1u, 5u, 16u, 17u, 100u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 7u}) {
      if (chunks > n) continue;
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = util::chunk_range(n, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_GT(end, begin) << "empty chunk";
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

// --------------------------------------------------------- striped cache

TEST(StripedCache, BuildsOncePerKeyAndSharesTheValue) {
  util::StripedCache<int> cache;
  std::atomic<int> builds{0};
  auto build = [&] {
    ++builds;
    return std::make_shared<const int>(42);
  };
  const auto a = cache.get_or_build(7, build);
  const auto b = cache.get_or_build(7, build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(*a, 42);
  (void)cache.get_or_build(8, build);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(StripedCache, StripeOverflowResetsOnlyThatStripe) {
  // Tiny capacity: per-stripe cap of 1 entry. Keys that land on the same
  // stripe evict each other; entries already handed out stay valid.
  util::StripedCache<std::uint64_t> cache(util::StripedCache<std::uint64_t>::kStripes);
  auto value_of = [&](std::uint64_t key) {
    return cache.get_or_build(key,
                              [&] { return std::make_shared<const std::uint64_t>(key); });
  };
  // Two keys on stripe 0 (stripe = top 16 bits & 15).
  const auto first = value_of(1);
  const auto second = value_of(2);
  EXPECT_EQ(*first, 1u);   // still usable after its stripe was reset
  EXPECT_EQ(*second, 2u);
}

TEST(StripedCache, ConcurrentHammeringIsRaceFreeAndConsistent) {
  // The TSan-exercised stress test of the evaluator-memo design: many
  // threads resolving a small key set through one cache must always see
  // the key's own value, whatever interleaving of builds/hits/evictions
  // happens. Small capacity keeps stripe resets in play.
  util::StripedCache<std::uint64_t> cache(64);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = util::hash_mix(rng.next_u64() % 97);
        const auto value = cache.get_or_build(key, [&] {
          return std::make_shared<const std::uint64_t>(key);
        });
        if (*value != key) failed = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

// ------------------------------------------------ evaluator batch contract

TEST(EvaluateBatch, MatchesScalarEvaluationBitForBit) {
  // One evaluator driven through evaluate(), another through
  // evaluate_batch() with identically forked streams: every field of every
  // Evaluation must match exactly, for any chunk split.
  core::ExperimentConfig cfg;
  core::SurrogateEvaluator scalar(cfg.evaluator);
  core::SurrogateEvaluator batched(cfg.evaluator);

  const search::SearchSpace space{cfg.space};
  util::Rng design_rng(21);
  constexpr std::size_t kN = 12;
  std::vector<search::Design> designs;
  designs.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) designs.push_back(space.sample(design_rng));

  util::Rng stream_a(5), stream_b(5);
  std::vector<core::Evaluation> want;
  want.reserve(kN);
  for (const search::Design& d : designs) {
    util::Rng r = stream_a.fork();
    want.push_back(scalar.evaluate(d, r));
  }

  std::vector<util::Rng> rngs;
  rngs.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) rngs.push_back(stream_b.fork());
  std::vector<core::Evaluation> got(kN);
  std::vector<core::EvalRequest> requests(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    requests[i] = core::EvalRequest{&designs[i], &rngs[i], &got[i]};
  }
  // Split into uneven chunks, like the loop's pool-sized dispatch does.
  batched.evaluate_batch(std::span<core::EvalRequest>(requests.data(), 5));
  batched.evaluate_batch(std::span<core::EvalRequest>(requests.data() + 5, 1));
  batched.evaluate_batch(
      std::span<core::EvalRequest>(requests.data() + 6, kN - 6));

  for (std::size_t i = 0; i < kN; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want[i].accuracy, got[i].accuracy);
    EXPECT_EQ(want[i].accuracy_stddev, got[i].accuracy_stddev);
    EXPECT_EQ(want[i].cost.energy_total_pj, got[i].cost.energy_total_pj);
    EXPECT_EQ(want[i].cost.latency_ns, got[i].cost.latency_ns);
    EXPECT_EQ(want[i].cost.area_total_mm2, got[i].cost.area_total_mm2);
    EXPECT_EQ(want[i].cost.programming_energy_pj,
              got[i].cost.programming_energy_pj);
    EXPECT_EQ(want[i].cost.weight_sigma, got[i].cost.weight_sigma);
    EXPECT_EQ(want[i].cost.max_adc_deficit_bits,
              got[i].cost.max_adc_deficit_bits);
    EXPECT_EQ(want[i].cost.valid, got[i].cost.valid);
  }
}

TEST(EvaluateBatch, SharedEvaluatorUnderManyThreadsMatchesReference) {
  // The contention-free core's end-to-end stress: one SurrogateEvaluator
  // (striped cost-plan memo, per-thread shape scratch) hammered
  // concurrently from many threads over a small design set. Under TSan
  // this is the data-race sentinel; everywhere it pins that concurrency
  // never changes a value.
  core::ExperimentConfig cfg;
  core::SurrogateEvaluator shared(cfg.evaluator);

  const search::SearchSpace space{cfg.space};
  util::Rng design_rng(33);
  constexpr std::size_t kDesigns = 24;
  std::vector<search::Design> designs;
  designs.reserve(kDesigns);
  for (std::size_t i = 0; i < kDesigns; ++i) {
    designs.push_back(space.sample(design_rng));
  }

  // Reference evaluations from a fresh evaluator, sequentially.
  std::vector<core::Evaluation> want;
  want.reserve(kDesigns);
  {
    core::SurrogateEvaluator reference(cfg.evaluator);
    for (std::size_t i = 0; i < kDesigns; ++i) {
      util::Rng r(util::derive_seed(99, i));
      want.push_back(reference.evaluate(designs[i], r));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng order(static_cast<std::uint64_t>(t) + 7);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t i = order.index(kDesigns);
        util::Rng r(util::derive_seed(99, i));
        const core::Evaluation got = shared.evaluate(designs[i], r);
        if (got.accuracy != want[i].accuracy ||
            got.cost.energy_total_pj != want[i].cost.energy_total_pj ||
            got.cost.latency_ns != want[i].cost.latency_ns) {
          mismatch = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
}

// ------------------------------------------------- optimizer batch contract

TEST(BatchContract, DefaultsDelegateToScalar) {
  // Two identically seeded LLM optimizers: one driven through the scalar
  // API, one through the (inherited default) batch API. Streams must match.
  core::ExperimentConfig cfg;
  cfg.seed = 5;
  auto scalar = core::make_optimizer(core::Strategy::kLcda, cfg);
  auto batched = core::make_optimizer(core::Strategy::kLcda, cfg);
  ASSERT_EQ(scalar->preferred_batch(), 1u);

  util::Rng r1(9), r2(9);
  for (int round = 0; round < 4; ++round) {
    const search::Design ds = scalar->propose(r1);
    const std::vector<search::Design> db = batched->propose_batch(1, r2);
    ASSERT_EQ(db.size(), 1u);
    EXPECT_EQ(ds, db[0]);

    search::Observation obs;
    obs.design = ds;
    obs.reward = 0.1 * round;
    obs.accuracy = 0.5;
    obs.valid = true;
    scalar->feedback(obs);
    batched->feedback_batch(std::span<const search::Observation>(&obs, 1));
  }
}

TEST(BatchContract, GeneticBatchIsGenerational) {
  search::GeneticOptimizer::Options gopts;
  gopts.population = 8;
  search::GeneticOptimizer ga{search::SearchSpace{}, gopts};
  EXPECT_EQ(ga.preferred_batch(), 8u);

  util::Rng rng(3);
  const auto seedlings = ga.propose_batch(8, rng);
  ASSERT_EQ(seedlings.size(), 8u);
  std::vector<search::Observation> obs(8);
  for (std::size_t i = 0; i < 8; ++i) {
    obs[i].design = seedlings[i];
    obs[i].reward = 0.01 * static_cast<double>(i);
    obs[i].valid = true;
  }
  ga.feedback_batch(obs);
  EXPECT_EQ(ga.population_size(), 8u);

  // Next generation breeds from the filled pool.
  const auto children = ga.propose_batch(8, rng);
  EXPECT_EQ(children.size(), 8u);
}

TEST(BatchContract, Nsga2BatchSortsOncePerGeneration) {
  search::Nsga2Optimizer::Options nopts;
  nopts.population = 8;
  search::Nsga2Optimizer nsga{search::SearchSpace{}, nopts};
  EXPECT_EQ(nsga.preferred_batch(), 8u);

  util::Rng rng(4);
  for (int gen = 0; gen < 3; ++gen) {
    const auto designs = nsga.propose_batch(8, rng);
    ASSERT_EQ(designs.size(), 8u);
    std::vector<search::Observation> obs(8);
    for (std::size_t i = 0; i < 8; ++i) {
      obs[i].design = designs[i];
      obs[i].accuracy = 0.5 + 0.01 * static_cast<double>(i);
      obs[i].energy_pj = 1e7;
      obs[i].reward = obs[i].accuracy;
      obs[i].valid = true;
    }
    nsga.feedback_batch(obs);
  }
  EXPECT_LE(nsga.archive_size(), 2u * 8u);
  EXPECT_GE(nsga.archive_size(), 8u);
}

TEST(BatchContract, RandomBatchMatchesScalarStream) {
  search::RandomOptimizer scalar{search::SearchSpace{}};
  search::RandomOptimizer batched{search::SearchSpace{}};
  util::Rng r1(11), r2(11);
  std::vector<search::Design> via_scalar;
  for (int i = 0; i < 12; ++i) {
    search::Design d = scalar.propose(r1);
    search::Observation obs;
    obs.design = d;
    scalar.feedback(obs);
    via_scalar.push_back(std::move(d));
  }
  const auto via_batch = batched.propose_batch(12, r2);
  ASSERT_EQ(via_batch.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(via_scalar[static_cast<std::size_t>(i)],
              via_batch[static_cast<std::size_t>(i)]);
  }
}

// -------------------------------------------------- engine determinism

void expect_identical_traces(const core::RunResult& a, const core::RunResult& b) {
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  EXPECT_EQ(a.best_episode, b.best_episode);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.persistent_hits, b.persistent_hits);
  for (std::size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(a.episodes[i].design, b.episodes[i].design) << "episode " << i;
    // Bit-for-bit: no tolerance.
    EXPECT_EQ(a.episodes[i].reward, b.episodes[i].reward) << "episode " << i;
    EXPECT_EQ(a.episodes[i].accuracy, b.episodes[i].accuracy) << "episode " << i;
    EXPECT_EQ(a.episodes[i].energy_pj, b.episodes[i].energy_pj) << "episode " << i;
  }
}

TEST(EngineDeterminism, ParallelTraceIsBitIdenticalToSequential) {
  for (const auto strategy :
       {core::Strategy::kLcda, core::Strategy::kNacimRl, core::Strategy::kRandom,
        core::Strategy::kGenetic, core::Strategy::kNsga2,
        core::Strategy::kAnnealing}) {
    core::ExperimentConfig sequential;
    sequential.seed = 77;
    sequential.parallelism = 1;
    core::ExperimentConfig parallel = sequential;
    parallel.parallelism = 4;
    const core::RunResult a = core::run_strategy(strategy, 30, sequential);
    const core::RunResult b = core::run_strategy(strategy, 30, parallel);
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    expect_identical_traces(a, b);
  }
}

TEST(EngineDeterminism, ExplicitBatchingIsParallelismIndependent) {
  core::ExperimentConfig sequential;
  sequential.seed = 31;
  sequential.batch_size = 6;
  sequential.parallelism = 1;
  core::ExperimentConfig parallel = sequential;
  parallel.parallelism = 3;
  for (const auto strategy : {core::Strategy::kRandom, core::Strategy::kAnnealing}) {
    const core::RunResult a = core::run_strategy(strategy, 24, sequential);
    const core::RunResult b = core::run_strategy(strategy, 24, parallel);
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    expect_identical_traces(a, b);
  }
}

TEST(EngineDeterminism, LlmOptimizerStaysScalarUnderForcedBatch) {
  // preferred_batch() == 1 caps any requested batch, so LCDA's history
  // semantics survive aggressive engine settings.
  core::ExperimentConfig scalar_cfg;
  scalar_cfg.seed = 19;
  core::ExperimentConfig forced = scalar_cfg;
  forced.parallelism = 4;
  forced.batch_size = 8;
  const core::RunResult a = core::run_strategy(core::Strategy::kLcda, 12, scalar_cfg);
  const core::RunResult b = core::run_strategy(core::Strategy::kLcda, 12, forced);
  expect_identical_traces(a, b);
}

TEST(EngineDeterminism, AggregateParallelMatchesSequential) {
  core::ExperimentConfig sequential;
  sequential.seed = 3;
  sequential.parallelism = 1;
  core::ExperimentConfig parallel = sequential;
  parallel.parallelism = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto a = core::run_aggregate(core::Strategy::kRandom, 12, 8, sequential, nan);
  const auto b = core::run_aggregate(core::Strategy::kRandom, 12, 8, parallel, nan);
  ASSERT_EQ(a.running_best.size(), b.running_best.size());
  for (std::size_t e = 0; e < a.running_best.size(); ++e) {
    EXPECT_EQ(a.running_best[e].mean(), b.running_best[e].mean());
    EXPECT_EQ(a.running_best[e].stddev(), b.running_best[e].stddev());
  }
  EXPECT_EQ(a.final_best.mean(), b.final_best.mean());
  EXPECT_EQ(a.final_best.min(), b.final_best.min());
  EXPECT_EQ(a.final_best.max(), b.final_best.max());
}

TEST(EngineDeterminism, AggregateHandsLeftoverParallelismToInnerRuns) {
  // With fewer seeds than workers the spare parallelism flows into the
  // inner loops; it must not change the aggregate.
  core::ExperimentConfig sequential;
  sequential.seed = 6;
  sequential.parallelism = 1;
  core::ExperimentConfig parallel = sequential;
  parallel.parallelism = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto a = core::run_aggregate(core::Strategy::kGenetic, 48, 2, sequential, nan);
  const auto b = core::run_aggregate(core::Strategy::kGenetic, 48, 2, parallel, nan);
  for (std::size_t e = 0; e < a.running_best.size(); ++e) {
    EXPECT_EQ(a.running_best[e].mean(), b.running_best[e].mean());
  }
  EXPECT_EQ(a.final_best.mean(), b.final_best.mean());
}

TEST(EngineDeterminism, SpeedupStudyParallelMatchesSequential) {
  core::ExperimentConfig sequential;
  sequential.seed = 8;
  sequential.lcda_episodes = 8;
  sequential.nacim_episodes = 60;
  sequential.parallelism = 1;
  core::ExperimentConfig parallel = sequential;
  parallel.parallelism = 4;
  const auto a = core::speedup_study(sequential, 4);
  const auto b = core::speedup_study(parallel, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].lcda_best, b[s].lcda_best);
    EXPECT_EQ(a[s].nacim_best, b[s].nacim_best);
    EXPECT_EQ(a[s].lcda_episodes, b[s].lcda_episodes);
    EXPECT_EQ(a[s].nacim_episodes, b[s].nacim_episodes);
  }
}

// ------------------------------------------------ baseline trace digests

/// One non-LLM baseline on paper-energy at one batch_size, and the FNV-1a
/// of its trace CSV. 241 episodes (1 mod 24) end Genetic and NSGA-II on a
/// round of one at their natural batch (0) and at 8, and batch_size 1 runs
/// every optimizer in rounds of one; Annealing and Random run in rounds of
/// one by default. The golden CSV and TranscriptDigest pin LCDA only.
struct BaselineGolden {
  core::Strategy strategy;
  std::size_t batch_size;
  const char* digest;
};

class BaselineDigest : public ::testing::TestWithParam<BaselineGolden> {};

TEST_P(BaselineDigest, MatchesRecordedBytes) {
  const BaselineGolden& g = GetParam();
  core::ExperimentConfig config = core::scenario_by_name("paper-energy").config;
  config.batch_size = g.batch_size;
  const core::RunResult run = core::run_strategy(g.strategy, 241, config);
  std::ostringstream csv;
  core::write_run_csv(csv, run, core::strategy_name(g.strategy));
  EXPECT_EQ(util::hex_u64(util::fnv1a64(csv.str())), g.digest)
      << core::strategy_name(g.strategy) << " at batch_size " << g.batch_size
      << ": a trace byte changed";
}

INSTANTIATE_TEST_SUITE_P(
    PaperEnergy, BaselineDigest,
    ::testing::Values(
        BaselineGolden{core::Strategy::kNacimRl, 0, "854db0b5ab9fb5a4"},
        BaselineGolden{core::Strategy::kNacimRl, 1, "854db0b5ab9fb5a4"},
        BaselineGolden{core::Strategy::kNacimRl, 8, "854db0b5ab9fb5a4"},
        BaselineGolden{core::Strategy::kGenetic, 0, "ca56823fd5450a94"},
        BaselineGolden{core::Strategy::kGenetic, 1, "2e3aa966a3717c76"},
        BaselineGolden{core::Strategy::kGenetic, 8, "f1723f717e774fcc"},
        BaselineGolden{core::Strategy::kNsga2, 0, "6c27735072c825c1"},
        BaselineGolden{core::Strategy::kNsga2, 1, "df4b16bc74203ea3"},
        BaselineGolden{core::Strategy::kNsga2, 8, "9972b3ca19ca08c6"},
        BaselineGolden{core::Strategy::kAnnealing, 0, "1fe8b3d2e452c568"},
        BaselineGolden{core::Strategy::kAnnealing, 1, "1fe8b3d2e452c568"},
        BaselineGolden{core::Strategy::kAnnealing, 8, "de2dd1ab2e9ee968"},
        BaselineGolden{core::Strategy::kRandom, 0, "5cc1c2a9ce43e0c5"},
        BaselineGolden{core::Strategy::kRandom, 1, "5cc1c2a9ce43e0c5"},
        BaselineGolden{core::Strategy::kRandom, 8, "87188691caf821fc"}),
    [](const ::testing::TestParamInfo<BaselineGolden>& info) {
      std::string name = std::string(core::strategy_name(info.param.strategy)) +
                         "_batch" + std::to_string(info.param.batch_size);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------- pipelined propose/evaluate

TEST(EnginePipelining, SequentialPipelinedAndParallelTracesAreBitIdentical) {
  // The three engine modes for every strategy: strictly sequential (no
  // pool, no pipelining), parallel with pipelining disabled, and parallel
  // with a deep pipeline. Traces AND cache counters must match bit for
  // bit — learning optimizers refuse lookahead and degrade to the strict
  // cadence; Random genuinely overlaps rounds and must still not drift.
  for (const auto strategy :
       {core::Strategy::kLcda, core::Strategy::kNacimRl, core::Strategy::kRandom,
        core::Strategy::kGenetic, core::Strategy::kNsga2,
        core::Strategy::kAnnealing}) {
    core::ExperimentConfig sequential;
    sequential.seed = 21;
    sequential.parallelism = 1;
    sequential.pipeline_depth = 0;
    core::ExperimentConfig strict_parallel = sequential;
    strict_parallel.parallelism = 4;
    core::ExperimentConfig pipelined = sequential;
    pipelined.parallelism = 4;
    pipelined.pipeline_depth = 8;

    const core::RunResult a = core::run_strategy(strategy, 30, sequential);
    const core::RunResult b = core::run_strategy(strategy, 30, strict_parallel);
    const core::RunResult c = core::run_strategy(strategy, 30, pipelined);
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    expect_identical_traces(a, b);
    expect_identical_traces(a, c);
  }
}

TEST(EnginePipelining, CrossRoundDuplicatesCountAsCacheHits) {
  // A space so tiny that random search repeats designs constantly: in
  // pipelined mode a repeat of a design that is still being evaluated in
  // an earlier in-flight round must alias to that pending evaluation —
  // same values, same hit/miss counters as the strict schedule, where the
  // repeat would have been a plain cache hit.
  core::ExperimentConfig tiny;
  tiny.seed = 13;
  tiny.space.conv_layers = 2;
  tiny.space.channel_choices = {16, 32};
  tiny.space.kernel_choices = {3};
  tiny.space.hw.devices = {cim::DeviceType::kRram};
  tiny.space.hw.bits_per_cell = {2};
  tiny.space.hw.adc_bits = {6};
  tiny.space.hw.xbar_sizes = {128};
  tiny.space.hw.col_mux = {8};
  tiny.parallelism = 1;
  tiny.pipeline_depth = 0;
  core::ExperimentConfig pipelined = tiny;
  pipelined.parallelism = 4;
  pipelined.pipeline_depth = 8;

  const core::RunResult a = core::run_strategy(core::Strategy::kRandom, 40, tiny);
  const core::RunResult b =
      core::run_strategy(core::Strategy::kRandom, 40, pipelined);
  expect_identical_traces(a, b);
  EXPECT_GT(a.cache_hits, 0) << "space too large: no duplicates exercised";
  EXPECT_LT(a.cache_misses, 40);
}

TEST(EnginePipelining, GoldenPaperEnergyTraceSurvivesPipelinedEngine) {
  // The checked-in golden trace is LCDA (strictly sequential optimizer);
  // the pipelined engine must leave it untouched even at full depth.
  core::ExperimentConfig paper;
  paper.seed = 1;
  core::ExperimentConfig pipelined = paper;
  pipelined.parallelism = 4;
  pipelined.pipeline_depth = 8;
  const core::RunResult a = core::run_strategy(core::Strategy::kLcda, 20, paper);
  const core::RunResult b =
      core::run_strategy(core::Strategy::kLcda, 20, pipelined);
  expect_identical_traces(a, b);
}

// ------------------------------------------------------- failing rounds

/// The surrogate evaluator, except that its k-th evaluation throws.
class FailingEvaluator final : public core::PerformanceEvaluator {
 public:
  explicit FailingEvaluator(int fail_at) : fail_at_(fail_at) {}
  core::Evaluation evaluate(const search::Design& design,
                            util::Rng& rng) override {
    if (calls_.fetch_add(1) + 1 == fail_at_) {
      throw std::runtime_error("evaluation " + std::to_string(fail_at_));
    }
    return inner_.evaluate(design, rng);
  }
  std::string name() const override { return "Failing"; }

 private:
  core::SurrogateEvaluator inner_;
  const int fail_at_;
  std::atomic<int> calls_{0};
};

TEST(EngineFailure, EvaluatorErrorInAPooledRoundIsRethrown) {
  // Random runs scalar rounds with up to eight more in flight; Genetic
  // runs generations of 24 split into four chunks. Either way run() must
  // rethrow the evaluator's error, after the chunks still reading the
  // failed run's rounds have finished (the sanitizer jobs run this).
  for (const auto strategy : {core::Strategy::kRandom, core::Strategy::kGenetic}) {
    SCOPED_TRACE(std::string(core::strategy_name(strategy)));
    for (const int fail_at : {1, 2, 30, 47}) {
      SCOPED_TRACE(fail_at);
      core::ExperimentConfig cfg;
      cfg.seed = 5;
      cfg.parallelism = 4;
      FailingEvaluator eval(fail_at);
      std::string error = "no error";
      try {
        (void)core::run_strategy(strategy, 96, cfg, &eval);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_EQ(error, "evaluation " + std::to_string(fail_at));
    }
  }
}

// ------------------------------------------------------ evaluation cache

class FixedOptimizer final : public search::Optimizer {
 public:
  explicit FixedOptimizer(search::Design design) : design_(std::move(design)) {}
  search::Design propose(util::Rng&) override { return design_; }
  void feedback(const search::Observation&) override {}
  std::string name() const override { return "Fixed"; }

 private:
  search::Design design_;
};

search::Design fixed_design() {
  search::Design d;
  d.rollout = {{32, 3}, {32, 3}, {64, 3}, {64, 3}, {128, 3}, {128, 3}};
  return d;
}

TEST(EvalCache, HitsReturnIdenticalEvaluations) {
  FixedOptimizer opt(fixed_design());
  core::SurrogateEvaluator eval;
  core::CodesignLoop::Options lopts;
  lopts.episodes = 10;
  lopts.cache_evaluations = true;
  core::CodesignLoop loop(opt, eval, core::RewardFunction(llm::Objective::kEnergy),
                          lopts);
  util::Rng rng(55);
  const core::RunResult run = loop.run(rng);
  EXPECT_EQ(run.cache_misses, 1);
  EXPECT_EQ(run.cache_hits, 9);
  for (const auto& ep : run.episodes) {
    EXPECT_EQ(ep.accuracy, run.episodes[0].accuracy);
    EXPECT_EQ(ep.reward, run.episodes[0].reward);
  }
}

TEST(EvalCache, DisabledCacheReEvaluatesWithFreshNoise) {
  FixedOptimizer opt(fixed_design());
  core::SurrogateEvaluator eval;
  core::CodesignLoop::Options lopts;
  lopts.episodes = 6;
  lopts.cache_evaluations = false;
  core::CodesignLoop loop(opt, eval, core::RewardFunction(llm::Objective::kEnergy),
                          lopts);
  util::Rng rng(55);
  const core::RunResult run = loop.run(rng);
  EXPECT_EQ(run.cache_misses, 6);
  EXPECT_EQ(run.cache_hits, 0);
  // Monte-Carlo accuracy differs across episodes when re-evaluated.
  bool any_differs = false;
  for (const auto& ep : run.episodes) {
    if (ep.accuracy != run.episodes[0].accuracy) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(EvalCache, InBatchDuplicatesHitWithoutRacing) {
  FixedOptimizer opt(fixed_design());
  core::SurrogateEvaluator eval;
  core::CodesignLoop::Options lopts;
  lopts.episodes = 12;
  lopts.batch_size = 4;
  lopts.parallelism = 4;
  core::CodesignLoop loop(opt, eval, core::RewardFunction(llm::Objective::kEnergy),
                          lopts);
  util::Rng rng(56);
  const core::RunResult run = loop.run(rng);
  EXPECT_EQ(run.cache_misses, 1);
  EXPECT_EQ(run.cache_hits, 11);
  for (const auto& ep : run.episodes) {
    EXPECT_EQ(ep.accuracy, run.episodes[0].accuracy);
  }
}

class PipelineableFixedOptimizer final : public search::Optimizer {
 public:
  explicit PipelineableFixedOptimizer(search::Design design)
      : design_(std::move(design)) {}
  search::Design propose(util::Rng&) override { return design_; }
  void feedback(const search::Observation&) override {}
  std::size_t pipeline_lookahead() const override {
    return static_cast<std::size_t>(-1);
  }
  std::string name() const override { return "PipelineableFixed"; }

 private:
  search::Design design_;
};

TEST(EvalCache, PipelinedPendingDuplicatesResolveToOneEvaluation) {
  // With unlimited lookahead and scalar rounds the loop floods the pool
  // with in-flight rounds of the SAME design; all but the first must
  // alias the pending evaluation — one miss, identical values, exactly
  // like the strict schedule's cache hits.
  PipelineableFixedOptimizer opt(fixed_design());
  core::SurrogateEvaluator eval;
  core::CodesignLoop::Options lopts;
  lopts.episodes = 12;
  lopts.parallelism = 4;
  lopts.pipeline_depth = 8;
  core::CodesignLoop loop(opt, eval, core::RewardFunction(llm::Objective::kEnergy),
                          lopts);
  util::Rng rng(57);
  const core::RunResult run = loop.run(rng);
  EXPECT_EQ(run.cache_misses, 1);
  EXPECT_EQ(run.cache_hits, 11);
  for (const auto& ep : run.episodes) {
    EXPECT_EQ(ep.accuracy, run.episodes[0].accuracy);
    EXPECT_EQ(ep.reward, run.episodes[0].reward);
  }
}

// ------------------------------------------------------- RunResult guards

TEST(RunResult, EmptyRunYieldsSentinelBest) {
  core::RunResult empty;
  EXPECT_NO_THROW((void)empty.best());
  EXPECT_EQ(empty.best().episode, -1);
  EXPECT_EQ(empty.best_reward(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(empty.reward_running_max().empty());
  EXPECT_EQ(empty.episodes_to_reach(0.0), -1);
}

TEST(RunResult, OutOfRangeBestEpisodeYieldsSentinel) {
  core::RunResult run;
  core::EpisodeRecord ep;
  ep.reward = 0.5;
  run.episodes.push_back(ep);
  run.best_episode = 7;  // corrupted index must not be UB
  EXPECT_EQ(run.best().episode, -1);
}

}  // namespace
}  // namespace lcda
