#include "lcda/core/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/scenario.h"
#include "lcda/obs/metrics.h"
#include "lcda/store/eval_store.h"
#include "lcda/util/csv.h"
#include "lcda/util/strings.h"
#include "lcda/util/thread_pool.h"

namespace lcda::core {

std::string_view evaluator_kind_name(EvaluatorKind k) {
  switch (k) {
    case EvaluatorKind::kSurrogate: return "surrogate";
    case EvaluatorKind::kTrained: return "trained";
  }
  return "?";
}

EvaluatorKind evaluator_kind_from_name(std::string_view name) {
  if (name == "surrogate") return EvaluatorKind::kSurrogate;
  if (name == "trained") return EvaluatorKind::kTrained;
  throw std::invalid_argument("evaluator_kind_from_name: unknown kind \"" +
                              std::string(name) + "\"");
}

std::string_view strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kLcda: return "LCDA";
    case Strategy::kLcdaNaive: return "LCDA-naive";
    case Strategy::kLcdaFinetuned: return "LCDA-finetuned";
    case Strategy::kNacimRl: return "NACIM";
    case Strategy::kGenetic: return "Genetic";
    case Strategy::kNsga2: return "NSGA-II";
    case Strategy::kAnnealing: return "Annealing";
    case Strategy::kRandom: return "Random";
  }
  return "?";
}

const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> kAll = {
      Strategy::kLcda,      Strategy::kLcdaNaive, Strategy::kLcdaFinetuned,
      Strategy::kNacimRl,   Strategy::kGenetic,   Strategy::kNsga2,
      Strategy::kAnnealing, Strategy::kRandom,
  };
  return kAll;
}

Strategy strategy_from_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  for (Strategy s : all_strategies()) {
    if (lower == util::to_lower(strategy_name(s))) return s;
  }
  // CLI spellings.
  if (lower == "naive") return Strategy::kLcdaNaive;
  if (lower == "finetuned" || lower == "lcda-ft") return Strategy::kLcdaFinetuned;
  if (lower == "nacim-rl" || lower == "rl") return Strategy::kNacimRl;
  if (lower == "nsga2") return Strategy::kNsga2;
  throw std::invalid_argument("strategy_from_name: unknown strategy \"" +
                              std::string(name) + "\"");
}

int env_parallelism(int fallback) {
  // The fallback goes through resolve_parallelism too, so a fallback of 0
  // means "all hardware threads" exactly like an explicit "0" in the env.
  const char* value = std::getenv("LCDA_PARALLELISM");
  if (value == nullptr || *value == '\0') {
    return util::ThreadPool::resolve_parallelism(fallback);
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0 || parsed > util::kMaxParallelism) {
    return util::ThreadPool::resolve_parallelism(fallback);
  }
  return util::ThreadPool::resolve_parallelism(static_cast<int>(parsed));
}

std::unique_ptr<search::Optimizer> make_optimizer(Strategy strategy,
                                                  const ExperimentConfig& config) {
  search::SearchSpace space(config.space);
  switch (strategy) {
    case Strategy::kLcda:
    case Strategy::kLcdaNaive:
    case Strategy::kLcdaFinetuned: {
      llm::SimulatedGpt4::Options gpt;
      gpt.seed = util::hash_combine(config.seed, 0x69f7);
      gpt.wrong_cim_kernel_priors = strategy != Strategy::kLcdaFinetuned;
      auto client = std::make_shared<llm::SimulatedGpt4>(gpt);
      llm::LlmOptimizer::Options opts;
      opts.prompt.objective = config.objective;
      opts.prompt.codesign_context = strategy != Strategy::kLcdaNaive;
      return std::make_unique<llm::LlmOptimizer>(std::move(space),
                                                 std::move(client), opts);
    }
    case Strategy::kNacimRl:
      return std::make_unique<search::RlOptimizer>(std::move(space));
    case Strategy::kGenetic:
      return std::make_unique<search::GeneticOptimizer>(std::move(space));
    case Strategy::kNsga2: {
      search::Nsga2Optimizer::Options opts;
      opts.use_latency = config.objective == llm::Objective::kLatency;
      return std::make_unique<search::Nsga2Optimizer>(std::move(space), opts);
    }
    case Strategy::kAnnealing:
      return std::make_unique<search::AnnealingOptimizer>(std::move(space));
    case Strategy::kRandom:
      return std::make_unique<search::RandomOptimizer>(std::move(space));
  }
  throw std::invalid_argument("make_optimizer: unknown strategy");
}

std::unique_ptr<PerformanceEvaluator> make_evaluator(
    const ExperimentConfig& config) {
  switch (config.evaluator_kind) {
    case EvaluatorKind::kSurrogate:
      return std::make_unique<SurrogateEvaluator>(config.evaluator);
    case EvaluatorKind::kTrained:
      return std::make_unique<TrainedEvaluator>(config.trained);
  }
  throw std::invalid_argument("make_evaluator: unknown evaluator kind");
}

RewardFunction make_reward(const ExperimentConfig& config) {
  if (config.combined_reward) {
    return RewardFunction::combined(config.energy_weight, config.latency_weight,
                                    config.objective);
  }
  return RewardFunction(config.objective);
}

int default_episodes(Strategy strategy, const ExperimentConfig& config) {
  switch (strategy) {
    case Strategy::kLcda:
    case Strategy::kLcdaNaive:
    case Strategy::kLcdaFinetuned:
      return config.lcda_episodes;
    default:
      return config.nacim_episodes;
  }
}

RunResult run_strategy(Strategy strategy, int episodes,
                       const ExperimentConfig& config,
                       PerformanceEvaluator* evaluator) {
  auto optimizer = make_optimizer(strategy, config);
  std::unique_ptr<PerformanceEvaluator> own_evaluator;
  if (evaluator == nullptr) {
    own_evaluator = make_evaluator(config);
    evaluator = own_evaluator.get();
  }
  RewardFunction reward = make_reward(config);
  CodesignLoop::Options opts;
  opts.episodes = episodes;
  opts.parallelism = config.parallelism;
  opts.batch_size = config.batch_size;
  opts.pipeline_depth = config.pipeline_depth;
  opts.cache_evaluations = config.cache_evaluations;

  std::unique_ptr<store::EvalStore> pstore;
  if (!config.persistent_cache_dir.empty()) {
    store::EvalStore::Options store_opts;
    store_opts.directory = config.persistent_cache_dir;
    store_opts.eval_fingerprint = evaluation_fingerprint(config);
    store_opts.stream_fingerprint = stream_fingerprint(config, strategy, episodes);
    store_opts.budget = store::Budget{config.persistent_cache_max_entries,
                                      config.persistent_cache_max_bytes};
    pstore = std::make_unique<store::EvalStore>(std::move(store_opts));
    opts.persistent_store = pstore.get();
  }

  // Checkpointing: every finalized round goes to this run's round log;
  // with `resume`, the study's longest valid log is replayed first.
  std::unique_ptr<ckpt::RunCheckpointer> checkpointer;
  std::vector<RoundDelta> resume_rounds;
  if (!config.checkpoint_dir.empty() && config.checkpoint_every > 0) {
    const std::uint64_t identity = study_fingerprint(config, strategy, episodes);
    if (config.resume) {
      resume_rounds = ckpt::load_resume(config.checkpoint_dir, identity);
      opts.resume = resume_rounds;
    }
    checkpointer = std::make_unique<ckpt::RunCheckpointer>(
        ckpt::RunCheckpointer::Options{config.checkpoint_dir, identity});
    opts.checkpoint_every = config.checkpoint_every;
    opts.on_snapshot = [cp = checkpointer.get()](const LoopSnapshot& snap) {
      cp->on_snapshot(snap);
    };
    opts.on_round = [cp = checkpointer.get()](const RoundDelta& delta) {
      cp->on_round(delta);
    };
  }

  CodesignLoop loop(*optimizer, *evaluator, reward, opts);
  util::Rng rng(util::hash_combine(config.seed,
                                   static_cast<std::uint64_t>(strategy) + 101));
  RunResult result = loop.run(rng);
  if (pstore) {
    pstore->save();  // non-throwing: failures degrade to the counter below
    result.persistent_evictions =
        static_cast<std::int64_t>(pstore->evictions());
    result.persistent_skipped =
        static_cast<std::int64_t>(pstore->skipped_files());
    result.persistent_save_failures =
        static_cast<std::int64_t>(pstore->save_failures());
    const store::EvalStore::Metrics& m = pstore->metrics();
    result.store.hits = static_cast<std::int64_t>(m.hits);
    result.store.misses = static_cast<std::int64_t>(m.misses);
    result.store.shared_hits = static_cast<std::int64_t>(m.shared_hits);
    result.store.shared_misses = static_cast<std::int64_t>(m.shared_misses);
    result.store.probes = static_cast<std::int64_t>(m.probes);
    result.store.bytes_read = static_cast<std::int64_t>(m.bytes_read);
    result.store.bytes_published = static_cast<std::int64_t>(m.bytes_published);
  }
  // Single mirror point into the metrics registry: every run — in-process
  // study, pool thread, shard worker — passes through here exactly once,
  // so registry totals always equal the sum of RunResult counters and
  // nothing double-counts. add_counter takes the registry lock (and is a
  // no-op while the registry is off).
  obs::add_counter("engine.runs", 1);
  obs::add_counter("engine.episodes",
                   static_cast<long long>(result.episodes.size()));
  obs::add_counter("engine.cache_hits", result.cache_hits);
  obs::add_counter("engine.cache_misses", result.cache_misses);
  obs::add_counter("engine.persistent_hits", result.persistent_hits);
  obs::add_counter("engine.persistent_shared_hits",
                   result.persistent_shared_hits);
  obs::add_counter("engine.resumed_episodes", result.resumed_episodes);
  obs::add_counter("store.hits", result.store.hits);
  obs::add_counter("store.misses", result.store.misses);
  obs::add_counter("store.shared_hits", result.store.shared_hits);
  obs::add_counter("store.shared_misses", result.store.shared_misses);
  obs::add_counter("store.probes", result.store.probes);
  obs::add_counter("store.bytes_read", result.store.bytes_read);
  obs::add_counter("store.bytes_published", result.store.bytes_published);
  return result;
}

SpeedupReport measure_speedup(const ExperimentConfig& config,
                              double threshold_fraction,
                              PerformanceEvaluator* evaluator) {
  if (threshold_fraction <= 0.0 || threshold_fraction > 1.0) {
    throw std::invalid_argument("measure_speedup: bad threshold fraction");
  }
  const RunResult lcda =
      run_strategy(Strategy::kLcda, config.lcda_episodes, config, evaluator);
  const RunResult nacim =
      run_strategy(Strategy::kNacimRl, config.nacim_episodes, config, evaluator);

  SpeedupReport report;
  report.lcda_best = lcda.best_reward();
  report.nacim_best = nacim.best_reward();
  report.threshold = threshold_fraction * report.nacim_best;
  // Episodes are 0-based indices; report 1-based counts.
  const int l = lcda.episodes_to_reach(report.threshold);
  const int n = nacim.episodes_to_reach(report.threshold);
  report.lcda_episodes = l < 0 ? -1 : l + 1;
  report.nacim_episodes = n < 0 ? -1 : n + 1;
  report.resumed_episodes = lcda.resumed_episodes + nacim.resumed_episodes;
  return report;
}

void write_run_csv(std::ostream& os, const RunResult& run,
                   std::string_view label) {
  util::CsvWriter csv(os);
  for (const auto& ep : run.episodes) {
    csv.field(label)
        .field(ep.episode)
        .field(ep.accuracy)
        .field(ep.energy_pj)
        .field(ep.latency_ns)
        .field(ep.area_mm2)
        .field(ep.reward)
        .field(static_cast<long long>(ep.valid))
        .field(ep.design.describe())
        .endrow();
  }
}

}  // namespace lcda::core
