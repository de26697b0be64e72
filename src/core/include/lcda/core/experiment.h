#pragma once

#include <memory>
#include <ostream>
#include <string>

#include "lcda/core/loop.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/search/annealing_optimizer.h"
#include "lcda/search/genetic_optimizer.h"
#include "lcda/search/nsga2_optimizer.h"
#include "lcda/search/random_optimizer.h"
#include "lcda/search/rl_optimizer.h"

namespace lcda::core {

/// Which performance evaluator a configuration runs: the calibrated
/// surrogate (seconds per 500-episode run) or the faithful train-then-
/// Monte-Carlo pipeline (seconds-to-minutes per candidate).
enum class EvaluatorKind { kSurrogate, kTrained };

[[nodiscard]] std::string_view evaluator_kind_name(EvaluatorKind k);
[[nodiscard]] EvaluatorKind evaluator_kind_from_name(std::string_view name);

/// Complete, serializable definition of one experiment: search space,
/// evaluator, objective/reward, episode budgets and engine knobs. The
/// defaults are the paper's setting (Sec. IV: NACIM space, surrogate
/// evaluator, LCDA 20 / NACIM 500 episodes). Round-trips through
/// util::json_lite via config_to_json / config_from_json (scenario.h).
struct ExperimentConfig {
  llm::Objective objective = llm::Objective::kEnergy;

  /// Combined accuracy/energy/latency reward (RewardFunction::combined)
  /// instead of the paper's single-objective Eq. (1)/(2). `objective`
  /// still selects the metric surfaced in LLM prompts and Pareto plots.
  bool combined_reward = false;
  double energy_weight = 1.0;
  double latency_weight = 1.0;

  int lcda_episodes = 20;
  int nacim_episodes = 500;
  std::uint64_t seed = 1;
  search::SearchSpace::Options space;

  /// Evaluator choice plus the options of both kinds (only the selected
  /// kind's options are consulted at run time).
  EvaluatorKind evaluator_kind = EvaluatorKind::kSurrogate;
  SurrogateEvaluator::Options evaluator;
  TrainedEvaluator::Options trained;

  /// Evaluation-engine knobs. `parallelism` fans out both the episode
  /// batches inside one run and the seeds of run_aggregate/speedup_study
  /// (1 = sequential, 0 = one worker per hardware thread); results are
  /// bit-identical for every setting. `batch_size` caps the loop's
  /// per-round proposal batch (0 = the optimizer's natural batch).
  /// `pipeline_depth` lets the loop propose up to that many rounds ahead
  /// of in-flight evaluations when the optimizer permits (see
  /// CodesignLoop::Options::pipeline_depth; trace-invariant, 0 = off).
  int parallelism = 1;
  std::size_t batch_size = 0;
  std::size_t pipeline_depth = 8;
  bool cache_evaluations = true;

  /// Directory of the on-disk evaluation cache ("" = disabled). Entries
  /// are keyed by (study fingerprint, Design::hash), where the study
  /// fingerprint covers everything that shapes the evaluation stream
  /// (scenario.h: study_fingerprint), so repeated runs of the same study
  /// skip re-evaluation while traces stay bit-identical to a cold run.
  std::string persistent_cache_dir;

  /// On-disk store budget (0 = unlimited): entry and byte caps for the
  /// store directory, enforced oldest-first by the compaction a save
  /// triggers (store::Budget). Evicted entries are simply re-evaluated —
  /// deterministically, to the identical value — so the caps are
  /// trace-invariant.
  std::size_t persistent_cache_max_entries = 0;
  std::size_t persistent_cache_max_bytes = 0;

  /// Checkpoint root directory ("" = checkpointing off). Each run appends
  /// every finalized round to its own round log under
  /// `<dir>/<study fingerprint>` (never changing a trace byte). With
  /// `resume`, a run first replays the study's longest valid log, producing
  /// output byte-identical to an uninterrupted run; without a usable log it
  /// cold-starts. `checkpoint_every` sets no cadence — every round is
  /// logged — but 0 turns checkpointing off; it stays a config key because
  /// every fingerprint hashes the full key set. All three are
  /// engine knobs like `parallelism`: normalized away by the
  /// study/evaluation fingerprints.
  std::string checkpoint_dir;
  int checkpoint_every = 64;
  bool resume = false;
};

/// Which optimization strategy drives a run.
///
/// kLcdaFinetuned is the paper's unfulfilled future-work point (Sec. IV-B:
/// "A specific fine-tuning tailored to this task is necessary.
/// Unfortunately ... we are unable to present results"): the same LCDA
/// loop with a simulated LLM whose incorrect CiM kernel priors have been
/// corrected — what a task-fine-tuned model would know.
enum class Strategy {
  kLcda,
  kLcdaNaive,
  kLcdaFinetuned,
  kNacimRl,
  kGenetic,
  kNsga2,
  kAnnealing,
  kRandom,
};

[[nodiscard]] std::string_view strategy_name(Strategy s);

/// Parses a strategy from either its display name ("LCDA-naive", "NSGA-II")
/// or the CLI spelling ("naive", "nsga2"), case-insensitively; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Strategy strategy_from_name(std::string_view name);

/// Every strategy, in enum order (CLI listings, sweeps).
[[nodiscard]] const std::vector<Strategy>& all_strategies();

/// Parallelism knob for bench/example binaries: the LCDA_PARALLELISM
/// environment variable ("0" = auto = one worker per hardware thread),
/// falling back to `fallback` when unset or unparsable.
[[nodiscard]] int env_parallelism(int fallback = 1);

/// Builds the optimizer for a strategy over the config's space. LCDA
/// variants are wired to a fresh SimulatedGpt4 seeded from `config.seed`.
[[nodiscard]] std::unique_ptr<search::Optimizer> make_optimizer(
    Strategy strategy, const ExperimentConfig& config);

/// Builds the evaluator the config selects (surrogate or trained).
[[nodiscard]] std::unique_ptr<PerformanceEvaluator> make_evaluator(
    const ExperimentConfig& config);

/// Builds the reward function the config selects (single or combined).
[[nodiscard]] RewardFunction make_reward(const ExperimentConfig& config);

/// Default episode budget of a strategy under this config: the LCDA budget
/// for LLM-driven strategies, the NACIM budget for everything else.
[[nodiscard]] int default_episodes(Strategy strategy,
                                   const ExperimentConfig& config);

/// Runs one strategy for `episodes` episodes and returns the trace.
///
/// `evaluator` optionally supplies a shared PerformanceEvaluator instead of
/// constructing a fresh one: both shipped evaluators are thread-safe and
/// content-keyed, so multi-seed drivers (run_aggregate / speedup_study)
/// reuse one instance across every seed — the striped cost-plan memo then
/// warms up once instead of once per seed. Results are bit-identical
/// either way. The evaluator must match the config's evaluator settings;
/// nullptr keeps the self-contained behavior.
[[nodiscard]] RunResult run_strategy(Strategy strategy, int episodes,
                                     const ExperimentConfig& config,
                                     PerformanceEvaluator* evaluator = nullptr);

/// Speedup analysis behind the paper's headline claim (Sec. IV-A):
/// episodes each method needs to reach a comparable solution.
struct SpeedupReport {
  double threshold = 0.0;      ///< target reward (fraction of NACIM's best)
  int lcda_episodes = -1;      ///< episodes LCDA needed (-1 = never)
  int nacim_episodes = -1;     ///< episodes NACIM needed (-1 = never)
  double lcda_best = 0.0;
  double nacim_best = 0.0;
  /// Checkpoint-restored episodes summed over both runs (observability
  /// only; never serialized into the deterministic speedup document).
  std::int64_t resumed_episodes = 0;
  [[nodiscard]] double speedup() const {
    if (lcda_episodes <= 0 || nacim_episodes <= 0) return 0.0;
    return static_cast<double>(nacim_episodes) / lcda_episodes;
  }
};

/// Runs LCDA and NACIM with the config's episode budgets and measures the
/// episodes-to-threshold speedup. `threshold_fraction` defines "comparable
/// solution" as that fraction of NACIM's final best reward. `evaluator`
/// optionally shares one evaluator across both runs (see run_strategy).
[[nodiscard]] SpeedupReport measure_speedup(const ExperimentConfig& config,
                                            double threshold_fraction = 0.95,
                                            PerformanceEvaluator* evaluator = nullptr);

/// Writes a run as CSV rows (episode, accuracy, energy, latency, reward,
/// valid, design) — the exact series behind the paper's scatter plots.
void write_run_csv(std::ostream& os, const RunResult& run,
                   std::string_view label);

}  // namespace lcda::core
