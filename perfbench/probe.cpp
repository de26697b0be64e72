// lcda_perfbench — the benchmark's own probe (see perfbench/run.py).
//
//   lcda_perfbench trace [lcda_run study flags] --spans-out=FILE
//                        [--lcda-run=PATH] [--replay-lookups]
//   lcda_perfbench setup [lcda_run study flags] [--lcda-run=PATH]
//   lcda_perfbench exec REPORT -- PROGRAM [ARGS...]
//
// The study flags are the subset of lcda_run's command line the benchmark
// workloads use (--scenario, --strategy, --aggregate, --speedup, --seeds,
// --episodes, --seed, --set=K=V, --parallelism, --distribute, --cache-dir,
// --checkpoint-dir, --shard-dir, --json, --trace, --trace-spans,
// --metrics-out, --quiet), so run.py hands the traced run exactly the
// command line it times on lcda_run.
//
// `trace` runs that study through the library's public entry points with
// pass-through wrappers at every layer boundary — the LLM client, the
// optimizer, the evaluator, the checkpoint hooks, store open/save, the
// distributed plan/coordinator/merge and the report writers — recording
// one span per call in memory (name, start, end, parent, study). It writes
// the same --json/--trace/--trace-spans/--metrics-out files lcda_run
// writes (run.py checks their digests against the untraced run), the
// spans as CSV at exit, and one JSON line of per-layer metrics on stdout.
// Self time is a span's duration minus its children on the same thread.
//
// `setup` times the work a study does before its first episode — scenario
// resolution, evaluator, optimizer and LLM-client construction, store
// open — repeatedly for a short burst, and prints every sample. With
// --distribute the sample is a whole distributed study of one 1-episode
// seed per worker, which is dominated by the worker-pool spawn.
//
// `exec` runs PROGRAM, waits for it and writes its wall time, exit code and
// peak RSS (wait4: the program and every descendant it waited for) to
// REPORT. A child's peak RSS includes its parent's at the moment it was
// spawned, so the benchmark launches studies from this small process
// rather than from the Python interpreter.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/coordinator.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/reporter.h"
#include "lcda/obs/trace.h"
#include "lcda/store/eval_store.h"
#include "lcda/util/logging.h"
#include "lcda/util/strings.h"
#include "lcda/util/thread_pool.h"

namespace {

using namespace lcda;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ span recorder

struct SpanRecord {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t parent = -1;  ///< global span id, -1 = root
  int study = 0;
};

/// One log per thread that records spans, so wrappers shared by the seed
/// threads of an aggregate never contend: each thread appends to its own
/// vector, and the logs are read only after every pool thread has joined.
struct ThreadLog {
  std::int64_t thread = 0;
  std::vector<SpanRecord> spans;
  struct Frame {
    std::size_t index;
    std::int64_t child_ns;
    int study;
  };
  std::vector<Frame> open;
  std::map<std::string_view, long long> counts;
};

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder r;
    return r;
  }
  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<std::int64_t>(logs_.size() - 1);
      log->spans.reserve(1 << 16);
    }
    return *log;
  }
  /// Only valid once every recording thread has finished.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadLog>>& logs() const {
    return logs_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

constexpr int kThreadShift = 40;

void count(std::string_view name, long long n) {
  Recorder::instance().local().counts[name] += n;
}

/// RAII span. A span opened on a thread with no open span takes `parent`
/// (a span id from another thread) and `study` explicitly; nested spans
/// inherit both from the enclosing span on the same thread.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t parent = -1, int study = 0)
      : log_(&Recorder::instance().local()) {
    if (!log_->open.empty()) {
      parent = (log_->thread << kThreadShift) |
               static_cast<std::int64_t>(log_->open.back().index);
      study = log_->open.back().study;
    }
    index_ = log_->spans.size();
    log_->spans.push_back({name, now_ns(), 0, 0, parent, study});
    log_->open.push_back({index_, 0, study});
  }
  ~Scope() {
    SpanRecord& r = log_->spans[index_];
    r.end_ns = now_ns();
    const std::int64_t dur = r.end_ns - r.start_ns;
    r.self_ns = dur - log_->open.back().child_ns;
    log_->open.pop_back();
    if (!log_->open.empty()) log_->open.back().child_ns += dur;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const {
    return (log_->thread << kThreadShift) | static_cast<std::int64_t>(index_);
  }

 private:
  ThreadLog* log_;
  std::size_t index_ = 0;
};

struct SpanTotals {
  long long count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

struct Summary {
  std::map<std::string, SpanTotals> spans;
  std::map<std::string, long long> counts;

  [[nodiscard]] SpanTotals span(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  }
  [[nodiscard]] long long counter(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
  }
};

Summary summarize() {
  Summary s;
  for (const auto& log : Recorder::instance().logs()) {
    for (const SpanRecord& r : log->spans) {
      SpanTotals& t = s.spans[r.name];
      ++t.count;
      t.total_us += static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      t.self_us += static_cast<double>(r.self_ns) / 1e3;
    }
    for (const auto& [name, n] : log->counts) s.counts[std::string(name)] += n;
  }
  return s;
}

void write_spans(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "name,thread,index,parent,study,start_ns,end_ns,self_ns\n";
  for (const auto& log : Recorder::instance().logs()) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& r = log->spans[i];
      out << r.name << ',' << log->thread << ',' << i << ',' << r.parent << ','
          << r.study << ',' << r.start_ns << ',' << r.end_ns << ','
          << r.self_ns << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

// ------------------------------------------------------- layer wrappers

class TracedClient final : public llm::LlmClient {
 public:
  explicit TracedClient(std::shared_ptr<llm::LlmClient> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] llm::ChatResponse complete(
      const llm::ChatRequest& request) override {
    Scope span("llm.complete");
    return inner_->complete(request);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<llm::LlmClient> inner_;
};

/// LLM optimizers record their turns as llm.turn/llm.feedback, every other
/// strategy as opt.propose/opt.feedback.
class TracedOptimizer final : public search::Optimizer {
 public:
  TracedOptimizer(std::unique_ptr<search::Optimizer> inner, bool llm)
      : inner_(std::move(inner)),
        propose_(llm ? "llm.turn" : "opt.propose"),
        feedback_(llm ? "llm.feedback" : "opt.feedback") {}

  [[nodiscard]] search::Design propose(util::Rng& rng) override {
    Scope span(propose_);
    return inner_->propose(rng);
  }
  void feedback(const search::Observation& obs) override {
    Scope span(feedback_);
    inner_->feedback(obs);
  }
  void propose_batch_into(std::size_t n, util::Rng& rng,
                          std::vector<search::Design>& out) override {
    Scope span(propose_);
    inner_->propose_batch_into(n, rng, out);
  }
  void feedback_batch(std::span<const search::Observation> batch) override {
    Scope span(feedback_);
    inner_->feedback_batch(batch);
  }
  [[nodiscard]] std::size_t preferred_batch() const override {
    return inner_->preferred_batch();
  }
  bool serialize_state(std::string& out) const override {
    return inner_->serialize_state(out);
  }
  bool restore_state(std::string_view blob) override {
    return inner_->restore_state(blob);
  }
  [[nodiscard]] std::size_t pipeline_lookahead() const override {
    return inner_->pipeline_lookahead();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<search::Optimizer> inner_;
  const char* propose_;
  const char* feedback_;
};

/// Shared by every seed thread of a study: counts go to the calling
/// thread's log, so nothing here is shared mutable state.
class TracedEvaluator final : public core::PerformanceEvaluator {
 public:
  TracedEvaluator(std::unique_ptr<core::PerformanceEvaluator> inner,
                  bool trained)
      : inner_(std::move(inner)),
        span_(trained ? "nn.eval" : "surrogate.eval"),
        counter_(trained ? "nn.evals" : "surrogate.evals") {}

  [[nodiscard]] core::Evaluation evaluate(const search::Design& design,
                                          util::Rng& rng) override {
    Scope span(span_);
    count(counter_, 1);
    return inner_->evaluate(design, rng);
  }
  void evaluate_batch(std::span<core::EvalRequest> batch) override {
    Scope span(span_);
    count(counter_, static_cast<long long>(batch.size()));
    inner_->evaluate_batch(batch);
  }
  [[nodiscard]] bool replay_evaluation(const core::Evaluation& cached,
                                       util::Rng& rng,
                                       core::Evaluation& out) override {
    return inner_->replay_evaluation(cached, rng, out);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PerformanceEvaluator> inner_;
  const char* span_;
  const char* counter_;
};

// ------------------------------------------------------------ study flags

struct Cli {
  std::string mode;
  std::string scenario;
  std::string strategies;
  bool aggregate = false;
  bool speedup = false;
  int seeds = 1;
  int episodes = 0;
  long long seed = -1;
  std::vector<std::string> overrides;
  int parallelism = -1;
  int distribute = 0;
  std::string cache_dir;
  std::string checkpoint_dir;
  std::string shard_dir;
  std::string json_path;
  std::string trace_path;
  std::string trace_spans;
  std::string metrics_out;
  // Probe-only flags.
  std::string lcda_run;
  std::string spans_out;
  bool replay_lookups = false;
};

long long parse_number(const std::string& value, const char* flag,
                       long long min_value) {
  const auto parsed = util::parse_int(value);
  if (!parsed || *parsed < min_value) {
    throw std::invalid_argument(std::string("bad value for ") + flag + ": \"" +
                                value + "\"");
  }
  return *parsed;
}

bool flag_value(std::string_view arg, std::string_view name, std::string& out) {
  if (!util::starts_with(arg, name)) return false;
  out = std::string(arg.substr(name.size()));
  return true;
}

Cli parse_cli(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode (trace|setup)");
  Cli cli;
  cli.mode = argv[1];
  if (cli.mode != "trace" && cli.mode != "setup") {
    throw std::invalid_argument("unknown mode \"" + cli.mode + "\"");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string v;
    if (arg == "--aggregate") cli.aggregate = true;
    else if (arg == "--speedup") cli.speedup = true;
    else if (arg == "--quiet") {}
    else if (arg == "--replay-lookups") cli.replay_lookups = true;
    else if (flag_value(arg, "--scenario=", cli.scenario)) {}
    else if (flag_value(arg, "--strategy=", cli.strategies)) {}
    else if (flag_value(arg, "--cache-dir=", cli.cache_dir)) {}
    else if (flag_value(arg, "--checkpoint-dir=", cli.checkpoint_dir)) {}
    else if (flag_value(arg, "--shard-dir=", cli.shard_dir)) {}
    else if (flag_value(arg, "--json=", cli.json_path)) {}
    else if (flag_value(arg, "--trace-spans=", cli.trace_spans)) {}
    else if (flag_value(arg, "--trace=", cli.trace_path)) {}
    else if (flag_value(arg, "--metrics-out=", cli.metrics_out)) {}
    else if (flag_value(arg, "--lcda-run=", cli.lcda_run)) {}
    else if (flag_value(arg, "--spans-out=", cli.spans_out)) {}
    else if (flag_value(arg, "--set=", v)) cli.overrides.push_back(v);
    else if (flag_value(arg, "--seeds=", v)) {
      cli.seeds = static_cast<int>(parse_number(v, "--seeds", 1));
    } else if (flag_value(arg, "--episodes=", v)) {
      cli.episodes = static_cast<int>(parse_number(v, "--episodes", 1));
    } else if (flag_value(arg, "--seed=", v)) {
      cli.seed = parse_number(v, "--seed", 0);
    } else if (flag_value(arg, "--parallelism=", v)) {
      cli.parallelism = static_cast<int>(parse_number(v, "--parallelism", 1));
    } else if (flag_value(arg, "--distribute=", v)) {
      cli.distribute = static_cast<int>(parse_number(v, "--distribute", 1));
    } else {
      throw std::invalid_argument("unknown argument \"" + std::string(arg) +
                                  "\"");
    }
  }
  if (cli.scenario.empty()) throw std::invalid_argument("--scenario is required");
  if (cli.parallelism < 1) {
    throw std::invalid_argument("an explicit --parallelism >= 1 is required");
  }
  if (cli.aggregate && cli.speedup) {
    throw std::invalid_argument("--aggregate and --speedup are exclusive");
  }
  if (cli.speedup != (cli.distribute > 0)) {
    throw std::invalid_argument(
        "workloads run --speedup distributed and everything else in-process");
  }
  if (cli.distribute > 0 && (cli.lcda_run.empty() || cli.shard_dir.empty())) {
    throw std::invalid_argument("--distribute needs --lcda-run and --shard-dir");
  }
  return cli;
}

/// lcda_run's scenario resolution, flag for flag.
core::Scenario resolve_scenario(const Cli& cli) {
  core::Scenario scenario = core::scenario_by_name(cli.scenario);
  for (const std::string& kv : cli.overrides) {
    core::apply_override(scenario.config, kv);
  }
  if (cli.seed >= 0) scenario.config.seed = static_cast<std::uint64_t>(cli.seed);
  scenario.config.parallelism = cli.parallelism;
  if (!cli.cache_dir.empty()) scenario.config.persistent_cache_dir = cli.cache_dir;
  if (!cli.checkpoint_dir.empty()) scenario.config.checkpoint_dir = cli.checkpoint_dir;
  return scenario;
}

std::vector<dist::StrategyStudy> resolve_studies(const Cli& cli,
                                                 const core::Scenario& scenario) {
  std::vector<core::Strategy> strategies;
  if (cli.strategies.empty()) {
    strategies.push_back(scenario.default_strategy);
  } else {
    for (const std::string& name : util::split(cli.strategies, ',')) {
      strategies.push_back(core::strategy_from_name(util::trim(name)));
    }
  }
  std::vector<dist::StrategyStudy> studies;
  for (core::Strategy s : strategies) {
    studies.push_back({s, cli.episodes > 0
                              ? cli.episodes
                              : core::default_episodes(s, scenario.config)});
  }
  return studies;
}

bool is_llm(core::Strategy s) {
  return s == core::Strategy::kLcda || s == core::Strategy::kLcdaNaive ||
         s == core::Strategy::kLcdaFinetuned;
}

store::EvalStore::Options store_options(const core::ExperimentConfig& config,
                                        core::Strategy strategy, int episodes) {
  store::EvalStore::Options o;
  o.directory = config.persistent_cache_dir;
  o.eval_fingerprint = core::evaluation_fingerprint(config);
  o.stream_fingerprint = core::stream_fingerprint(config, strategy, episodes);
  o.legacy_fingerprint = core::study_fingerprint(config, strategy, episodes);
  o.budget = store::Budget{config.persistent_cache_max_entries,
                           config.persistent_cache_max_bytes};
  return o;
}

// ------------------------------------------------------------ traced study

/// core::make_optimizer with the LLM client and the optimizer wrapped.
/// `llm_out` receives the LlmOptimizer (for its transcript) when the
/// strategy is LLM-driven.
std::unique_ptr<search::Optimizer> traced_optimizer(
    core::Strategy strategy, const core::ExperimentConfig& config,
    const llm::LlmOptimizer** llm_out) {
  if (!is_llm(strategy)) {
    return std::make_unique<TracedOptimizer>(
        core::make_optimizer(strategy, config), false);
  }
  llm::SimulatedGpt4::Options gpt;
  gpt.seed = util::hash_combine(config.seed, 0x69f7);
  gpt.wrong_cim_kernel_priors = strategy != core::Strategy::kLcdaFinetuned;
  auto client = std::make_shared<TracedClient>(
      std::make_shared<llm::SimulatedGpt4>(gpt));
  llm::LlmOptimizer::Options opts;
  opts.prompt.objective = config.objective;
  opts.prompt.codesign_context = strategy != core::Strategy::kLcdaNaive;
  auto llm = std::make_unique<llm::LlmOptimizer>(
      search::SearchSpace(config.space), std::move(client), opts);
  *llm_out = llm.get();
  return std::make_unique<TracedOptimizer>(std::move(llm), true);
}

std::unique_ptr<core::PerformanceEvaluator> traced_evaluator(
    const core::ExperimentConfig& config) {
  const bool trained = config.evaluator_kind == core::EvaluatorKind::kTrained;
  Scope span(trained ? "data.setup" : "eval.setup");
  return std::make_unique<TracedEvaluator>(core::make_evaluator(config), trained);
}

/// core::run_strategy, step for step, with every layer call wrapped.
core::RunResult traced_run(core::Strategy strategy, int episodes,
                           const core::ExperimentConfig& config,
                           core::PerformanceEvaluator& evaluator,
                           std::int64_t parent, int study, bool replay_lookups) {
  Scope run_span("core.run", parent, study);
  const llm::LlmOptimizer* llm = nullptr;
  auto optimizer = traced_optimizer(strategy, config, &llm);
  core::RewardFunction reward = core::make_reward(config);
  core::CodesignLoop::Options opts;
  opts.episodes = episodes;
  opts.parallelism = config.parallelism;
  opts.batch_size = config.batch_size;
  opts.pipeline_depth = config.pipeline_depth;
  opts.cache_evaluations = config.cache_evaluations;

  std::unique_ptr<store::EvalStore> pstore;
  if (!config.persistent_cache_dir.empty()) {
    Scope span("store.open");
    pstore = std::make_unique<store::EvalStore>(
        store_options(config, strategy, episodes));
    opts.persistent_store = pstore.get();
  }

  std::unique_ptr<ckpt::RunCheckpointer> checkpointer;
  if (!config.checkpoint_dir.empty() && config.checkpoint_every > 0) {
    std::string probe;
    if (!optimizer->serialize_state(probe)) {
      util::warn_once("ckpt-unsupported:" +
                          std::string(core::strategy_name(strategy)),
                      "core",
                      "strategy does not support checkpointing; running "
                      "without it");
    } else {
      ckpt::RunCheckpointer::Options copts;
      copts.directory = config.checkpoint_dir;
      copts.identity = core::study_fingerprint(config, strategy, episodes);
      checkpointer = std::make_unique<ckpt::RunCheckpointer>(copts);
      opts.checkpoint_every = config.checkpoint_every;
      opts.on_snapshot = [cp = checkpointer.get()](const core::LoopSnapshot& s) {
        Scope span("ckpt.snapshot");
        cp->on_snapshot(s);
      };
      opts.on_round = [cp = checkpointer.get()](const core::RoundDelta& d) {
        Scope span("ckpt.round");
        cp->on_round(d);
      };
    }
  }

  core::CodesignLoop loop(*optimizer, evaluator, reward, opts);
  util::Rng rng(util::hash_combine(config.seed,
                                   static_cast<std::uint64_t>(strategy) + 101));
  core::RunResult result = [&] {
    Scope span("core.loop");
    return loop.run(rng);
  }();
  count("core.episodes", static_cast<long long>(result.episodes.size()));
  count(is_llm(strategy) ? "llm.episodes" : "opt.episodes",
        static_cast<long long>(result.episodes.size()));
  count("core.cache_hits", result.cache_hits);
  if (llm != nullptr) {
    for (const llm::LlmOptimizer::Exchange& ex : llm->transcript()) {
      count("llm.exchanges", 1);
      count("llm.parse_ok", ex.parsed_ok ? 1 : 0);
    }
  }
  if (pstore) {
    {
      Scope span("store.save");
      pstore->save();
    }
    result.persistent_evictions = static_cast<std::int64_t>(pstore->evictions());
    result.persistent_skipped = static_cast<std::int64_t>(pstore->skipped_files());
    result.persistent_save_failures =
        static_cast<std::int64_t>(pstore->save_failures());
    const store::EvalStore::Metrics& m = pstore->metrics();
    result.store.hits = static_cast<std::int64_t>(m.hits);
    result.store.misses = static_cast<std::int64_t>(m.misses);
    result.store.shared_hits = static_cast<std::int64_t>(m.shared_hits);
    result.store.shared_misses = static_cast<std::int64_t>(m.shared_misses);
    result.store.bytes_read = static_cast<std::int64_t>(m.bytes_read);
    result.store.bytes_published = static_cast<std::int64_t>(m.bytes_published);
    count("store.hits", result.store.hits);
    count("store.misses", result.store.misses);
    count("store.bytes_read", result.store.bytes_read);
    count("store.bytes_published", result.store.bytes_published);
  }
  if (checkpointer) count("ckpt.snapshots", checkpointer->snapshots_written());

  // EvalStore::lookup replayed from outside the loop on the store this run
  // just used, capped so the replay stays a small share of the pass.
  if (pstore && replay_lookups) {
    const store::EvalStore reader(store_options(config, strategy, episodes));
    const std::size_t n = std::min<std::size_t>(result.episodes.size(), 1000);
    Scope span("store.lookup");
    for (std::size_t i = 0; i < n; ++i) {
      (void)reader.lookup(result.episodes[i].design.hash());
    }
    count("store.lookups", static_cast<long long>(n));
  }
  return result;
}

/// core::run_aggregate with the traced run, seeds fanned over the same pool.
core::AggregateResult traced_aggregate(core::Strategy strategy, int episodes,
                                       int seeds,
                                       const core::ExperimentConfig& config,
                                       int study, bool replay_lookups) {
  Scope study_span("core.study", -1, study);
  core::AggregateResult agg;
  agg.strategy = strategy;
  agg.episodes = episodes;
  agg.seeds = seeds;
  agg.threshold = std::numeric_limits<double>::quiet_NaN();
  agg.running_best.resize(static_cast<std::size_t>(episodes));

  std::vector<core::RunResult> runs(static_cast<std::size_t>(seeds));
  const auto evaluator = traced_evaluator(config);
  const int par = util::ThreadPool::resolve_parallelism(config.parallelism);
  const auto pool = par > 1 ? std::make_unique<util::ThreadPool>(par) : nullptr;
  const std::int64_t parent = study_span.id();
  util::parallel_for_each_index(
      pool.get(), static_cast<std::size_t>(seeds), [&](std::size_t s) {
        runs[s] = traced_run(
            strategy, episodes,
            core::aggregate_seed_config(config, static_cast<int>(s), seeds),
            *evaluator, parent, study, replay_lookups);
      });

  for (const core::RunResult& run : runs) {
    const auto rmax = run.reward_running_max();
    for (int e = 0; e < episodes; ++e) {
      agg.running_best[static_cast<std::size_t>(e)].add(
          rmax[static_cast<std::size_t>(e)]);
    }
    agg.final_best.add(run.best_reward());
    agg.cache_hits += run.cache_hits;
    agg.cache_misses += run.cache_misses;
    agg.persistent_hits += run.persistent_hits;
    agg.persistent_shared_hits += run.persistent_shared_hits;
    agg.persistent_skipped += run.persistent_skipped;
    agg.persistent_save_failures += run.persistent_save_failures;
    agg.resumed_episodes += run.resumed_episodes;
  }
  return agg;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

void run_aggregate_study(const Cli& cli, const core::Scenario& scenario) {
  std::vector<core::AggregateResult> aggregates;
  int study = 0;
  for (const dist::StrategyStudy& s : resolve_studies(cli, scenario)) {
    aggregates.push_back(traced_aggregate(s.strategy, s.episodes, cli.seeds,
                                          scenario.config, study++,
                                          cli.replay_lookups));
  }
  Scope span("core.report");
  if (!cli.trace_path.empty()) {
    std::ofstream out = open_out(cli.trace_path);
    for (const core::AggregateResult& agg : aggregates) {
      core::write_aggregate_csv(out, agg, core::strategy_name(agg.strategy));
    }
  }
  if (!cli.json_path.empty()) {
    util::Json doc = util::Json::object();
    doc["experiment"] = scenario.name;
    doc["seed"] = static_cast<long long>(scenario.config.seed);
    doc["seeds"] = cli.seeds;
    util::Json arr = util::Json::array();
    for (const core::AggregateResult& agg : aggregates) {
      arr.push_back(core::aggregate_to_json(agg));
    }
    doc["aggregates"] = arr;
    doc["scenario"] = core::scenario_to_json(scenario);
    core::write_json_file(doc, cli.json_path);
  }
}

void run_runs_study(const Cli& cli, const core::Scenario& scenario) {
  struct Completed {
    std::string label;
    core::RunResult run;
  };
  std::vector<Completed> completed;
  int study = 0;
  for (const dist::StrategyStudy& s : resolve_studies(cli, scenario)) {
    for (int k = 0; k < cli.seeds; ++k) {
      Scope study_span("core.study", -1, study);
      core::ExperimentConfig config = scenario.config;
      config.seed = scenario.config.seed + static_cast<std::uint64_t>(k);
      const auto evaluator = traced_evaluator(config);
      completed.push_back(
          {std::string(core::strategy_name(s.strategy)) + "/seed" +
               std::to_string(config.seed),
           traced_run(s.strategy, s.episodes, config, *evaluator, -1, study,
                      cli.replay_lookups)});
    }
    ++study;
  }
  Scope span("core.report");
  if (!cli.trace_path.empty()) {
    std::ofstream out = open_out(cli.trace_path);
    for (const Completed& c : completed) core::write_run_csv(out, c.run, c.label);
  }
  if (!cli.json_path.empty()) {
    std::vector<core::LabelledRun> labelled;
    for (const Completed& c : completed) labelled.push_back({c.label, &c.run});
    util::Json doc =
        core::experiment_to_json(scenario.name, scenario.config.seed, labelled);
    doc["scenario"] = core::scenario_to_json(scenario);
    core::write_json_file(doc, cli.json_path);
  }
}

/// What a distributed speedup study reports beyond its output files.
struct DistOutcome {
  std::vector<core::SpeedupReport> reports;
  dist::Coordinator::Stats stats;
  std::size_t final_specs = 0;
  long long trace_events = 0;
};

/// lcda_run's distributed speedup path: plan, coordinate, merge, then the
/// observability export (worker timelines gathered into one document).
DistOutcome run_distributed_speedup(const Cli& cli, const core::Scenario& scenario,
                                    int seeds, const std::string& shard_dir,
                                    bool write_outputs) {
  DistOutcome out;
  std::vector<dist::ShardSpec> specs;
  {
    Scope span("dist.plan");
    specs = dist::plan_shards(scenario, dist::ShardMode::kSpeedup,
                              {{core::Strategy::kLcda, 0}}, seeds,
                              cli.distribute,
                              std::numeric_limits<double>::quiet_NaN(), 0.95);
  }
  dist::Coordinator::Options opts;
  opts.worker_command = {cli.lcda_run};
  opts.shard_dir = shard_dir;
  opts.max_parallel = cli.distribute;
  opts.verbose = false;
  opts.trace_spans = !cli.trace_spans.empty();
  dist::Coordinator coordinator(opts);
  {
    Scope span("dist.coordinator");
    coordinator.run(specs);
  }
  out.stats = coordinator.stats();
  out.final_specs = specs.size();

  std::vector<util::Json> manifests;
  obs::MetricsSnapshot snapshot;
  {
    Scope span("dist.merge");
    for (const dist::ShardSpec& spec : specs) {
      manifests.push_back(dist::load_shard_manifest(spec));
    }
    for (const util::Json& manifest : manifests) {
      if (manifest.contains("obs")) {
        snapshot.merge(obs::MetricsSnapshot::from_json(manifest.at("obs")));
      }
    }
    snapshot.merge(obs::Registry::instance().snapshot());
    out.reports = dist::merge_speedup(specs, manifests);
  }
  if (!write_outputs) return out;

  {
    Scope span("core.report");
    if (!cli.trace_path.empty()) {
      std::ofstream csv = open_out(cli.trace_path);
      core::write_speedup_csv(csv, out.reports, scenario.name);
    }
    if (!cli.json_path.empty()) {
      util::Json doc = util::Json::object();
      doc["experiment"] = scenario.name;
      doc["seed"] = static_cast<long long>(scenario.config.seed);
      doc["speedup_study"] = core::speedup_study_to_json(out.reports);
      doc["scenario"] = core::scenario_to_json(scenario);
      core::write_json_file(doc, cli.json_path);
    }
  }
  if (!cli.trace_spans.empty()) {
    Scope span("obs.export");
    util::Json doc = obs::SpanTracer::instance().export_chrome(0, "coordinator");
    util::Json& events = doc["traceEvents"];
    for (const dist::Coordinator::ShardStats& s : out.stats.shards) {
      for (int a = 0; a <= s.attempts; ++a) {
        std::ifstream in(shard_dir + "/shard-" + std::to_string(s.index) +
                         "-trace-a" + std::to_string(a) + ".json");
        if (!in) continue;
        std::ostringstream buf;
        buf << in.rdbuf();
        obs::append_chrome_events(events, util::Json::parse(buf.str()),
                                  1 + s.index,
                                  "worker shard " + std::to_string(s.index));
      }
    }
    out.trace_events = static_cast<long long>(events.size());
    obs::write_trace_file(doc, cli.trace_spans);
  }
  if (!cli.metrics_out.empty()) obs::write_metrics_file(snapshot, cli.metrics_out);
  return out;
}

void arm_product_observability(const Cli& cli) {
  // Same arming rule as lcda_run: distributed runs always meter.
  if (!cli.metrics_out.empty() || !cli.trace_spans.empty() || cli.distribute > 0) {
    obs::Registry::instance().enable();
  }
  if (!cli.trace_spans.empty()) obs::SpanTracer::instance().enable();
}

long long dir_bytes(const std::string& dir) {
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  long long total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<long long>(e.file_size(ec));
  }
  return total;
}

long long dir_files(const std::string& dir) {
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  long long n = 0;
  for (const auto& e : fs::directory_iterator(dir, ec)) n += e.is_regular_file(ec);
  return n;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_trace(const Cli& cli) {
  arm_product_observability(cli);
  const std::int64_t t0 = now_ns();
  const core::Scenario scenario = resolve_scenario(cli);
  DistOutcome dist_out;
  if (cli.distribute > 0) {
    dist_out = run_distributed_speedup(cli, scenario, cli.seeds, cli.shard_dir, true);
  } else if (cli.aggregate) {
    run_aggregate_study(cli, scenario);
  } else {
    run_runs_study(cli, scenario);
  }
  const double pass_us = static_cast<double>(now_ns() - t0) / 1e3;
  const Summary s = summarize();

  const SpanTotals turn = s.span("llm.turn");
  const SpanTotals llm_feedback = s.span("llm.feedback");
  const SpanTotals complete = s.span("llm.complete");
  const SpanTotals propose = s.span("opt.propose");
  const SpanTotals feedback = s.span("opt.feedback");
  const SpanTotals surrogate = s.span("surrogate.eval");
  const SpanTotals nn = s.span("nn.eval");
  const SpanTotals loop = s.span("core.loop");
  const double episodes = static_cast<double>(s.counter("core.episodes"));
  const double opt_episodes = static_cast<double>(s.counter("opt.episodes"));
  const double store_lookups = static_cast<double>(s.counter("store.hits") +
                                                   s.counter("store.misses"));
  const SpanTotals lookup = s.span("store.lookup");
  const SpanTotals snap = s.span("ckpt.snapshot");
  const SpanTotals round = s.span("ckpt.round");
  const SpanTotals open = s.span("store.open");
  const SpanTotals save = s.span("store.save");
  const SpanTotals coord = s.span("dist.coordinator");
  double slowest_shard_ms = 0.0;
  for (const auto& shard : dist_out.stats.shards) {
    slowest_shard_ms = std::max(slowest_shard_ms, shard.wall_ms);
  }

  util::Json m = util::Json::object();
  m["llm.turn_us"] = ratio(turn.total_us, static_cast<double>(turn.count));
  m["llm.complete_us"] = ratio(complete.total_us, static_cast<double>(complete.count));
  m["llm.prompt_parse_us"] = ratio(turn.self_us, static_cast<double>(turn.count));
  m["llm.turns"] = turn.count;
  m["llm.parse_ok_ratio"] =
      ratio(static_cast<double>(s.counter("llm.parse_ok")),
            static_cast<double>(s.counter("llm.exchanges")));
  m["llm.loop_share"] = ratio(turn.total_us + llm_feedback.total_us, loop.total_us);
  m["search.propose_us"] = ratio(propose.total_us, opt_episodes);
  m["search.feedback_us"] = ratio(feedback.total_us, opt_episodes);
  m["surrogate.eval_us"] =
      ratio(surrogate.total_us, static_cast<double>(s.counter("surrogate.evals")));
  m["surrogate.evals"] = s.counter("surrogate.evals");
  m["core.cache_hit_ratio"] =
      ratio(static_cast<double>(s.counter("core.cache_hits")), episodes);
  m["nn.eval_us"] = ratio(nn.total_us, static_cast<double>(s.counter("nn.evals")));
  m["nn.study_share"] = ratio(nn.total_us, pass_us);
  m["data.setup_ms"] = ratio(s.span("data.setup").total_us / 1e3,
                             static_cast<double>(s.span("data.setup").count));
  m["core.loop_self_us"] = ratio(loop.self_us, episodes);
  m["core.report_ms"] = s.span("core.report").total_us / 1e3;
  m["store.open_us"] = ratio(open.total_us, static_cast<double>(open.count));
  m["store.save_ms"] = ratio(save.total_us / 1e3, static_cast<double>(save.count));
  m["store.lookup_us"] =
      ratio(lookup.total_us, static_cast<double>(s.counter("store.lookups")));
  m["store.hit_ratio"] = ratio(static_cast<double>(s.counter("store.hits")), store_lookups);
  m["store.bytes_published"] = s.counter("store.bytes_published");
  m["store.bytes_read"] = s.counter("store.bytes_read");
  m["store.segments"] =
      cli.cache_dir.empty() ? 0 : dir_files(cli.cache_dir + "/segments");
  m["ckpt.snapshot_us"] = ratio(snap.total_us, static_cast<double>(snap.count));
  m["ckpt.round_us"] = ratio(round.total_us, static_cast<double>(round.count));
  m["ckpt.snapshots"] = s.counter("ckpt.snapshots");
  m["ckpt.bytes"] = dir_bytes(cli.checkpoint_dir);
  m["dist.coordinator_s"] = coord.total_us / 1e6;
  m["dist.overhead_ms"] =
      coord.count > 0 ? coord.total_us / 1e3 - slowest_shard_ms : 0.0;
  m["dist.plan_ms"] = s.span("dist.plan").total_us / 1e3;
  m["dist.merge_ms"] = s.span("dist.merge").total_us / 1e3;
  m["dist.retries"] = dist_out.stats.retries;
  m["dist.steals"] = dist_out.stats.steals;
  m["dist.useful_attempt_ratio"] =
      ratio(static_cast<double>(dist_out.final_specs),
            static_cast<double>(dist_out.stats.spawned));
  m["obs.export_ms"] = s.span("obs.export").total_us / 1e3;
  m["obs.events"] = dist_out.trace_events;
  std::error_code ec;
  const auto trace_bytes =
      cli.trace_spans.empty() ? 0 : fs::file_size(cli.trace_spans, ec);
  m["obs.trace_mb"] = ec ? 0.0 : static_cast<double>(trace_bytes) / 1048576.0;

  if (!cli.spans_out.empty()) write_spans(cli.spans_out);
  std::printf("%s\n", m.dump().c_str());
  return 0;
}

// ------------------------------------------------------------------ setup

/// One set-up sample: everything a study constructs before its first
/// episode, built and then released outside the timed window.
double setup_sample(const Cli& cli) {
  std::vector<std::unique_ptr<core::PerformanceEvaluator>> evaluators;
  std::vector<std::unique_ptr<search::Optimizer>> optimizers;
  std::vector<std::unique_ptr<store::EvalStore>> stores;
  const std::int64_t t0 = now_ns();
  const core::Scenario scenario = resolve_scenario(cli);
  for (const dist::StrategyStudy& s : resolve_studies(cli, scenario)) {
    if (cli.aggregate) evaluators.push_back(core::make_evaluator(scenario.config));
    for (int k = 0; k < cli.seeds; ++k) {
      core::ExperimentConfig config = scenario.config;
      if (cli.aggregate) {
        config = core::aggregate_seed_config(scenario.config, k, cli.seeds);
      } else {
        config.seed = scenario.config.seed + static_cast<std::uint64_t>(k);
        evaluators.push_back(core::make_evaluator(config));
      }
      optimizers.push_back(core::make_optimizer(s.strategy, config));
      if (!config.persistent_cache_dir.empty()) {
        stores.push_back(std::make_unique<store::EvalStore>(
            store_options(config, s.strategy, s.episodes)));
      }
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// A distributed study of one 1-episode seed per worker, so it starts the
/// same pool as the timed study: pool spawn, dispatch, merge.
double setup_sample_distributed(const Cli& cli, int index) {
  const std::string shard_dir = cli.shard_dir + "-setup-" + std::to_string(index);
  const std::int64_t t0 = now_ns();
  core::Scenario scenario = resolve_scenario(cli);
  core::apply_override(scenario.config, "lcda_episodes=1");
  core::apply_override(scenario.config, "nacim_episodes=1");
  (void)run_distributed_speedup(cli, scenario, cli.distribute, shard_dir, false);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  std::error_code ec;
  fs::remove_all(shard_dir, ec);
  return s;
}

int run_setup(const Cli& cli) {
  arm_product_observability(cli);
  util::Json samples = util::Json::array();
  // run.py takes a burst after every timed study, so the set-up median
  // spans the whole run like the study timings do: one long burst would
  // see only the machine's speed of that one moment.
  constexpr std::int64_t kBurstNs = 200 * 1000000LL;
  const std::int64_t deadline = now_ns() + kBurstNs;
  constexpr int kMinSamples = 3;
  constexpr int kMaxSamples = 400;
  for (int i = 0; i < kMaxSamples; ++i) {
    if (i >= kMinSamples && now_ns() >= deadline) break;
    samples.push_back(cli.distribute > 0 ? setup_sample_distributed(cli, i)
                                         : setup_sample(cli));
  }
  util::Json out = util::Json::object();
  out["samples"] = samples;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int run_exec(int argc, char** argv) {
  if (argc < 5 || std::string_view(argv[3]) != "--") {
    throw std::invalid_argument("usage: exec REPORT -- PROGRAM [ARGS...]");
  }
  const std::int64_t t0 = now_ns();
  pid_t pid = 0;
  if (const int err = ::posix_spawnp(&pid, argv[4], nullptr, nullptr, argv + 4,
                                     environ)) {
    throw std::runtime_error(std::string("cannot spawn ") + argv[4] + ": " +
                             std::strerror(err));
  }
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  util::Json report = util::Json::object();
  report["wall_s"] = wall_s;
  report["exit_code"] = code;
  report["maxrss_kb"] = static_cast<long long>(usage.ru_maxrss);
  std::ofstream out(argv[2], std::ios::trunc);
  out << report.dump() << '\n';
  if (!out.flush()) throw std::runtime_error(std::string("cannot write ") + argv[2]);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string_view(argv[1]) == "exec") return run_exec(argc, argv);
    const Cli cli = parse_cli(argc, argv);
    return cli.mode == "trace" ? run_trace(cli) : run_setup(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcda_perfbench: %s\n", e.what());
    return 1;
  }
}
