// lcda_run — the scenario-driven experiment CLI.
//
// Every study in this repository is data: a named Scenario (search space,
// evaluator, objective/reward, noise setting, episode budgets) pulled from
// the registry or a JSON file, crossed with one or more strategies and
// seeds. This binary can therefore reproduce any figure of the paper and
// sweep any scenario x strategy grid without writing a new program.
//
//   lcda_run --list
//   lcda_run --scenario=paper-energy --strategy=lcda --seeds=2
//   lcda_run --scenario=paper-latency --strategy=lcda,nacim --json=out.json
//   lcda_run --scenario=tight-area --set space.area_budget_mm2=15
//   lcda_run --scenario-file=my_study.json --trace=trace.csv
//   lcda_run --scenario=paper-energy --aggregate --seeds=8 --json=agg.json
//   lcda_run --scenario=paper-energy --speedup --seeds=4 --trace=speedup.csv
//   lcda_run --scenario=paper-energy --aggregate --seeds=8 --distribute=2
//
// The flags are declared once, in kFlags below: every argument error prints
// the usage text generated from it (run lcda_run with no arguments to see
// it), which lists each flag with the mode or flag it requires. Argument
// errors exit 2; README "Scenarios: experiments as data" and "Scaling out"
// describe the modes in depth.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "lcda/core/report.h"
#include "lcda/store/eval_store.h"
#include "lcda/core/scenario.h"
#include "lcda/core/stats_runner.h"
#include "lcda/dist/coordinator.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/shard.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/reporter.h"
#include "lcda/obs/trace.h"
#include "lcda/util/mmap_file.h"
#include "lcda/util/strings.h"
#include "lcda/util/subprocess.h"
#include "lcda/util/thread_pool.h"

namespace {

using namespace lcda;

/// ", N shared" when cross-study reuse happened, "" otherwise — existing
/// cache summary lines (and everything that greps them) stay unchanged
/// until the store actually shares across studies.
std::string shared_hits_suffix(long long shared) {
  return shared > 0 ? ", " + std::to_string(shared) + " shared" : std::string();
}

struct CliOptions {
  bool list = false;
  bool print_config = false;
  bool quiet = false;
  bool aggregate = false;
  bool speedup = false;
  std::string scenario;
  std::string scenario_file;
  std::string scenario_dir;
  std::string strategies;
  std::string cache_dir;
  std::string checkpoint_dir;
  bool resume = false;
  std::string json_path;
  std::string trace_path;
  std::string trace_spans;      // --trace-spans: Chrome trace-event JSON
  std::string metrics_out;      // --metrics-out: final snapshot JSON
  double metrics_interval = 0.0;  // --metrics-interval: stderr heartbeat
  std::string shard_dir;        // --distribute: where shard files live
  bool store_compact = false;   // store maintenance modes (need --cache-dir)
  bool store_fsck = false;
  long long store_buckets = 16;
  long long store_max_entries = 0;
  long long store_max_bytes = 0;
  bool worker_loop = false;     // internal --worker-loop mode
  std::vector<std::string> overrides;
  int episodes = 0;  // 0 = scenario default
  int seeds = 1;
  long long seed = -1;          // -1 = scenario default
  int parallelism = -1;         // -1 = environment default
  int distribute = 0;           // 0 = in-process; N = worker processes
  int max_retries = 2;          // per-shard retry budget (--distribute)
  bool keep_shard_dir = false;  // keep the auto temp shard dir
  bool no_steal = false;        // disable straggler work stealing
  double threshold = std::numeric_limits<double>::quiet_NaN();
  double threshold_fraction = 0.95;
};

/// A study: a runs, --aggregate or --speedup invocation, as opposed to
/// listing, printing a config or maintaining the store.
bool is_study(const CliOptions& cli) {
  return !cli.list && !cli.print_config && !cli.store_compact && !cli.store_fsck;
}

/// The resolved scenario config; null when the mode has no scenario.
using Config = const core::ExperimentConfig*;

/// The one mode or flag a flag requires, checked once the command line
/// and the scenario, if the mode has one, are resolved.
struct Requirement {
  const char* text;
  bool (*met)(const CliOptions&, Config);
};

constexpr Requirement kOneMode{"no other mode", [](const CliOptions& c, Config) {
  return c.list + c.print_config + c.aggregate + c.speedup +
             (c.store_compact || c.store_fsck) == 1;
}};
constexpr Requirement kStudy{
    "a study", [](const CliOptions& c, Config) { return is_study(c); }};
constexpr Requirement kStrategyStudy{
    "a study without --speedup",
    [](const CliOptions& c, Config) { return is_study(c) && !c.speedup; }};
constexpr Requirement kAggregate{
    "--aggregate", [](const CliOptions& c, Config) { return c.aggregate; }};
constexpr Requirement kSpeedup{
    "--speedup", [](const CliOptions& c, Config) { return c.speedup; }};
constexpr Requirement kDistribute{
    "--distribute", [](const CliOptions& c, Config) { return c.distribute > 0; }};
constexpr Requirement kCacheDir{
    "--cache-dir", [](const CliOptions& c, Config) { return !c.cache_dir.empty(); }};
constexpr Requirement kStoreCompact{
    "--store-compact", [](const CliOptions& c, Config) { return c.store_compact; }};
constexpr Requirement kCheckpointDir{
    "--checkpoint-dir or a scenario checkpoint_dir",
    [](const CliOptions& c, Config config) {
      return !(config != nullptr ? config->checkpoint_dir : c.checkpoint_dir).empty();
    }};

/// Where a flag's value lands. The member's type is the value's kind: a
/// switch, a text, a repeatable text, an integer or a finite number.
using Target = std::variant<bool CliOptions::*, std::string CliOptions::*,
                            std::vector<std::string> CliOptions::*,
                            int CliOptions::*, long long CliOptions::*,
                            double CliOptions::*>;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A lower bound that reads "> 0" rather than ">= 0".
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

struct Flag {
  std::string_view spelling;  ///< "--name", or "--name=PLACEHOLDER"
  Target target;
  const Requirement* needs;   ///< null: valid in every mode
  std::string_view help;      ///< "" keeps an internal flag out of usage
  double lo = -kInf;          ///< inclusive bounds of a number; integers
  double hi = kInf;           ///< also end at their member type's maximum

  [[nodiscard]] std::string_view name() const {
    return spelling.substr(0, spelling.find('='));
  }
};

/// Every flag lcda_run accepts: parsing, the requirement checks and the
/// usage text all read this table.
constexpr Flag kFlags[] = {
    {"--list", &CliOptions::list, &kOneMode,
     "list the registered scenarios and exit"},
    {"--print-config", &CliOptions::print_config, &kOneMode,
     "print the resolved scenario as JSON and exit"},
    {"--scenario=NAME", &CliOptions::scenario, nullptr,
     "registry scenario to use (see --list)"},
    {"--scenario-file=PATH", &CliOptions::scenario_file, nullptr,
     "load the scenario from a JSON file instead"},
    {"--scenario-dir=DIR", &CliOptions::scenario_dir, nullptr,
     "register every *.json scenario in DIR (like LCDA_SCENARIO_DIR)"},
    {"--set=KEY=VALUE", &CliOptions::overrides, nullptr,
     "dotted-path config override, repeatable; also --set KEY=VALUE"},
    {"--seed=K", &CliOptions::seed, nullptr,
     "base seed (default: the scenario's)", 0},
    {"--parallelism=N", &CliOptions::parallelism, nullptr,
     "worker threads, 0 = all hardware threads (default: LCDA_PARALLELISM, "
     "else 1)", 0, util::kMaxParallelism},
    {"--cache-dir=DIR", &CliOptions::cache_dir, nullptr,
     "the on-disk evaluation store"},
    {"--checkpoint-dir=DIR", &CliOptions::checkpoint_dir, nullptr,
     "log every finished round under DIR/<study fingerprint> for --resume"},
    {"--resume", &CliOptions::resume, &kCheckpointDir,
     "replay the study's longest valid round log, then continue"},
    {"--strategy=A[,B...]", &CliOptions::strategies, &kStrategyStudy,
     "strategies to run, \"all\" for every one (default: the scenario's)"},
    {"--episodes=N", &CliOptions::episodes, &kStrategyStudy,
     "episodes per strategy (default: the scenario's budget)", 1},
    {"--seeds=N", &CliOptions::seeds, &kStudy,
     "seeds per strategy: base, base+1, ... (default 1)", 1},
    {"--aggregate", &CliOptions::aggregate, &kOneMode,
     "statistics across seeds instead of the per-episode listing"},
    {"--threshold=R", &CliOptions::threshold, &kAggregate,
     "also report the episodes needed to reach reward R"},
    {"--speedup", &CliOptions::speedup, &kOneMode,
     "LCDA-vs-NACIM episodes-to-threshold study; budgets via --set "
     "lcda_episodes=N"},
    {"--threshold-fraction=F", &CliOptions::threshold_fraction, &kSpeedup,
     "the bar as a fraction of NACIM's best reward (default 0.95)",
     kPositive, 1},
    {"--distribute=N", &CliOptions::distribute, &kStudy,
     "shard the study over N resident worker processes", 1,
     util::kMaxParallelism},
    {"--max-retries=K", &CliOptions::max_retries, &kDistribute,
     "extra attempts per failed shard (default 2)", 0},
    {"--shard-dir=DIR", &CliOptions::shard_dir, &kDistribute,
     "keep shard files in DIR instead of a temp directory"},
    {"--keep-shard-dir", &CliOptions::keep_shard_dir, &kDistribute,
     "keep the temp shard directory for post-mortem"},
    {"--no-steal", &CliOptions::no_steal, &kDistribute,
     "disable straggler work stealing"},
    {"--json=PATH", &CliOptions::json_path, &kStudy,
     "write the study (runs, traces, cache counters) as JSON"},
    {"--trace=PATH", &CliOptions::trace_path, &kStudy,
     "write the episode traces as CSV; \"-\" = stdout, narration to stderr"},
    {"--quiet", &CliOptions::quiet, &kStudy,
     "no per-episode listing and no shard narration"},
    {"--trace-spans=PATH", &CliOptions::trace_spans, nullptr,
     "export the span timeline as Chrome trace-event JSON"},
    {"--metrics-out=PATH", &CliOptions::metrics_out, nullptr,
     "write the final counters and histograms (lcda-metrics-v2 JSON)"},
    {"--metrics-interval=SEC", &CliOptions::metrics_interval, nullptr,
     "an \"[obs] t=...\" metrics line on stderr every SEC seconds", kPositive},
    {"--store-compact", &CliOptions::store_compact, &kCacheDir,
     "merge, dedupe and budget the store, then exit"},
    {"--store-fsck", &CliOptions::store_fsck, &kCacheDir,
     "verify every store file and record, then exit (1 on damage)"},
    {"--store-buckets=N", &CliOptions::store_buckets, &kStoreCompact,
     "index buckets to compact into (default 16)", 1},
    {"--store-max-entries=N", &CliOptions::store_max_entries, &kStoreCompact,
     "keep at most N records, oldest evicted first (0 = no limit)", 0},
    {"--store-max-bytes=N", &CliOptions::store_max_bytes, &kStoreCompact,
     "keep at most N bytes of records (0 = no limit)", 0},
    // Internal: a resident worker reading lcda-worker-cmd-v2 commands on
    // stdin, the process --distribute keeps one of per slot.
    {"--worker-loop", &CliOptions::worker_loop, nullptr, ""},
};

/// Prints `error` and the usage text; returns 2, the exit status of every
/// argument error.
int usage(const std::string& error) {
  std::fprintf(stderr, "lcda_run: %s\n%s", error.c_str(),
               "usage: lcda_run --scenario=NAME | --scenario-file=PATH [FLAG...]\n"
               "       lcda_run --list | --cache-dir=DIR --store-compact | "
               "--store-fsck\n"
               "A study runs each strategy over --seeds seeds and lists the "
               "episodes, or reports\nstatistics with --aggregate or "
               "--speedup. The other modes act and exit.\n");
  for (const Flag& flag : kFlags) {
    if (flag.help.empty()) continue;
    std::fprintf(stderr, "  %-23.*s %.*s", static_cast<int>(flag.spelling.size()),
                 flag.spelling.data(), static_cast<int>(flag.help.size()),
                 flag.help.data());
    if (flag.needs != nullptr) {
      std::fprintf(stderr, "\n%26srequires %s", "", flag.needs->text);
    }
    std::fputc('\n', stderr);
  }
  return 2;
}

/// Stores `value` (absent for a bare "--name") where `flag` says; returns
/// an error message, or "" on success. Numbers must parse completely and
/// lie within the flag's bounds and its member's type: a typo must fail
/// loudly, not become 0 (which --parallelism reads as "every hardware
/// thread") or wrap.
std::string assign(const Flag& flag, std::optional<std::string_view> value,
                   CliOptions& cli) {
  const std::string name(flag.name());
  const auto bad_value = [&](const std::string& want) {
    return "bad value for " + name + ": \"" + std::string(*value) +
           "\" (want " + want + ")";
  };
  return std::visit(
      [&](auto member) -> std::string {
        auto& field = cli.*member;
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (value) return name + " takes no value";
          field = true;
        } else if (!value) {
          return name + " needs a value";
        } else if constexpr (std::is_same_v<T, std::string>) {
          field = *value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          field.emplace_back(*value);
        } else if constexpr (std::is_integral_v<T>) {
          constexpr T kTypeMax = std::numeric_limits<T>::max();
          const T hi = flag.hi < static_cast<double>(kTypeMax)
                           ? static_cast<T>(flag.hi)
                           : kTypeMax;
          const auto parsed = util::parse_int(*value);
          if (!parsed || *parsed < flag.lo || *parsed > hi) {
            return bad_value("an integer from " +
                             std::to_string(static_cast<long long>(flag.lo)) +
                             " to " + std::to_string(hi));
          }
          field = static_cast<T>(*parsed);
        } else {
          const std::string text(*value);
          char* end = nullptr;
          const double parsed = std::strtod(text.c_str(), &end);
          if (end == text.c_str() || *end != '\0' || !std::isfinite(parsed) ||
              parsed < flag.lo || parsed > flag.hi) {
            std::ostringstream want;
            want << "a finite number";
            if (flag.lo == kPositive) {
              want << " > 0";
            } else if (flag.lo > -kInf) {
              want << " >= " << flag.lo;
            }
            if (flag.hi < kInf) want << " and <= " << flag.hi;
            return bad_value(want.str());
          }
          field = parsed;
        }
        return "";
      },
      flag.target);
}

/// Parses argv into `cli`, marking each flag seen in `given` (indexed like
/// kFlags). Returns an error message, or "" on success.
std::string parse_args(int argc, char** argv, CliOptions& cli,
                       std::vector<bool>& given) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (f.name() == arg.substr(0, eq)) flag = &f;
    }
    if (flag == nullptr) return "unknown argument \"" + std::string(arg) + "\"";
    std::optional<std::string_view> value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (std::holds_alternative<std::vector<std::string> CliOptions::*>(
                   flag->target) &&
               i + 1 < argc) {
      value = argv[++i];  // a repeatable flag's value may follow it
    }
    if (std::string error = assign(*flag, value, cli); !error.empty()) {
      return error;
    }
    given[static_cast<std::size_t>(flag - kFlags)] = true;
  }
  return "";
}

/// The first flag on the command line whose requirement is unmet, as an
/// error message; "" when every requirement holds.
std::string unmet_requirement(const CliOptions& cli,
                              const std::vector<bool>& given, Config config) {
  for (std::size_t i = 0; i < std::size(kFlags); ++i) {
    const Requirement* needs = kFlags[i].needs;
    if (given[i] && needs != nullptr && !needs->met(cli, config)) {
      return std::string(kFlags[i].name()) + " requires " + needs->text;
    }
  }
  return "";
}

/// Per-strategy episode budgets, resolved once so the in-process and
/// distributed paths can never disagree on them.
std::vector<dist::StrategyStudy> resolve_studies(const CliOptions& cli,
                                                 const core::Scenario& scenario) {
  std::vector<core::Strategy> strategies = {scenario.default_strategy};
  if (util::to_lower(cli.strategies) == "all") {
    strategies = core::all_strategies();
  } else if (!cli.strategies.empty()) {
    strategies.clear();
    for (const std::string& name : util::split(cli.strategies, ',')) {
      strategies.push_back(core::strategy_from_name(util::trim(name)));
    }
  }
  std::vector<dist::StrategyStudy> studies;
  for (core::Strategy strategy : strategies) {
    const int episodes =
        cli.episodes > 0 ? cli.episodes
                         : core::default_episodes(strategy, scenario.config);
    studies.push_back({strategy, episodes});
  }
  return studies;
}

/// A completed distributed study: the executed plan (steal-appended specs
/// included) plus every shard's loaded (and spec-verified) result
/// manifest, index-aligned with specs, and the coordinator's scheduling
/// stats for the "dist" JSON object.
struct DistributedStudy {
  std::vector<dist::ShardSpec> specs;
  std::vector<util::Json> manifests;
  dist::Coordinator::Stats stats;

  /// Study-wide metrics: every worker manifest's "obs" delta folded
  /// together, then the coordinator's own registry merged in. The store
  /// totals and resumed_episodes the summary line and "dist" JSON report
  /// read from here (counters "store.*", "engine.resumed_episodes"), the
  /// manifests' only carrier of them; run_strategy mirrors each run's
  /// counters into the registry exactly once, so these are per-run sums.
  /// Observability only — the numbers shift with pooling and scheduling,
  /// never the bytes.
  obs::MetricsSnapshot obs;

  /// Worker span timelines gathered from the shard directory before it
  /// is cleaned up under --trace-spans: one lane per readable attempt
  /// file, already on its merged pid (1+k for shard k's first attempt).
  std::vector<obs::TraceLane> trace_lanes;
};

/// The "dist" object distributed --json documents carry: study-level
/// scheduling counters plus one record per shard of the executed plan.
/// Wall times are real milliseconds, so this object is the one part
/// of a distributed document that is NOT byte-reproducible — consumers
/// diffing documents strip it first (CI does).
util::Json dist_stats_to_json(const DistributedStudy& study) {
  const dist::Coordinator::Stats& stats = study.stats;
  util::Json j = util::Json::object();
  j["planned"] = stats.planned;
  j["spawned"] = stats.spawned;
  j["pool_workers"] = stats.pool_workers;
  j["retries"] = stats.retries;
  j["steals"] = stats.steals;
  j["stolen_seeds"] = stats.stolen_seeds;
  j["dead_workers"] = stats.dead_workers;
  util::Json shards = util::Json::array();
  for (const dist::Coordinator::ShardStats& s : stats.shards) {
    util::Json e = util::Json::object();
    e["index"] = s.index;
    e["seeds"] = s.seeds;
    e["attempts"] = s.attempts;
    e["slot"] = s.slot;
    e["wall_ms"] = s.wall_ms;
    if (s.stolen_from >= 0) e["stolen_from"] = s.stolen_from;
    shards.push_back(e);
  }
  j["shards"] = shards;
  util::Json store = util::Json::object();
  for (const char* key : {"hits", "misses", "shared_hits", "shared_misses",
                          "bytes_read", "bytes_published"}) {
    store[key] = study.obs.counter(std::string("store.") + key);
  }
  j["store"] = store;
  j["resumed_episodes"] = study.obs.counter("engine.resumed_episodes");
  // Everything below is append-only: existing consumers index the keys
  // above by name and must keep finding them where they are.
  j["steal_considered"] = stats.steal_considered;
  j["steal_suppressed_min_stale"] = stats.steal_suppressed_min_stale;
  j["obs"] = study.obs.to_json();
  return j;
}

/// Plans the study, drives the shard workers to completion through the
/// coordinator, and loads their manifests. The shard directory is the
/// user's --shard-dir (theirs to keep) or an automatic temp directory,
/// removed on success AND failure unless --keep-shard-dir asks for a
/// post-mortem copy.
DistributedStudy run_distributed(const CliOptions& cli,
                                 const core::Scenario& scenario,
                                 dist::ShardMode mode,
                                 const std::vector<dist::StrategyStudy>& studies,
                                 const char* argv0) {
  namespace fs = std::filesystem;
  const bool auto_dir = cli.shard_dir.empty();
  const std::string shard_dir =
      auto_dir ? (fs::temp_directory_path() /
                  ("lcda-shards-" + std::to_string(static_cast<long>(::getpid()))))
                     .string()
               : cli.shard_dir;
  const auto finish = [&] {
    std::error_code ec;
    if (!auto_dir) return;
    if (!cli.keep_shard_dir) {
      fs::remove_all(shard_dir, ec);
    } else {
      std::fprintf(stderr, "lcda_run: shard dir kept at %s\n", shard_dir.c_str());
    }
  };

  DistributedStudy study;
  study.specs =
      dist::plan_shards(scenario, mode, studies, cli.seeds, cli.distribute,
                        cli.threshold, cli.threshold_fraction);

  dist::Coordinator::Options opts;
  opts.worker_command = {util::self_executable_path(argv0)};
  opts.shard_dir = shard_dir;
  opts.max_parallel = cli.distribute;
  opts.max_retries = cli.max_retries;
  opts.verbose = !cli.quiet;  // --quiet silences shard narration too
  opts.enable_steal = !cli.no_steal;
  opts.trace_spans = !cli.trace_spans.empty();

  try {
    dist::Coordinator coordinator(opts);
    coordinator.run(study.specs);
    study.stats = coordinator.stats();
    study.manifests.reserve(study.specs.size());
    for (const dist::ShardSpec& spec : study.specs) {
      study.manifests.push_back(dist::load_shard_manifest(spec));
    }
    // Fold every worker's metrics delta (the tolerated extra "obs"
    // manifest key), then merge the coordinator's own registry — the
    // dist.* scheduling counters land there at the end of
    // Coordinator::run. Store totals and resumed_episodes read from this
    // snapshot downstream.
    for (const util::Json& manifest : study.manifests) {
      if (!manifest.contains("obs")) continue;
      study.obs.merge(obs::MetricsSnapshot::from_json(manifest.at("obs")));
    }
    study.obs.merge(obs::Registry::instance().snapshot());
    // Worker span timelines must leave the shard directory before the
    // cleanup below removes it. Failed attempts never write a trace
    // file, so missing paths are expected, not errors. Each attempt file
    // is one process's ring, and keeps a lane of its own (pid 1+k+a*N for
    // attempt a of shard k out of N): two processes' threads never share
    // a lane, so every lane's spans nest.
    if (opts.trace_spans) {
      const int shards = static_cast<int>(study.stats.shards.size());
      for (const dist::Coordinator::ShardStats& s : study.stats.shards) {
        for (int a = 0; a <= s.attempts; ++a) {
          const std::string path = shard_dir + "/shard-" +
                                   std::to_string(s.index) + "-trace-a" +
                                   std::to_string(a) + ".json";
          std::string open_error;
          const util::MmapFile file = util::MmapFile::open(path, &open_error);
          if (!open_error.empty()) continue;
          try {
            obs::TraceLane& lane = study.trace_lanes.emplace_back(
                obs::read_chrome_trace(std::string_view(
                    reinterpret_cast<const char*>(file.data()), file.size())));
            lane.pid = 1 + s.index + a * shards;
            lane.name = "worker shard " + std::to_string(s.index);
            if (a > 0) lane.name += " attempt " + std::to_string(a);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lcda_run: skipping damaged trace %s: %s\n",
                         path.c_str(), e.what());
          }
        }
      }
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();

  // One greppable scheduling summary per distributed run (bench_record.sh
  // and humans read it; byte-diffed outputs never include stderr). Store
  // fields come from the merged registry snapshot now; the field order is
  // frozen, new fields append at the end.
  const dist::Coordinator::Stats& st = study.stats;
  std::fprintf(stderr,
               "[dist] summary: shards=%d spawned=%d retries=%d steals=%d "
               "stolen_seeds=%d dead_workers=%d pool_workers=%d "
               "store_hits=%lld store_shared=%lld store_misses=%lld "
               "store_bytes_read=%lld store_bytes_published=%lld "
               "resumed_episodes=%lld "
               "steal_considered=%d steal_suppressed_min_stale=%d\n",
               st.planned, st.spawned, st.retries, st.steals, st.stolen_seeds,
               st.dead_workers, st.pool_workers, study.obs.counter("store.hits"),
               study.obs.counter("store.shared_hits"),
               study.obs.counter("store.misses"),
               study.obs.counter("store.bytes_read"),
               study.obs.counter("store.bytes_published"),
               study.obs.counter("engine.resumed_episodes"),
               st.steal_considered, st.steal_suppressed_min_stale);
  return study;
}

/// Final observability artifacts, written once just before a successful
/// exit: the Chrome-trace span timeline (--trace-spans) and the final
/// metrics snapshot (--metrics-out). `study` is non-null on distributed
/// runs: its gathered worker lanes follow the coordinator's own (pid 0)
/// in the one streamed file, and its merged snapshot — not the local
/// registry — becomes the metrics document, so per-study store totals
/// equal the manifest-summed values.
void write_observability(const CliOptions& cli, const DistributedStudy* study) {
  if (!cli.trace_spans.empty()) {
    obs::ChromeTraceWriter timeline(cli.trace_spans);
    obs::SpanTracer::instance().render(
        timeline, 0, study != nullptr ? "coordinator" : "lcda_run");
    if (study != nullptr) {
      for (const obs::TraceLane& lane : study->trace_lanes) {
        timeline.add_lane(lane);
      }
    }
    timeline.finish();
    std::fprintf(stderr,
                 "[obs] wrote span timeline %s (%zu spans, %llu dropped)\n",
                 cli.trace_spans.c_str(), timeline.spans(),
                 static_cast<unsigned long long>(timeline.dropped()));
  }
  if (!cli.metrics_out.empty()) {
    obs::write_metrics_file(study != nullptr
                                ? study->obs
                                : obs::Registry::instance().snapshot(),
                            cli.metrics_out);
    std::fprintf(stderr, "[obs] wrote metrics %s\n", cli.metrics_out.c_str());
  }
}

/// What every study mode writes to besides the human-readable listing.
/// Each mode writes its --trace rows to `trace` as it produces them, so no
/// study holds its CSV in memory.
struct StudyOutput {
  std::ostream* trace = nullptr;          ///< null without --trace
  util::Json doc = util::Json::object();  ///< --json, minus scenario and dist
  std::optional<DistributedStudy> dist;   ///< set by --distribute
};

/// One run's summary lines, the same in-process and distributed. The
/// per-episode `listing` only the in-process path has goes between the
/// header and the best line.
void print_run(std::FILE* human, const dist::MergedRun& run,
               const core::RunResult* listing) {
  std::fprintf(human, "\n== %s (%lld episodes) ==\n", run.label.c_str(),
               run.episodes);
  if (listing != nullptr) {
    for (const auto& ep : listing->episodes) {
      std::fprintf(human,
                   "  ep %3d  reward %+8.3f  acc %.3f  E %10.4g pJ  "
                   "L %10.4g ns  %s%s\n",
                   ep.episode, ep.reward, ep.accuracy, ep.energy_pj,
                   ep.latency_ns, ep.design.rollout_text().c_str(),
                   ep.valid ? "" : "  [invalid]");
    }
  }
  std::fprintf(human, "best reward %+0.4f at episode %d (%s)\n",
               run.best_reward, run.best_episode, run.best_design.c_str());
  std::fprintf(human, "cache: %lld hits, %lld misses, %lld persistent hits%s\n",
               run.cache_hits, run.cache_misses, run.persistent_hits,
               shared_hits_suffix(run.persistent_shared_hits).c_str());
}

/// Per-seed runs, each printed as it finishes in-process, or sharded over
/// worker processes and merged back in canonical order.
void runs_study(const CliOptions& cli, const core::Scenario& scenario,
                const std::vector<dist::StrategyStudy>& studies,
                std::FILE* human, const char* argv0, StudyOutput& out) {
  if (cli.distribute > 0) {
    out.dist.emplace(run_distributed(cli, scenario, dist::ShardMode::kRuns,
                                     studies, argv0));
    for (dist::MergedRun& run :
         dist::merge_runs(out.dist->specs, out.dist->manifests)) {
      print_run(human, run, nullptr);
      if (out.trace != nullptr) *out.trace << run.csv;
      out.doc["runs"].push_back(std::move(run.run_json));
    }
    return;
  }
  // The run JSON is built after the last run, in one pass, from copies of
  // the runs. Built between runs, its nodes scatter through the heap; built
  // from the runs themselves, whose episodes were allocated among the
  // evaluator's, it reads scattered memory. Each cost ~10% more CPU (4
  // seeds x 5000 surrogate episodes).
  std::vector<std::pair<std::string, core::RunResult>> kept;
  for (const dist::StrategyStudy& study : studies) {
    for (int s = 0; s < cli.seeds; ++s) {
      const core::SeedRun seed =
          core::runs_mode_seed(study.strategy, scenario.config, s);
      const core::RunResult run =
          core::run_strategy(study.strategy, study.episodes, seed.config);
      print_run(human, dist::run_record(s, seed.label, run),
                cli.quiet ? nullptr : &run);
      if (out.trace != nullptr) core::write_run_csv(*out.trace, run, seed.label);
      if (!seed.config.checkpoint_dir.empty()) {
        std::fprintf(stderr, "[ckpt] %s: resumed_episodes=%lld/%d\n",
                     seed.label.c_str(),
                     static_cast<long long>(run.resumed_episodes),
                     study.episodes);
      }
      if (!cli.json_path.empty()) kept.emplace_back(seed.label, run);
    }
  }
  for (const auto& [label, run] : kept) {
    out.doc["runs"].push_back(core::run_to_json(run, label));
  }
}

/// Multi-seed statistics per strategy (core::run_aggregate).
void aggregate_study(const CliOptions& cli, const core::Scenario& scenario,
                     const std::vector<dist::StrategyStudy>& studies,
                     std::FILE* human, const char* argv0, StudyOutput& out) {
  std::vector<core::AggregateResult> aggregates;
  if (cli.distribute > 0) {
    out.dist.emplace(run_distributed(cli, scenario, dist::ShardMode::kAggregate,
                                     studies, argv0));
    aggregates = dist::merge_aggregate(out.dist->specs, out.dist->manifests);
  } else {
    long long resumed = 0;
    for (const dist::StrategyStudy& s : studies) {
      aggregates.push_back(core::run_aggregate(
          s.strategy, s.episodes, cli.seeds, scenario.config, cli.threshold));
      resumed += aggregates.back().resumed_episodes;
    }
    if (!scenario.config.checkpoint_dir.empty()) {
      std::fprintf(stderr, "[ckpt] aggregate: resumed_episodes=%lld\n", resumed);
    }
  }

  std::fprintf(human, "%-14s %8s %8s %10s %10s %10s %10s\n", "strategy",
               "episodes", "seeds", "best mean", "stddev", "min", "max");
  util::Json arr = util::Json::array();
  for (const core::AggregateResult& agg : aggregates) {
    const std::string name(core::strategy_name(agg.strategy));
    std::fprintf(human, "%-14s %8d %8d %10.4f %10.4f %10.4f %10.4f\n",
                 name.c_str(), agg.episodes, agg.seeds, agg.final_best.mean(),
                 agg.final_best.stddev(), agg.final_best.min(),
                 agg.final_best.max());
    if (!std::isnan(cli.threshold)) {
      std::fprintf(human,
                   "  threshold %+0.4f: %d/%d seeds reached, "
                   "mean %.1f episodes\n",
                   cli.threshold, agg.reached, agg.seeds,
                   agg.episodes_to_threshold.mean());
    }
    std::fprintf(human, "  cache: %lld hits, %lld misses, %lld persistent%s\n",
                 static_cast<long long>(agg.cache_hits),
                 static_cast<long long>(agg.cache_misses),
                 static_cast<long long>(agg.persistent_hits),
                 shared_hits_suffix(agg.persistent_shared_hits).c_str());
    if (out.trace != nullptr) core::write_aggregate_csv(*out.trace, agg, name);
    if (!cli.json_path.empty()) arr.push_back(core::aggregate_to_json(agg));
  }
  out.doc["seeds"] = cli.seeds;
  out.doc["aggregates"] = std::move(arr);
}

/// The paired LCDA-vs-NACIM episodes-to-threshold study.
void speedup_study(const CliOptions& cli, const core::Scenario& scenario,
                   std::FILE* human, const char* argv0, StudyOutput& out) {
  std::vector<core::SpeedupReport> reports;
  if (cli.distribute > 0) {
    // The speedup study has no strategy axis: one plan over the seeds.
    out.dist.emplace(run_distributed(cli, scenario, dist::ShardMode::kSpeedup,
                                     {{core::Strategy::kLcda, 0}}, argv0));
    reports = dist::merge_speedup(out.dist->specs, out.dist->manifests);
  } else {
    reports = core::speedup_study(scenario.config, cli.seeds,
                                  cli.threshold_fraction);
    if (!scenario.config.checkpoint_dir.empty()) {
      long long resumed = 0;
      for (const core::SpeedupReport& r : reports) resumed += r.resumed_episodes;
      std::fprintf(stderr, "[ckpt] speedup: resumed_episodes=%lld\n", resumed);
    }
  }
  std::fprintf(human, "%-6s %12s %10s %10s %10s %10s\n", "seed", "threshold",
               "lcda eps", "nacim eps", "nacim best", "speedup");
  util::OnlineStats speedups;
  for (std::size_t s = 0; s < reports.size(); ++s) {
    const core::SpeedupReport& r = reports[s];
    std::fprintf(human, "%-6zu %12.4f %10d %10d %10.4f %9.1fx\n", s,
                 r.threshold, r.lcda_episodes, r.nacim_episodes, r.nacim_best,
                 r.speedup());
    if (r.speedup() > 0.0) speedups.add(r.speedup());
  }
  if (speedups.count() > 0) {
    std::fprintf(human, "mean speedup over %zu seed(s): %.1fx\n",
                 speedups.count(), speedups.mean());
  }
  if (out.trace != nullptr) {
    core::write_speedup_csv(*out.trace, reports, scenario.name);
  }
  out.doc["speedup_study"] = core::speedup_study_to_json(reports);
}

/// Reports an output file lcda_run could not open or finish; returns 1.
int cannot_write(const std::string& path) {
  std::fprintf(stderr, "lcda_run: cannot write %s\n", path.c_str());
  return 1;
}

/// Truncates the --trace-spans and --metrics-out files, which
/// write_observability fills at the end, so an unwritable path fails
/// before any run or store pass. Returns 0, or 1 after cannot_write.
int open_observability(const CliOptions& cli) {
  for (const std::string* path : {&cli.trace_spans, &cli.metrics_out}) {
    if (!path->empty() && !std::ofstream(*path, std::ios::trunc)) {
      return cannot_write(*path);
    }
  }
  return 0;
}

/// Runs the study the mode flags select over the resolved `studies`. The
/// --trace, --json and observability files are opened (an existing one
/// truncated) first, so an unwritable path fails before any run; --json
/// and the observability artifacts are written last.
int run_study(const CliOptions& cli, const core::Scenario& scenario,
              const std::vector<dist::StrategyStudy>& studies,
              const char* argv0) {
  // Tracing to stdout reserves it for CSV; narration moves to stderr.
  const bool trace_stdout = cli.trace_path == "-";
  StudyOutput out;
  std::ofstream trace_file;
  if (trace_stdout) {
    out.trace = &std::cout;
  } else if (!cli.trace_path.empty()) {
    trace_file.open(cli.trace_path, std::ios::trunc);
    if (!trace_file) return cannot_write(cli.trace_path);
    out.trace = &trace_file;
  }
  // The JSON document goes out in one write at the end, so its stream needs
  // no buffer; one allocated here would sit under the study's whole heap
  // (+0.6 MB peak on a one-episode trained-small study with --trace).
  std::ofstream json_file;
  json_file.rdbuf()->pubsetbuf(nullptr, 0);
  if (!cli.json_path.empty()) {
    json_file.open(cli.json_path, std::ios::trunc);
    if (!json_file) return cannot_write(cli.json_path);
  }
  if (open_observability(cli) != 0) return 1;

  std::FILE* const human = trace_stdout ? stderr : stdout;
  std::fprintf(human, "# scenario %s: %s\n", scenario.name.c_str(),
               scenario.summary.c_str());
  std::fprintf(human, "# parallelism %d, base seed %llu\n",
               scenario.config.parallelism,
               static_cast<unsigned long long>(scenario.config.seed));

  out.doc["experiment"] = scenario.name;
  out.doc["seed"] = static_cast<long long>(scenario.config.seed);
  if (cli.aggregate) {
    aggregate_study(cli, scenario, studies, human, argv0, out);
  } else if (cli.speedup) {
    speedup_study(cli, scenario, human, argv0, out);
  } else {
    runs_study(cli, scenario, studies, human, argv0, out);
  }

  if (out.trace != nullptr && !out.trace->flush()) {
    return cannot_write(cli.trace_path);
  }
  if (json_file.is_open()) {
    out.doc["scenario"] = core::scenario_to_json(scenario);
    if (out.dist) out.doc["dist"] = dist_stats_to_json(*out.dist);
    if (!(json_file << out.doc.dump(2) << '\n').flush()) {
      return cannot_write(cli.json_path);
    }
    std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
  }
  write_observability(cli, out.dist ? &*out.dist : nullptr);
  return 0;
}

/// The scenario a study or --print-config acts on: the registry entry or
/// file, then every command-line override on top.
core::Scenario resolve_scenario(const CliOptions& cli) {
  core::Scenario scenario = cli.scenario_file.empty()
                                ? core::scenario_by_name(cli.scenario)
                                : core::load_scenario(cli.scenario_file);
  for (const std::string& kv : cli.overrides) {
    core::apply_override(scenario.config, kv);
  }
  core::ExperimentConfig& config = scenario.config;
  if (cli.seed >= 0) config.seed = static_cast<std::uint64_t>(cli.seed);
  config.parallelism =
      cli.parallelism >= 0 ? cli.parallelism : core::env_parallelism();
  if (!cli.cache_dir.empty()) config.persistent_cache_dir = cli.cache_dir;
  if (!cli.checkpoint_dir.empty()) config.checkpoint_dir = cli.checkpoint_dir;
  if (cli.resume) config.resume = true;
  return scenario;
}

/// Acts on a parsed command line: resolves the scenario when the mode has
/// one, checks every flag's requirement, then runs the selected mode.
int run(const CliOptions& cli, const std::vector<bool>& given,
        const char* argv0) {
  // Internal worker mode: stay resident and execute specs dispatched
  // over stdin until `shutdown` or EOF. Everything a shard needs travels
  // in its spec file, so no other flag applies.
  if (cli.worker_loop) return dist::run_worker_loop();

  const bool store = cli.store_compact || cli.store_fsck;
  if (!store && !cli.scenario_dir.empty()) {
    (void)core::register_scenarios_from(cli.scenario_dir);
  }
  std::optional<core::Scenario> scenario;
  if (!store && !cli.list) {
    if (cli.scenario.empty() == cli.scenario_file.empty()) {
      return usage("exactly one of --scenario / --scenario-file is required");
    }
    scenario = resolve_scenario(cli);
    // Options the evaluator would reject fail here, before any output and
    // before a distributed study spawns workers that would retry them.
    const core::ExperimentConfig& c = scenario->config;
    if (c.evaluator_kind == core::EvaluatorKind::kTrained) {
      core::check_evaluator_options(c.trained.cost, c.trained.monte_carlo_samples);
    } else {
      core::check_evaluator_options(c.evaluator.cost, c.evaluator.monte_carlo_samples);
    }
  }
  if (const std::string unmet =
          unmet_requirement(cli, given, scenario ? &scenario->config : nullptr);
      !unmet.empty()) {
    return usage(unmet);
  }
  std::vector<dist::StrategyStudy> studies;
  if (is_study(cli)) {
    try {
      studies = resolve_studies(cli, *scenario);
    } catch (const std::invalid_argument& e) {
      return usage(e.what());
    }
  }

  // Arm observability before any worker thread exists: the enabled
  // flags are plain bools, written single-threaded here and only read
  // afterwards. Distributed runs always meter — the merged registry
  // feeds the "dist" JSON store totals and the summary line. Worker
  // processes never reach this point; they arm themselves at
  // run_worker_loop entry.
  if (!cli.metrics_out.empty() || cli.metrics_interval > 0.0 ||
      !cli.trace_spans.empty() || cli.distribute > 0) {
    obs::Registry::instance().enable();
  }
  if (!cli.trace_spans.empty()) obs::SpanTracer::instance().enable();
  std::optional<obs::StatsReporter> reporter;
  if (cli.metrics_interval > 0.0) reporter.emplace(cli.metrics_interval);

  if (store) {
    if (open_observability(cli) != 0) return 1;
    if (cli.store_compact) {
      const lcda::store::Budget budget{
          static_cast<std::size_t>(cli.store_max_entries),
          static_cast<std::size_t>(cli.store_max_bytes)};
      const lcda::store::CompactionReport rep = lcda::store::compact_store(
          cli.cache_dir, budget, static_cast<std::size_t>(cli.store_buckets));
      std::printf(
          "store-compact %s: %zu files merged (%zu unreadable dropped), "
          "%zu records kept, %zu duplicates dropped, %zu corrupt dropped, "
          "%zu evicted\n",
          cli.cache_dir.c_str(), rep.input_files, rep.skipped_files,
          rep.records_kept, rep.duplicates_dropped, rep.corrupt_dropped,
          rep.evicted);
    }
    if (cli.store_fsck) {
      const lcda::store::FsckReport rep = lcda::store::fsck(cli.cache_dir);
      std::printf(
          "store-fsck %s: %zu files, %zu records ok, %zu bad files, "
          "%zu bad records -> %s\n",
          cli.cache_dir.c_str(), rep.files, rep.records, rep.bad_files,
          rep.bad_records, rep.clean() ? "clean" : "DAMAGED");
      if (!rep.clean()) return 1;
    }
    write_observability(cli, nullptr);
    return 0;
  }

  if (cli.list) {
    std::printf("%-16s %s\n", "scenario", "what it stresses");
    for (const std::string& name : core::list_scenarios()) {
      const core::Scenario s = core::scenario_by_name(name);
      std::printf("%-16s %s  [default strategy: %s]\n", s.name.c_str(),
                  s.summary.c_str(),
                  std::string(core::strategy_name(s.default_strategy)).c_str());
      if (!s.description.empty()) {
        std::printf("%-16s %s\n", "", s.description.c_str());
      }
    }
    return 0;
  }

  if (cli.print_config) {
    std::printf("%s\n", core::scenario_to_json(*scenario).dump(2).c_str());
    return 0;
  }
  return run_study(cli, *scenario, studies, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  std::vector<bool> given(std::size(kFlags));
  if (const std::string error = parse_args(argc, argv, cli, given);
      !error.empty()) {
    return usage(error);
  }
  try {
    return run(cli, given, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcda_run: %s\n", e.what());
    return 1;
  }
}
