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
// Flags:
//   --list                 list registered scenarios and exit
//   --print-config         dump the resolved scenario as JSON and exit
//   --scenario=NAME        registry scenario (see --list)
//   --scenario-file=PATH   load a scenario JSON file instead
//   --scenario-dir=DIR     register every *.json scenario in DIR first
//                          (the LCDA_SCENARIO_DIR environment variable
//                          autoloads a directory the same way)
//   --strategy=A[,B...]    strategies to run (default: the scenario's);
//                          "all" sweeps every strategy
//   --aggregate            multi-seed aggregate per strategy instead of the
//                          per-seed episode listing (core::run_aggregate):
//                          running-best mean/stddev across seeds, final-best
//                          statistics, cache traffic. --seeds sets the seed
//                          count; --threshold=R also reports episodes-to-R
//   --speedup              paired LCDA-vs-NACIM episodes-to-threshold study
//                          (core::speedup_study) over --seeds seeds;
//                          --threshold-fraction=F sets the "comparable
//                          solution" bar (default 0.95 of NACIM's best)
//   --threshold=R          reward threshold for --aggregate's
//                          episodes-to-threshold statistic
//   --threshold-fraction=F speedup threshold fraction (--speedup only)
//   --episodes=N           override the per-strategy episode budget
//   --seeds=N              seeds per strategy (base, base+1, ...; default 1)
//   --seed=K               override the base seed
//   --set key=value        dotted-path config override (repeatable), e.g.
//                          --set space.conv_layers=4 --set objective=latency
//   --cache-dir=PATH       enable the on-disk evaluation store
//   --checkpoint-dir=DIR   enable crash-resumable checkpoints: each run
//                          snapshots its full engine state (optimizer
//                          internals, RNG cursors, trace, cache log) under
//                          DIR/<study fingerprint> and appends a per-round
//                          changelog between snapshots. Trace-invariant:
//                          output is byte-identical with or without it
//   --checkpoint-every=N   episodes between snapshots (default 64; requires
//                          --checkpoint-dir or a scenario checkpoint_dir)
//   --resume               restore the newest valid checkpoint before
//                          running; a run killed at any episode and resumed
//                          this way produces byte-identical final JSON and
//                          trace CSV. Falls back to a cold start (with a
//                          warning) when no usable checkpoint exists
//   --parallelism=N        worker threads (default: LCDA_PARALLELISM, else 1;
//                          0 = one per hardware thread); traces are
//                          bit-identical for every setting
//   --distribute=N         shard the study across N worker PROCESSES (the
//                          lcda::dist coordinator keeps a pool of N resident
//                          `lcda_run --worker-loop` subprocesses, dispatches
//                          shard specs to them over stdin/stdout pipes and
//                          merges their result manifests); every output —
//                          traces, JSON, cache counters — is byte-identical
//                          to the same command without --distribute (see
//                          README "Scaling out")
//   --max-retries=K        extra attempts per failed shard before the run
//                          aborts (default 2; requires --distribute)
//   --shard-dir=DIR        keep shard specs/manifests in DIR instead of an
//                          auto-cleaned temp directory (requires
//                          --distribute)
//   --keep-shard-dir       keep the automatic temp shard directory (specs,
//                          manifests, span traces) for post-mortem;
//                          without it the temp directory is removed on
//                          success AND failure (requires --distribute)
//   --no-steal             disable straggler work stealing; shards then run
//                          exactly where the planner put them (requires
//                          --distribute)
//   --steal-threshold=K    a shard is a straggler when its progress has
//                          stalled: no seed started or finished for longer
//                          than K x the median observed per-seed wall
//                          (default 2.0, must be >= 1; requires
//                          --distribute)
//   --worker-loop          internal: resident worker — read
//                          lcda-worker-cmd-v2 command lines from stdin, run
//                          each dispatched spec, stream seed events and
//                          heartbeats and reply done/failed on stdout
//                          (what --distribute keeps one of per slot)
//   --json=PATH            write the full experiment (runs + traces + cache
//                          counters) as JSON
//   --trace=PATH           write the episode traces as CSV ("-" = stdout;
//                          human-readable output then moves to stderr so
//                          stdout stays valid CSV) — the format CI diffs
//                          against golden traces
//   --trace-spans=PATH     export the span timeline as Chrome trace-event
//                          JSON (load it in Perfetto or chrome://tracing).
//                          With --distribute the coordinator gathers every
//                          worker's per-attempt trace file and merges them
//                          into one timeline: pid 0 is the coordinator,
//                          pid 1+k is shard k. Events a ring overwrote are
//                          counted per lane and in obs_dropped_events.
//                          Purely additive — traces, JSON and manifests
//                          stay byte-identical
//   --metrics-out=PATH     write the final metrics snapshot
//                          (lcda-metrics-v1 JSON). Distributed runs fold
//                          every worker manifest's "obs" delta in, so the
//                          per-study store totals equal the manifest sums
//   --metrics-interval=SEC periodic "[obs] t=..s name=value" heartbeat on
//                          stderr while the study runs (and a final line
//                          when it stops)
//   --quiet                suppress the per-episode listing
//
// Store maintenance (act on --cache-dir=DIR and exit):
//   --store-compact        merge segments into fresh index buckets, dedupe
//                          republished records, drop corrupt ones
//                          (skip-and-count) and enforce the budget
//                          oldest-first; safe while readers/writers are
//                          live. --store-buckets=N sets the index shard
//                          count (default 16); --store-max-entries=N /
//                          --store-max-bytes=N apply a budget
//   --store-fsck           verify every segment and index bucket (headers,
//                          per-record checksums, sort order); exits
//                          nonzero when any damage is found
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
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
  long long checkpoint_every = 0;  // 0 = scenario default
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
  bool max_retries_set = false;
  bool keep_shard_dir = false;  // keep the auto temp shard dir
  bool no_steal = false;        // disable straggler work stealing
  double steal_threshold = 2.0; // stall bar (x median per-seed wall)
  bool steal_threshold_set = false;
  double threshold = std::numeric_limits<double>::quiet_NaN();
  double threshold_fraction = 0.95;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario=NAME [--scenario-dir=DIR] "
               "[--strategy=A,B] [--seeds=N] "
               "[--episodes=N] [--seed=K] [--set key=value ...] "
               "[--cache-dir=DIR] [--parallelism=N] [--json=PATH] "
               "[--trace=PATH|-] [--trace-spans=PATH] [--metrics-out=PATH] "
               "[--metrics-interval=SEC] [--quiet]\n"
               "       %s ... --distribute=N [--max-retries=K] "
               "[--shard-dir=DIR] [--keep-shard-dir] [--no-steal] "
               "[--steal-threshold=K]\n"
               "       %s --scenario=NAME --aggregate [--threshold=R] [...]\n"
               "       %s --scenario=NAME --speedup [--threshold-fraction=F] "
               "[...]\n"
               "       %s --scenario-file=PATH [...]\n"
               "       %s --cache-dir=DIR --store-compact "
               "[--store-buckets=N] [--store-max-entries=N] "
               "[--store-max-bytes=N] | --store-fsck\n"
               "       %s --list | --print-config --scenario=NAME\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Strict double flag parsing, same loud-failure policy as
/// parse_number_flag below.
double parse_double_flag(const std::string& value, const char* flag) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw std::invalid_argument(std::string("bad value for ") + flag + ": \"" +
                                value + "\" (want a finite number)");
  }
  return parsed;
}

bool flag_value(std::string_view arg, std::string_view name, std::string& out) {
  if (!util::starts_with(arg, name)) return false;
  out = std::string(arg.substr(name.size()));
  return true;
}

/// Strict numeric flag parsing: a typo or out-of-range value must fail
/// loudly, not become 0 (which --parallelism would read as "use every
/// hardware thread") or silently fall back to a default (which negative
/// values would, via the unset sentinels).
long long parse_number_flag(const std::string& value, const char* flag,
                            long long min_value) {
  const auto parsed = util::parse_int(value);
  if (!parsed || *parsed < min_value) {
    throw std::invalid_argument(std::string("bad value for ") + flag + ": \"" +
                                value + "\" (want an integer >= " +
                                std::to_string(min_value) + ")");
  }
  return *parsed;
}

/// Opens the --trace destination: `path` as a file, or stdout for "-".
/// Returns the stream to write to, or nullptr after printing an error.
struct TraceOut {
  std::ofstream file;
  std::ostream* stream = nullptr;
};
bool open_trace(const std::string& path, TraceOut& out) {
  if (path == "-") {
    out.stream = &std::cout;
    return true;
  }
  out.file.open(path, std::ios::trunc);
  if (!out.file) {
    std::fprintf(stderr, "lcda_run: cannot write %s\n", path.c_str());
    return false;
  }
  out.stream = &out.file;
  return true;
}

std::vector<core::Strategy> resolve_strategies(const std::string& spec,
                                               core::Strategy fallback) {
  if (spec.empty()) return {fallback};
  if (util::to_lower(spec) == "all") return core::all_strategies();
  std::vector<core::Strategy> out;
  for (const std::string& name : util::split(spec, ',')) {
    out.push_back(core::strategy_from_name(util::trim(name)));
  }
  return out;
}

/// Per-strategy episode budgets, resolved once so the in-process and
/// distributed paths can never disagree on them.
std::vector<dist::StrategyStudy> resolve_studies(
    const CliOptions& cli, const core::Scenario& scenario,
    const std::vector<core::Strategy>& strategies) {
  std::vector<dist::StrategyStudy> studies;
  studies.reserve(strategies.size());
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
  /// is cleaned up: one lane per shard whose attempts left a readable
  /// trace file under --trace-spans, already on its merged pid (1+k for
  /// shard k).
  std::vector<obs::TraceLane> trace_lanes;

  /// The shards study entry `k` owns. Plan order used to make this a
  /// contiguous range; work stealing appends specs out of order, so
  /// select by the study_slot tag the planner stamped (and steals
  /// inherit).
  [[nodiscard]] std::pair<std::vector<dist::ShardSpec>,
                          std::vector<util::Json>>
  study_slice(std::size_t k) const {
    std::pair<std::vector<dist::ShardSpec>, std::vector<util::Json>> slice;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].study_slot == static_cast<int>(k)) {
        slice.first.push_back(specs[i]);
        slice.second.push_back(manifests[i]);
      }
    }
    return slice;
  }
};

/// The "dist" object distributed --json documents carry: study-level
/// scheduling counters plus one record per shard that ever existed in the
/// plan. Wall times are real milliseconds, so this object is the one part
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
  j["superseded"] = stats.superseded;
  j["dead_workers"] = stats.dead_workers;
  util::Json banned = util::Json::array();
  for (int slot : stats.banlisted_slots) banned.push_back(slot);
  j["banlisted_slots"] = banned;
  util::Json shards = util::Json::array();
  for (const dist::Coordinator::ShardStats& s : stats.shards) {
    util::Json e = util::Json::object();
    e["index"] = s.index;
    e["seeds"] = s.seeds;
    e["attempts"] = s.attempts;
    e["slot"] = s.slot;
    e["wall_ms"] = s.wall_ms;
    if (s.stolen_from >= 0) e["stolen_from"] = s.stolen_from;
    if (s.supersedes) e["supersedes"] = true;
    if (s.superseded) e["superseded"] = true;
    shards.push_back(e);
  }
  j["shards"] = shards;
  util::Json store = util::Json::object();
  store["hits"] = study.obs.counter("store.hits");
  store["misses"] = study.obs.counter("store.misses");
  store["shared_hits"] = study.obs.counter("store.shared_hits");
  store["shared_misses"] = study.obs.counter("store.shared_misses");
  store["bytes_read"] = study.obs.counter("store.bytes_read");
  store["bytes_published"] = study.obs.counter("store.bytes_published");
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
  const bool cleanup = auto_dir && !cli.keep_shard_dir;

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
  opts.steal_threshold = cli.steal_threshold;
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
    // file, so missing paths are expected, not errors. A shard's later
    // attempts join its lane; the writer's per-thread rules keep the
    // joined lane valid.
    if (opts.trace_spans) {
      for (const dist::Coordinator::ShardStats& s : study.stats.shards) {
        obs::TraceLane* lane = nullptr;
        for (int a = 0; a <= s.attempts; ++a) {
          const std::string path = shard_dir + "/shard-" +
                                   std::to_string(s.index) + "-trace-a" +
                                   std::to_string(a) + ".json";
          std::string open_error;
          const util::MmapFile file = util::MmapFile::open(path, &open_error);
          if (!open_error.empty()) continue;
          try {
            obs::TraceLane attempt = obs::read_chrome_trace(std::string_view(
                reinterpret_cast<const char*>(file.data()), file.size()));
            if (lane == nullptr) {
              lane = &study.trace_lanes.emplace_back(std::move(attempt));
              lane->pid = 1 + s.index;
              lane->name = "worker shard " + std::to_string(s.index);
            } else {
              lane->dropped += attempt.dropped;
              lane->events.insert(lane->events.end(), attempt.events.begin(),
                                  attempt.events.end());
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lcda_run: skipping damaged trace %s: %s\n",
                         path.c_str(), e.what());
          }
        }
      }
    }
  } catch (...) {
    std::error_code ec;
    if (cleanup) {
      fs::remove_all(shard_dir, ec);
    } else if (auto_dir) {
      std::fprintf(stderr, "lcda_run: shard dir kept at %s\n",
                   shard_dir.c_str());
    }
    throw;
  }
  if (cleanup) {
    std::error_code ec;
    fs::remove_all(shard_dir, ec);
  } else if (auto_dir) {
    std::fprintf(stderr, "lcda_run: shard dir kept at %s\n", shard_dir.c_str());
  }

  // One greppable scheduling summary per distributed run (bench_record.sh
  // and humans read it; byte-diffed outputs never include stderr). Store
  // fields come from the merged registry snapshot now; the field order is
  // frozen, new fields append at the end.
  const dist::Coordinator::Stats& st = study.stats;
  std::fprintf(stderr,
               "[dist] summary: shards=%d spawned=%d retries=%d steals=%d "
               "stolen_seeds=%d superseded=%d dead_workers=%d "
               "banlisted_slots=%zu pool_workers=%d store_hits=%lld "
               "store_shared=%lld store_misses=%lld store_bytes_read=%lld "
               "store_bytes_published=%lld resumed_episodes=%lld "
               "steal_considered=%d steal_suppressed_min_stale=%d\n",
               st.planned, st.spawned, st.retries, st.steals, st.stolen_seeds,
               st.superseded, st.dead_workers, st.banlisted_slots.size(),
               st.pool_workers, study.obs.counter("store.hits"),
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
                 "[obs] wrote span timeline %s (%zu events, %llu dropped)\n",
                 cli.trace_spans.c_str(), timeline.events(),
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

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      std::string value;
      if (arg == "--list") cli.list = true;
      else if (arg == "--print-config") cli.print_config = true;
      else if (arg == "--quiet") cli.quiet = true;
      else if (arg == "--aggregate") cli.aggregate = true;
      else if (arg == "--speedup") cli.speedup = true;
      else if (flag_value(arg, "--scenario-file=", cli.scenario_file)) {}
      else if (flag_value(arg, "--scenario-dir=", cli.scenario_dir)) {}
      else if (flag_value(arg, "--scenario=", cli.scenario)) {}
      else if (flag_value(arg, "--strategy=", cli.strategies)) {}
      else if (flag_value(arg, "--cache-dir=", cli.cache_dir)) {}
      else if (flag_value(arg, "--checkpoint-dir=", cli.checkpoint_dir)) {}
      else if (flag_value(arg, "--checkpoint-every=", value)) {
        cli.checkpoint_every = parse_number_flag(value, "--checkpoint-every", 1);
      }
      else if (arg == "--resume") cli.resume = true;
      else if (arg == "--store-compact") cli.store_compact = true;
      else if (arg == "--store-fsck") cli.store_fsck = true;
      else if (flag_value(arg, "--store-buckets=", value)) {
        cli.store_buckets = parse_number_flag(value, "--store-buckets", 1);
      } else if (flag_value(arg, "--store-max-entries=", value)) {
        cli.store_max_entries = parse_number_flag(value, "--store-max-entries", 0);
      } else if (flag_value(arg, "--store-max-bytes=", value)) {
        cli.store_max_bytes = parse_number_flag(value, "--store-max-bytes", 0);
      }
      else if (flag_value(arg, "--json=", cli.json_path)) {}
      else if (flag_value(arg, "--trace-spans=", cli.trace_spans)) {}
      else if (flag_value(arg, "--trace=", cli.trace_path)) {}
      else if (flag_value(arg, "--metrics-out=", cli.metrics_out)) {}
      else if (flag_value(arg, "--metrics-interval=", value)) {
        cli.metrics_interval = parse_double_flag(value, "--metrics-interval");
        if (cli.metrics_interval <= 0.0) {
          throw std::invalid_argument("bad value for --metrics-interval: \"" +
                                      value + "\" (want seconds > 0)");
        }
      }
      else if (flag_value(arg, "--shard-dir=", cli.shard_dir)) {}
      else if (arg == "--keep-shard-dir") cli.keep_shard_dir = true;
      else if (arg == "--no-steal") cli.no_steal = true;
      else if (flag_value(arg, "--steal-threshold=", value)) {
        cli.steal_threshold = parse_double_flag(value, "--steal-threshold");
        if (cli.steal_threshold < 1.0) {
          throw std::invalid_argument(
              "bad value for --steal-threshold: \"" + value +
              "\" (want a number >= 1)");
        }
        cli.steal_threshold_set = true;
      }
      else if (arg == "--worker-loop") cli.worker_loop = true;
      else if (arg == "--set" && i + 1 < argc) cli.overrides.emplace_back(argv[++i]);
      else if (flag_value(arg, "--set=", value)) cli.overrides.push_back(value);
      else if (flag_value(arg, "--episodes=", value)) {
        cli.episodes = static_cast<int>(parse_number_flag(value, "--episodes", 1));
      } else if (flag_value(arg, "--seeds=", value)) {
        cli.seeds = static_cast<int>(parse_number_flag(value, "--seeds", 1));
      } else if (flag_value(arg, "--seed=", value)) {
        cli.seed = parse_number_flag(value, "--seed", 0);
      } else if (flag_value(arg, "--parallelism=", value)) {
        cli.parallelism = static_cast<int>(parse_number_flag(value, "--parallelism", 0));
      } else if (flag_value(arg, "--distribute=", value)) {
        cli.distribute = static_cast<int>(parse_number_flag(value, "--distribute", 1));
      } else if (flag_value(arg, "--max-retries=", value)) {
        cli.max_retries = static_cast<int>(parse_number_flag(value, "--max-retries", 0));
        cli.max_retries_set = true;
      } else if (flag_value(arg, "--threshold-fraction=", value)) {
        cli.threshold_fraction = parse_double_flag(value, "--threshold-fraction");
      } else if (flag_value(arg, "--threshold=", value)) {
        cli.threshold = parse_double_flag(value, "--threshold");
      } else {
        std::fprintf(stderr, "lcda_run: unknown argument \"%s\"\n",
                     std::string(arg).c_str());
        return usage(argv[0]);
      }
    }

    // Internal worker mode: stay resident and execute specs dispatched
    // over stdin until `shutdown` or EOF. Everything a shard needs travels
    // in its spec file, so no other flag applies.
    if (cli.worker_loop) {
      return dist::run_worker_loop();
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

    // Store maintenance modes: act on the store directory and exit.
    if (cli.store_compact || cli.store_fsck) {
      if (cli.cache_dir.empty()) {
        std::fprintf(stderr,
                     "lcda_run: --store-compact/--store-fsck require "
                     "--cache-dir=DIR\n");
        return 2;
      }
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

    // Tracing to stdout reserves it for CSV; narration moves to stderr.
    std::FILE* const human = cli.trace_path == "-" ? stderr : stdout;

    if (!cli.scenario_dir.empty()) {
      (void)core::register_scenarios_from(cli.scenario_dir);
    }

    if (cli.list) {
      std::fprintf(human, "%-16s %s\n", "scenario", "what it stresses");
      for (const std::string& name : core::list_scenarios()) {
        const core::Scenario s = core::scenario_by_name(name);
        std::fprintf(human, "%-16s %s  [default strategy: %s]\n",
                     s.name.c_str(), s.summary.c_str(),
                     std::string(core::strategy_name(s.default_strategy)).c_str());
        if (!s.description.empty()) {
          std::fprintf(human, "%-16s %s\n", "", s.description.c_str());
        }
      }
      return 0;
    }

    if (cli.scenario.empty() == cli.scenario_file.empty()) {
      std::fprintf(stderr,
                   "lcda_run: exactly one of --scenario / --scenario-file "
                   "is required\n");
      return usage(argv[0]);
    }
    core::Scenario scenario = cli.scenario_file.empty()
                                  ? core::scenario_by_name(cli.scenario)
                                  : core::load_scenario(cli.scenario_file);

    for (const std::string& kv : cli.overrides) {
      core::apply_override(scenario.config, kv);
    }
    if (cli.seed >= 0) scenario.config.seed = static_cast<std::uint64_t>(cli.seed);
    scenario.config.parallelism =
        cli.parallelism >= 0 ? cli.parallelism : core::env_parallelism();
    if (!cli.cache_dir.empty()) scenario.config.persistent_cache_dir = cli.cache_dir;
    if (!cli.checkpoint_dir.empty()) {
      scenario.config.checkpoint_dir = cli.checkpoint_dir;
    }
    if (cli.checkpoint_every > 0) {
      scenario.config.checkpoint_every = static_cast<int>(cli.checkpoint_every);
    }
    if (cli.resume) scenario.config.resume = true;
    if ((cli.checkpoint_every > 0 || cli.resume) &&
        scenario.config.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "lcda_run: --checkpoint-every/--resume require "
                   "--checkpoint-dir (or a scenario checkpoint_dir)\n");
      return 2;
    }

    if (cli.print_config) {
      std::printf("%s\n", core::scenario_to_json(scenario).dump(2).c_str());
      return 0;
    }
    if (cli.seeds <= 0) {
      std::fprintf(stderr, "lcda_run: --seeds must be >= 1\n");
      return 2;
    }

    if (cli.aggregate && cli.speedup) {
      std::fprintf(stderr, "lcda_run: --aggregate and --speedup are exclusive\n");
      return usage(argv[0]);
    }
    // Flags another mode would silently ignore must fail loudly instead.
    if (cli.speedup && cli.episodes > 0) {
      std::fprintf(stderr,
                   "lcda_run: --speedup uses the scenario's episode budgets; "
                   "override them with --set lcda_episodes=N / "
                   "--set nacim_episodes=N instead of --episodes\n");
      return usage(argv[0]);
    }
    if (cli.speedup && !std::isnan(cli.threshold)) {
      std::fprintf(stderr,
                   "lcda_run: --threshold applies to --aggregate; --speedup "
                   "takes --threshold-fraction\n");
      return usage(argv[0]);
    }
    if (!cli.speedup && cli.threshold_fraction != 0.95) {
      std::fprintf(stderr, "lcda_run: --threshold-fraction requires --speedup\n");
      return usage(argv[0]);
    }
    if (!cli.aggregate && !std::isnan(cli.threshold)) {
      std::fprintf(stderr, "lcda_run: --threshold requires --aggregate\n");
      return usage(argv[0]);
    }
    if (cli.distribute == 0 &&
        (!cli.shard_dir.empty() || cli.max_retries_set || cli.keep_shard_dir ||
         cli.no_steal || cli.steal_threshold_set)) {
      std::fprintf(stderr,
                   "lcda_run: --shard-dir / --max-retries / --keep-shard-dir "
                   "/ --no-steal / --steal-threshold require --distribute\n");
      return usage(argv[0]);
    }

    const std::vector<core::Strategy> strategies =
        resolve_strategies(cli.strategies, scenario.default_strategy);

    std::fprintf(human, "# scenario %s: %s\n", scenario.name.c_str(),
                 scenario.summary.c_str());
    std::fprintf(human, "# parallelism %d, base seed %llu\n",
                 scenario.config.parallelism,
                 static_cast<unsigned long long>(scenario.config.seed));

    // --- multi-seed aggregate mode (SpeedupReport/AggregateResult were
    // engine-only until now; this surfaces them through the CLI) ---------
    if (cli.aggregate) {
      const std::vector<dist::StrategyStudy> studies =
          resolve_studies(cli, scenario, strategies);
      std::vector<core::AggregateResult> aggregates;
      util::Json dist_stats;
      std::optional<DistributedStudy> dstudy;
      if (cli.distribute > 0) {
        // Shard across worker processes and fold the manifests back; the
        // merged aggregates are byte-identical to the in-process branch.
        dstudy.emplace(run_distributed(cli, scenario,
                                       dist::ShardMode::kAggregate, studies,
                                       argv[0]));
        dist_stats = dist_stats_to_json(*dstudy);
        for (std::size_t k = 0; k < studies.size(); ++k) {
          const auto [specs, manifests] = dstudy->study_slice(k);
          aggregates.push_back(dist::merge_aggregate(specs, manifests));
        }
      } else {
        for (const dist::StrategyStudy& s : studies) {
          aggregates.push_back(core::run_aggregate(s.strategy, s.episodes,
                                                   cli.seeds, scenario.config,
                                                   cli.threshold));
        }
        if (!scenario.config.checkpoint_dir.empty()) {
          long long resumed = 0;
          for (const core::AggregateResult& agg : aggregates)
            resumed += agg.resumed_episodes;
          std::fprintf(stderr, "[ckpt] aggregate: resumed_episodes=%lld\n",
                       resumed);
        }
      }

      std::fprintf(human, "%-14s %8s %8s %10s %10s %10s %10s\n", "strategy",
                   "episodes", "seeds", "best mean", "stddev", "min", "max");
      for (const core::AggregateResult& agg : aggregates) {
        std::fprintf(human, "%-14s %8d %8d %10.4f %10.4f %10.4f %10.4f\n",
                     std::string(core::strategy_name(agg.strategy)).c_str(),
                     agg.episodes, agg.seeds, agg.final_best.mean(),
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
      }

      if (!cli.trace_path.empty()) {
        TraceOut trace;
        if (!open_trace(cli.trace_path, trace)) return 1;
        for (const core::AggregateResult& agg : aggregates) {
          core::write_aggregate_csv(*trace.stream, agg,
                                    core::strategy_name(agg.strategy));
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
        if (cli.distribute > 0) doc["dist"] = dist_stats;
        core::write_json_file(doc, cli.json_path);
        std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
      }
      write_observability(cli, dstudy ? &*dstudy : nullptr);
      return 0;
    }

    // --- paired LCDA-vs-NACIM speedup study -----------------------------
    if (cli.speedup) {
      std::vector<core::SpeedupReport> reports;
      util::Json dist_stats;
      std::optional<DistributedStudy> dstudy;
      if (cli.distribute > 0) {
        // The speedup study has no strategy axis: one plan over the seeds.
        dstudy.emplace(run_distributed(cli, scenario, dist::ShardMode::kSpeedup,
                                       {{core::Strategy::kLcda, 0}}, argv[0]));
        dist_stats = dist_stats_to_json(*dstudy);
        reports = dist::merge_speedup(dstudy->specs, dstudy->manifests);
      } else {
        reports = core::speedup_study(scenario.config, cli.seeds,
                                      cli.threshold_fraction);
        if (!scenario.config.checkpoint_dir.empty()) {
          long long resumed = 0;
          for (const core::SpeedupReport& r : reports)
            resumed += r.resumed_episodes;
          std::fprintf(stderr, "[ckpt] speedup: resumed_episodes=%lld\n",
                       resumed);
        }
      }
      std::fprintf(human, "%-6s %12s %10s %10s %10s %10s\n", "seed",
                   "threshold", "lcda eps", "nacim eps", "nacim best",
                   "speedup");
      util::OnlineStats speedups;
      for (std::size_t s = 0; s < reports.size(); ++s) {
        const core::SpeedupReport& r = reports[s];
        std::fprintf(human, "%-6zu %12.4f %10d %10d %10.4f %9.1fx\n", s,
                     r.threshold, r.lcda_episodes, r.nacim_episodes,
                     r.nacim_best, r.speedup());
        if (r.speedup() > 0.0) speedups.add(r.speedup());
      }
      if (speedups.count() > 0) {
        std::fprintf(human, "mean speedup over %zu seed(s): %.1fx\n",
                     speedups.count(), speedups.mean());
      }

      if (!cli.trace_path.empty()) {
        TraceOut trace;
        if (!open_trace(cli.trace_path, trace)) return 1;
        core::write_speedup_csv(*trace.stream, reports, scenario.name);
      }
      if (!cli.json_path.empty()) {
        util::Json doc = util::Json::object();
        doc["experiment"] = scenario.name;
        doc["seed"] = static_cast<long long>(scenario.config.seed);
        doc["speedup_study"] = core::speedup_study_to_json(reports);
        doc["scenario"] = core::scenario_to_json(scenario);
        if (cli.distribute > 0) doc["dist"] = dist_stats;
        core::write_json_file(doc, cli.json_path);
        std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
      }
      write_observability(cli, dstudy ? &*dstudy : nullptr);
      return 0;
    }

    // --- per-seed runs, sharded across worker processes -----------------
    if (cli.distribute > 0) {
      const std::vector<dist::StrategyStudy> studies =
          resolve_studies(cli, scenario, strategies);
      const DistributedStudy study = run_distributed(
          cli, scenario, dist::ShardMode::kRuns, studies, argv[0]);
      const std::vector<dist::MergedRun> runs =
          dist::merge_runs(study.specs, study.manifests);

      // Per-episode listings stay inside the workers; the coordinator
      // prints each run's summary (full traces flow through --json and
      // --trace, byte-identical to a non-distributed run).
      for (const dist::MergedRun& run : runs) {
        std::fprintf(human, "\n== %s (%lld episodes) ==\n", run.label.c_str(),
                     run.run_json.at("episodes").as_int());
        std::fprintf(human, "best reward %+0.4f at episode %d (%s)\n",
                     run.best_reward, run.best_episode,
                     run.best_design.c_str());
        std::fprintf(human,
                     "cache: %lld hits, %lld misses, %lld persistent hits%s\n",
                     run.cache_hits, run.cache_misses, run.persistent_hits,
                     shared_hits_suffix(run.persistent_shared_hits).c_str());
      }

      if (!cli.trace_path.empty()) {
        TraceOut trace;
        if (!open_trace(cli.trace_path, trace)) return 1;
        for (const dist::MergedRun& run : runs) *trace.stream << run.csv;
      }
      if (!cli.json_path.empty()) {
        // Same document shape as core::experiment_to_json, with each
        // worker's run JSON embedded verbatim.
        util::Json doc = util::Json::object();
        doc["experiment"] = scenario.name;
        doc["seed"] = static_cast<long long>(scenario.config.seed);
        util::Json arr = util::Json::array();
        for (const dist::MergedRun& run : runs) arr.push_back(run.run_json);
        doc["runs"] = arr;
        doc["scenario"] = core::scenario_to_json(scenario);
        doc["dist"] = dist_stats_to_json(study);
        core::write_json_file(doc, cli.json_path);
        std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
      }
      write_observability(cli, &study);
      return 0;
    }

    struct Completed {
      std::string label;
      core::RunResult run;
    };
    std::vector<Completed> completed;

    for (core::Strategy strategy : strategies) {
      const int episodes =
          cli.episodes > 0 ? cli.episodes
                           : core::default_episodes(strategy, scenario.config);
      for (int s = 0; s < cli.seeds; ++s) {
        core::ExperimentConfig config = scenario.config;
        config.seed = scenario.config.seed + static_cast<std::uint64_t>(s);
        const core::RunResult run =
            core::run_strategy(strategy, episodes, config);

        const std::string label = std::string(core::strategy_name(strategy)) +
                                  "/seed" + std::to_string(config.seed);
        std::fprintf(human, "\n== %s (%d episodes) ==\n", label.c_str(),
                     episodes);
        if (!cli.quiet) {
          for (const auto& ep : run.episodes) {
            std::fprintf(human,
                         "  ep %3d  reward %+8.3f  acc %.3f  E %10.4g pJ  "
                         "L %10.4g ns  %s%s\n",
                         ep.episode, ep.reward, ep.accuracy, ep.energy_pj,
                         ep.latency_ns, ep.design.rollout_text().c_str(),
                         ep.valid ? "" : "  [invalid]");
          }
        }
        std::fprintf(human, "best reward %+0.4f at episode %d (%s)\n",
                     run.best_reward(), run.best_episode,
                     run.best().design.describe().c_str());
        std::fprintf(human,
                     "cache: %lld hits, %lld misses, %lld persistent hits%s\n",
                     static_cast<long long>(run.cache_hits),
                     static_cast<long long>(run.cache_misses),
                     static_cast<long long>(run.persistent_hits),
                     shared_hits_suffix(run.persistent_shared_hits).c_str());
        if (!scenario.config.checkpoint_dir.empty()) {
          std::fprintf(stderr, "[ckpt] %s: resumed_episodes=%lld/%d\n",
                       label.c_str(),
                       static_cast<long long>(run.resumed_episodes), episodes);
        }
        completed.push_back({label, run});
      }
    }

    if (!cli.trace_path.empty()) {
      TraceOut trace;
      if (!open_trace(cli.trace_path, trace)) return 1;
      for (const Completed& c : completed) {
        core::write_run_csv(*trace.stream, c.run, c.label);
      }
    }

    if (!cli.json_path.empty()) {
      std::vector<core::LabelledRun> labelled;
      labelled.reserve(completed.size());
      for (const Completed& c : completed) {
        labelled.push_back({c.label, &c.run});
      }
      util::Json doc = core::experiment_to_json(scenario.name,
                                                scenario.config.seed, labelled);
      doc["scenario"] = core::scenario_to_json(scenario);
      core::write_json_file(doc, cli.json_path);
      std::fprintf(human, "\nwrote %s\n", cli.json_path.c_str());
    }
    write_observability(cli, nullptr);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcda_run: %s\n", e.what());
    return 1;
  }
}
