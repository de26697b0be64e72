#include "lcda/dist/merge.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "lcda/core/report.h"

namespace lcda::dist {

namespace {

constexpr std::string_view kResultFormat = "lcda-shard-result-v1";

/// One study slot of a plan: the spec every slice of it agrees with, and
/// its seeds' manifest entries, indexed by seed.
struct Slot {
  const ShardSpec* head = nullptr;
  std::vector<util::Json> entries;
};

bool same_study(const ShardSpec& a, const ShardSpec& b) {
  const bool same_threshold = (std::isnan(a.threshold) && std::isnan(b.threshold)) ||
                              a.threshold == b.threshold;
  return a.mode == b.mode && a.strategy == b.strategy &&
         a.episodes == b.episodes && a.total_seeds == b.total_seeds &&
         same_threshold && a.threshold_fraction == b.threshold_fraction;
}

/// Groups a plan's shards by study_slot, slots in first-appearance order
/// (the planner's strategy order: steal specs are appended out of plan
/// order but inherit their parent's slot), and collects each slot's
/// entries with exactly-once arbitration: a seed published by two
/// DIFFERENT shards is legal under work stealing (a revocation can race
/// the worker's own start of that seed), and both copies are
/// byte-identical because per-seed entries are partition-independent —
/// so the merge deterministically keeps the lowest shard index,
/// regardless of which worker won the wall-clock race. The same shard
/// listing a seed twice is still a hard error, as is a missing seed or
/// one outside the study: a statistic must never quietly cover the wrong
/// seed set. Every shard must be a `mode` shard agreeing with its slot on
/// the study definition.
std::vector<Slot> entries_by_slot(const std::vector<ShardSpec>& specs,
                                  const std::vector<util::Json>& manifests,
                                  ShardMode mode, const std::string& who) {
  if (specs.size() != manifests.size()) {
    throw std::invalid_argument(who + ": specs/manifests size mismatch");
  }
  std::map<int, std::size_t> position;  // study_slot -> index into slots
  std::vector<Slot> slots;
  // Per slot: seed -> (publishing shard index, entry).
  std::vector<std::map<int, std::pair<int, util::Json>>> published;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ShardSpec& spec = specs[i];
    const auto [at, fresh] = position.emplace(spec.study_slot, slots.size());
    if (fresh) {
      slots.push_back({&spec, {}});
      published.emplace_back();
    }
    if (spec.mode != mode || !same_study(spec, *slots[at->second].head)) {
      throw std::invalid_argument(who +
                                  ": shards disagree on the study definition");
    }
    for (const util::Json& entry : manifests[i].at("entries").elements()) {
      const int seed = static_cast<int>(entry.at("seed").as_int());
      const auto [held, first] =
          published[at->second].try_emplace(seed, spec.index, entry);
      if (first) continue;
      if (held->second.first == spec.index) {
        throw std::runtime_error(who + ": seed " + std::to_string(seed) +
                                 " appears in more than one shard");
      }
      if (spec.index < held->second.first) held->second = {spec.index, entry};
    }
  }
  for (std::size_t k = 0; k < slots.size(); ++k) {
    for (int s = 0; s < slots[k].head->total_seeds; ++s) {
      const auto held = published[k].find(s);
      if (held == published[k].end()) {
        throw std::runtime_error(who + ": seed " + std::to_string(s) +
                                 " missing from the shard results");
      }
      slots[k].entries.push_back(std::move(held->second.second));
    }
    if (published[k].size() != slots[k].entries.size()) {
      throw std::runtime_error(who +
                               ": shard results cover seeds outside the study");
    }
  }
  return slots;
}

/// Reads a manifest number into an integer or a double field.
template <typename T>
void read_number(const util::Json& j, T& field) {
  if constexpr (std::is_integral_v<T>) {
    field = static_cast<T>(j.as_int());
  } else {
    field = j.as_double();
  }
}

}  // namespace

util::Json shard_manifest(const ShardSpec& spec, util::Json entries,
                          util::Json obs) {
  util::Json manifest = util::Json::object();
  manifest["format"] = kResultFormat;
  manifest["shard"] = spec.index;
  manifest["count"] = spec.count;
  manifest["mode"] = std::string(shard_mode_name(spec.mode));
  manifest["strategy"] = std::string(core::strategy_name(spec.strategy));
  manifest["episodes"] = spec.episodes;
  manifest["spec_checksum"] = hex64(shard_spec_checksum(spec));
  manifest["entries"] = std::move(entries);
  manifest["obs"] = std::move(obs);
  return manifest;
}

util::Json load_shard_manifest(const ShardSpec& spec) {
  std::ifstream in(spec.result_path);
  if (!in) {
    throw std::runtime_error("load_shard_manifest: cannot open " +
                             spec.result_path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  util::Json manifest;
  try {
    manifest = util::Json::parse(buffer.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("load_shard_manifest: corrupt manifest " +
                             spec.result_path + ": " + e.what());
  }
  if (!manifest.contains("format") ||
      manifest.at("format").as_string() != kResultFormat) {
    throw std::runtime_error("load_shard_manifest: " + spec.result_path +
                             " is not a " + std::string(kResultFormat) +
                             " file");
  }
  if (static_cast<int>(manifest.at("shard").as_int()) != spec.index ||
      manifest.at("mode").as_string() != shard_mode_name(spec.mode) ||
      manifest.at("spec_checksum").as_string() !=
          hex64(shard_spec_checksum(spec))) {
    throw std::runtime_error(
        "load_shard_manifest: " + spec.result_path +
        " does not match its shard spec (stale shard directory?)");
  }
  return manifest;
}

util::Json aggregate_entry(int seed, const core::AggregateSeedRecord& record,
                           double threshold) {
  util::Json e = util::Json::object();
  e["seed"] = seed;
  e["final_best"] = record.final_best;
  util::Json rmax = util::Json::array();
  for (double r : record.running_max) rmax.push_back(r);
  e["running_max"] = std::move(rmax);
  core::for_each_cache_counter(
      [&](const char* key, long long v) { e[key] = v; }, record);
  if (!std::isnan(threshold)) e["threshold_episode"] = record.threshold_episode;
  return e;
}

std::vector<core::AggregateResult> merge_aggregate(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests) {
  std::vector<core::AggregateResult> out;
  for (const Slot& slot : entries_by_slot(specs, manifests,
                                          ShardMode::kAggregate,
                                          "merge_aggregate")) {
    const double threshold = slot.head->threshold;
    std::vector<core::AggregateSeedRecord> records(slot.entries.size());
    for (std::size_t s = 0; s < records.size(); ++s) {
      const util::Json& entry = slot.entries[s];
      core::AggregateSeedRecord& r = records[s];
      r.final_best = entry.at("final_best").as_double();
      for (const util::Json& v : entry.at("running_max").elements()) {
        r.running_max.push_back(v.as_double());
      }
      core::for_each_cache_counter(
          [&](const char* key, auto& v) { read_number(entry.at(key), v); }, r);
      if (!std::isnan(threshold)) {
        read_number(entry.at("threshold_episode"), r.threshold_episode);
      }
    }
    out.push_back(core::fold_aggregate(slot.head->strategy, slot.head->episodes,
                                       threshold, records));
  }
  return out;
}

util::Json speedup_entry(int seed, const core::SpeedupReport& report) {
  util::Json e = util::Json::object();
  e["seed"] = seed;
  core::for_each_speedup_field(report,
                               [&](const char* key, auto v) { e[key] = v; });
  return e;
}

std::vector<core::SpeedupReport> merge_speedup(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests) {
  const std::vector<Slot> slots =
      entries_by_slot(specs, manifests, ShardMode::kSpeedup, "merge_speedup");
  if (slots.size() != 1) {
    throw std::invalid_argument("merge_speedup: a speedup study has one slot");
  }
  std::vector<core::SpeedupReport> out(slots.front().entries.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    core::for_each_speedup_field(out[s], [&](const char* key, auto& v) {
      read_number(slots.front().entries[s].at(key), v);
    });
  }
  return out;
}

MergedRun run_record(int seed, const std::string& label,
                     const core::RunResult& run) {
  MergedRun r;
  r.seed = seed;
  r.label = label;
  r.episodes = static_cast<long long>(run.episodes.size());
  r.best_reward = run.best_reward();
  r.best_episode = run.best_episode;
  r.best_design = run.best().design.describe();
  core::for_each_cache_counter(
      [](const char*, long long& to, std::int64_t from) { to = from; }, r, run);
  return r;
}

util::Json run_entry(int seed, const std::string& label,
                     const core::RunResult& run) {
  MergedRun record = run_record(seed, label, run);
  util::Json e = util::Json::object();
  e["seed"] = record.seed;
  e["label"] = std::move(record.label);
  e["best_reward"] = record.best_reward;
  e["best_episode"] = record.best_episode;
  e["best_design"] = std::move(record.best_design);
  core::for_each_cache_counter(
      [&](const char* key, long long v) { e[key] = v; }, record);
  e["run"] = core::run_to_json(run, label);
  std::ostringstream rows;
  core::write_run_csv(rows, run, label);
  e["csv"] = std::move(rows).str();
  return e;
}

std::vector<MergedRun> merge_runs(const std::vector<ShardSpec>& specs,
                                  const std::vector<util::Json>& manifests) {
  std::vector<MergedRun> out;
  for (const Slot& slot :
       entries_by_slot(specs, manifests, ShardMode::kRuns, "merge_runs")) {
    for (std::size_t s = 0; s < slot.entries.size(); ++s) {
      const util::Json& entry = slot.entries[s];
      MergedRun& run = out.emplace_back();
      run.seed = static_cast<int>(s);
      run.label = entry.at("label").as_string();
      run.run_json = entry.at("run");
      run.episodes = run.run_json.at("episodes").as_int();
      run.csv = entry.at("csv").as_string();
      run.best_reward = entry.at("best_reward").as_double();
      run.best_episode = static_cast<int>(entry.at("best_episode").as_int());
      run.best_design = entry.at("best_design").as_string();
      core::for_each_cache_counter(
          [&](const char* key, auto& v) { read_number(entry.at(key), v); }, run);
    }
  }
  return out;
}

}  // namespace lcda::dist
