#include "lcda/dist/merge.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "lcda/core/report.h"
#include "lcda/util/strings.h"

namespace lcda::dist {

namespace {

constexpr std::string_view kResultFormat = "lcda-shard-result-v1";

std::string hex64(std::uint64_t v) { return "0x" + util::hex_u64(v); }

/// Collects every (seed -> entry) pair of one shard group, with
/// exactly-once arbitration: a seed published by two DIFFERENT shards is
/// legal under work stealing (a revocation can race the worker's own
/// start of that seed, and a supersede duplicate can tie with its
/// parent), and both copies are byte-identical because per-seed entries
/// are partition-independent — so the merge deterministically keeps the
/// lowest shard index, regardless of which worker won the wall-clock
/// race. The same shard listing a seed twice is still a hard error, as
/// is a missing seed or one outside the study: a statistic must never
/// quietly cover the wrong seed set.
std::map<int, util::Json> entries_by_seed(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests,
    const std::vector<std::size_t>& group, int total_seeds) {
  if (specs.size() != manifests.size()) {
    throw std::invalid_argument("merge: specs/manifests size mismatch");
  }
  std::map<int, std::pair<int, util::Json>> by_seed;  // seed -> (index, entry)
  for (std::size_t i : group) {
    for (const util::Json& entry : manifests[i].at("entries").elements()) {
      const int seed = static_cast<int>(entry.at("seed").as_int());
      const auto it = by_seed.find(seed);
      if (it == by_seed.end()) {
        by_seed.emplace(seed, std::make_pair(specs[i].index, entry));
      } else if (it->second.first == specs[i].index) {
        throw std::runtime_error("merge: seed " + std::to_string(seed) +
                                 " appears in more than one shard");
      } else if (specs[i].index < it->second.first) {
        it->second = std::make_pair(specs[i].index, entry);
      }
    }
  }
  for (int s = 0; s < total_seeds; ++s) {
    if (by_seed.find(s) == by_seed.end()) {
      throw std::runtime_error("merge: seed " + std::to_string(s) +
                               " missing from the shard results");
    }
  }
  if (static_cast<int>(by_seed.size()) != total_seeds) {
    throw std::runtime_error("merge: shard results cover seeds outside the study");
  }
  std::map<int, util::Json> out;
  for (auto& [seed, indexed] : by_seed) {
    out.emplace(seed, std::move(indexed.second));
  }
  return out;
}

std::vector<std::size_t> all_positions(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

}  // namespace

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

core::AggregateResult merge_aggregate(const std::vector<ShardSpec>& specs,
                                      const std::vector<util::Json>& manifests) {
  if (specs.empty()) throw std::invalid_argument("merge_aggregate: no shards");
  const ShardSpec& head = specs.front();
  for (const ShardSpec& spec : specs) {
    const bool same_threshold =
        (std::isnan(spec.threshold) && std::isnan(head.threshold)) ||
        spec.threshold == head.threshold;
    if (spec.mode != ShardMode::kAggregate || spec.strategy != head.strategy ||
        spec.episodes != head.episodes ||
        spec.total_seeds != head.total_seeds || !same_threshold) {
      throw std::invalid_argument(
          "merge_aggregate: shards disagree on the study definition");
    }
  }

  const auto by_seed = entries_by_seed(specs, manifests,
                                       all_positions(specs.size()),
                                       head.total_seeds);

  // Replays core::run_aggregate's fold over the per-seed summaries, in
  // canonical seed order. Keep the two in lockstep: any new AggregateResult
  // field needs a manifest entry field and a line here.
  core::AggregateResult agg;
  agg.strategy = head.strategy;
  agg.episodes = head.episodes;
  agg.seeds = head.total_seeds;
  agg.threshold = head.threshold;
  agg.running_best.resize(static_cast<std::size_t>(head.episodes));
  for (const auto& [seed, entry] : by_seed) {
    const std::vector<util::Json> rmax = entry.at("running_max").elements();
    if (rmax.size() != agg.running_best.size()) {
      throw std::runtime_error("merge_aggregate: seed " +
                               std::to_string(seed) +
                               " has a wrong-length running_max");
    }
    for (std::size_t e = 0; e < rmax.size(); ++e) {
      agg.running_best[e].add(rmax[e].as_double());
    }
    agg.final_best.add(entry.at("final_best").as_double());
    agg.cache_hits += entry.at("cache_hits").as_int();
    agg.cache_misses += entry.at("cache_misses").as_int();
    agg.persistent_hits += entry.at("persistent_hits").as_int();
    agg.persistent_shared_hits += entry.at("persistent_shared_hits").as_int();
    agg.persistent_skipped += entry.at("persistent_skipped").as_int();
    agg.persistent_save_failures +=
        entry.at("persistent_save_failures").as_int();
    if (!std::isnan(head.threshold)) {
      const int hit = static_cast<int>(entry.at("threshold_episode").as_int());
      if (hit >= 0) {
        agg.episodes_to_threshold.add(static_cast<double>(hit) + 1.0);
        ++agg.reached;
      }
    }
  }
  return agg;
}

std::vector<core::SpeedupReport> merge_speedup(
    const std::vector<ShardSpec>& specs,
    const std::vector<util::Json>& manifests) {
  if (specs.empty()) throw std::invalid_argument("merge_speedup: no shards");
  for (const ShardSpec& spec : specs) {
    if (spec.mode != ShardMode::kSpeedup ||
        spec.total_seeds != specs.front().total_seeds) {
      throw std::invalid_argument(
          "merge_speedup: shards disagree on the study definition");
    }
  }
  const auto by_seed =
      entries_by_seed(specs, manifests, all_positions(specs.size()),
                      specs.front().total_seeds);

  std::vector<core::SpeedupReport> out;
  out.reserve(by_seed.size());
  for (const auto& [seed, entry] : by_seed) {
    core::SpeedupReport r;
    r.threshold = entry.at("threshold").as_double();
    r.lcda_episodes = static_cast<int>(entry.at("lcda_episodes").as_int());
    r.nacim_episodes = static_cast<int>(entry.at("nacim_episodes").as_int());
    r.lcda_best = entry.at("lcda_best").as_double();
    r.nacim_best = entry.at("nacim_best").as_double();
    out.push_back(r);
  }
  return out;
}

MergedRun run_record(int seed, const std::string& label,
                     const core::RunResult& run, bool json, bool csv) {
  MergedRun r;
  r.seed = seed;
  r.label = label;
  r.episodes = static_cast<long long>(run.episodes.size());
  if (json) r.run_json = core::run_to_json(run, label);
  if (csv) {
    std::ostringstream rows;
    core::write_run_csv(rows, run, label);
    r.csv = std::move(rows).str();
  }
  r.best_reward = run.best_reward();
  r.best_episode = run.best_episode;
  r.best_design = run.best().design.describe();
  r.cache_hits = run.cache_hits;
  r.cache_misses = run.cache_misses;
  r.persistent_hits = run.persistent_hits;
  r.persistent_shared_hits = run.persistent_shared_hits;
  r.persistent_skipped = run.persistent_skipped;
  r.persistent_save_failures = run.persistent_save_failures;
  return r;
}

util::Json run_entry(MergedRun run) {
  util::Json e = util::Json::object();
  e["seed"] = run.seed;
  e["label"] = std::move(run.label);
  e["best_reward"] = run.best_reward;
  e["best_episode"] = run.best_episode;
  e["best_design"] = std::move(run.best_design);
  e["cache_hits"] = run.cache_hits;
  e["cache_misses"] = run.cache_misses;
  e["persistent_hits"] = run.persistent_hits;
  e["persistent_shared_hits"] = run.persistent_shared_hits;
  e["persistent_skipped"] = run.persistent_skipped;
  e["persistent_save_failures"] = run.persistent_save_failures;
  e["run"] = std::move(run.run_json);
  e["csv"] = std::move(run.csv);
  return e;
}

std::vector<MergedRun> merge_runs(const std::vector<ShardSpec>& specs,
                                  const std::vector<util::Json>& manifests) {
  if (specs.size() != manifests.size()) {
    throw std::invalid_argument("merge_runs: specs/manifests size mismatch");
  }
  // Canonical order is study-major (the planner's strategy order), seeds
  // ascending within a study. The plan used to guarantee that by
  // construction; steal specs appended by the coordinator break the
  // contiguity, so group by study_slot in first-appearance order and sort
  // each group's seeds explicitly.
  std::vector<int> slot_order;
  std::map<int, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].mode != ShardMode::kRuns) {
      throw std::invalid_argument("merge_runs: non-runs shard in the plan");
    }
    auto [it, fresh] = groups.emplace(specs[i].study_slot,
                                      std::vector<std::size_t>{});
    if (fresh) slot_order.push_back(specs[i].study_slot);
    it->second.push_back(i);
  }

  std::vector<MergedRun> out;
  for (int slot : slot_order) {
    const std::vector<std::size_t>& group = groups.at(slot);
    const ShardSpec& head = specs[group.front()];
    for (std::size_t i : group) {
      if (specs[i].strategy != head.strategy ||
          specs[i].episodes != head.episodes ||
          specs[i].total_seeds != head.total_seeds) {
        throw std::invalid_argument(
            "merge_runs: shards of one study slot disagree on its "
            "definition");
      }
    }
    const auto by_seed =
        entries_by_seed(specs, manifests, group, head.total_seeds);
    for (const auto& [seed, entry] : by_seed) {
      MergedRun run;
      run.seed = seed;
      run.label = entry.at("label").as_string();
      run.run_json = entry.at("run");
      run.episodes = run.run_json.at("episodes").as_int();
      run.csv = entry.at("csv").as_string();
      run.best_reward = entry.at("best_reward").as_double();
      run.best_episode = static_cast<int>(entry.at("best_episode").as_int());
      run.best_design = entry.at("best_design").as_string();
      run.cache_hits = entry.at("cache_hits").as_int();
      run.cache_misses = entry.at("cache_misses").as_int();
      run.persistent_hits = entry.at("persistent_hits").as_int();
      run.persistent_shared_hits =
          entry.at("persistent_shared_hits").as_int();
      run.persistent_skipped = entry.at("persistent_skipped").as_int();
      run.persistent_save_failures =
          entry.at("persistent_save_failures").as_int();
      out.push_back(std::move(run));
    }
  }
  return out;
}

}  // namespace lcda::dist
