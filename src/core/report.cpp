#include "lcda/core/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "lcda/util/csv.h"
#include "lcda/util/strings.h"

namespace lcda::core {

util::Json design_to_json(const search::Design& design) {
  util::Json j = util::Json::object();
  util::Json rollout = util::Json::array();
  for (const auto& spec : design.rollout) {
    util::Json pair = util::Json::array();
    pair.push_back(spec.channels);
    pair.push_back(spec.kernel);
    rollout.push_back(pair);
  }
  j["rollout"] = rollout;
  util::Json hw = util::Json::object();
  hw["device"] = std::string(cim::device_name(design.hw.device));
  hw["bits_per_cell"] = design.hw.bits_per_cell;
  hw["weight_bits"] = design.hw.weight_bits;
  hw["adc_bits"] = design.hw.adc_bits;
  hw["xbar_size"] = design.hw.xbar_size;
  hw["col_mux"] = design.hw.col_mux;
  j["hardware"] = hw;
  return j;
}

util::Json episode_to_json(const EpisodeRecord& episode) {
  util::Json j = util::Json::object();
  j["episode"] = episode.episode;
  j["accuracy"] = episode.accuracy;
  j["energy_pj"] = episode.energy_pj;
  j["latency_ns"] = episode.latency_ns;
  j["area_mm2"] = episode.area_mm2;
  j["reward"] = episode.reward;
  j["valid"] = episode.valid;
  j["design"] = design_to_json(episode.design);
  return j;
}

util::Json run_to_json(const RunResult& run, std::string_view label) {
  util::Json j = util::Json::object();
  j["label"] = label;
  j["episodes"] = static_cast<long long>(run.episodes.size());
  if (!run.episodes.empty()) {
    j["best_episode"] = run.best_episode;
    j["best_reward"] = run.best_reward();
  }
  for_each_cache_counter(
      [&](const char* key, long long v) { j[key] = v; }, run);
  util::Json eps = util::Json::array();
  for (const auto& ep : run.episodes) eps.push_back(episode_to_json(ep));
  j["trace"] = eps;
  return j;
}

util::Json experiment_to_json(std::string_view name, std::uint64_t seed,
                              const std::vector<LabelledRun>& runs) {
  util::Json j = util::Json::object();
  j["experiment"] = name;
  j["seed"] = static_cast<long long>(seed);
  util::Json arr = util::Json::array();
  for (const auto& lr : runs) {
    if (!lr.run) throw std::invalid_argument("experiment_to_json: null run");
    arr.push_back(run_to_json(*lr.run, lr.label));
  }
  j["runs"] = arr;
  return j;
}

util::Json aggregate_to_json(const AggregateResult& agg) {
  util::Json j = util::Json::object();
  j["strategy"] = std::string(strategy_name(agg.strategy));
  j["episodes"] = agg.episodes;
  j["seeds"] = agg.seeds;
  util::Json final_best = util::Json::object();
  final_best["mean"] = agg.final_best.mean();
  final_best["stddev"] = agg.final_best.stddev();
  final_best["min"] = agg.final_best.min();
  final_best["max"] = agg.final_best.max();
  j["final_best"] = final_best;
  // Emitted whenever a threshold was requested — "reached: 0" must stay
  // distinguishable from "no threshold study" for JSON consumers.
  if (!std::isnan(agg.threshold)) {
    util::Json thresh = util::Json::object();
    thresh["threshold"] = agg.threshold;
    thresh["reached"] = agg.reached;
    if (agg.reached > 0) {
      thresh["mean_episodes"] = agg.episodes_to_threshold.mean();
    }
    j["episodes_to_threshold"] = thresh;
  }
  for_each_cache_counter(
      [&](const char* key, long long v) { j[key] = v; }, agg);
  util::Json mean = util::Json::array();
  util::Json stddev = util::Json::array();
  for (const util::OnlineStats& s : agg.running_best) {
    mean.push_back(s.mean());
    stddev.push_back(s.stddev());
  }
  j["running_best_mean"] = mean;
  j["running_best_stddev"] = stddev;
  return j;
}

util::Json speedup_study_to_json(const std::vector<SpeedupReport>& reports) {
  util::Json j = util::Json::object();
  util::Json arr = util::Json::array();
  util::OnlineStats speedups;
  for (const SpeedupReport& r : reports) {
    util::Json entry = util::Json::object();
    for_each_speedup_field(r, [&](const char* key, auto v) { entry[key] = v; });
    entry["speedup"] = r.speedup();
    arr.push_back(entry);
    if (r.speedup() > 0.0) speedups.add(r.speedup());
  }
  j["seeds"] = static_cast<long long>(reports.size());
  j["reached_both"] = static_cast<long long>(speedups.count());
  if (speedups.count() > 0) j["mean_speedup"] = speedups.mean();
  j["per_seed"] = arr;
  return j;
}

void write_aggregate_csv(std::ostream& os, const AggregateResult& agg,
                         std::string_view label) {
  util::CsvWriter csv(os);
  for (std::size_t e = 0; e < agg.running_best.size(); ++e) {
    const util::OnlineStats& s = agg.running_best[e];
    csv.field(label)
        .field(static_cast<long long>(e))
        .field(s.mean())
        .field(s.stddev())
        .field(s.min())
        .field(s.max())
        .endrow();
  }
}

void write_speedup_csv(std::ostream& os,
                       const std::vector<SpeedupReport>& reports,
                       std::string_view label) {
  util::CsvWriter csv(os);
  for (std::size_t s = 0; s < reports.size(); ++s) {
    const SpeedupReport& r = reports[s];
    csv.field(label)
        .field(static_cast<long long>(s))
        .field(r.threshold)
        .field(r.lcda_episodes)
        .field(r.nacim_episodes)
        .field(r.lcda_best)
        .field(r.nacim_best)
        .field(r.speedup())
        .endrow();
  }
}

void write_json_file(const util::Json& j, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_json_file: cannot write " + path);
  out << j.dump(2) << '\n';
  if (!out.flush()) throw std::runtime_error("write_json_file: write failed");
}

std::string json_output_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (util::starts_with(arg, "--json=")) {
      return std::string(arg.substr(std::string_view("--json=").size()));
    }
  }
  return {};
}

std::vector<std::string> positional_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (!util::starts_with(argv[i], "--")) out.emplace_back(argv[i]);
  }
  return out;
}

int positive_count_arg(const std::vector<std::string>& args, std::size_t index,
                       int fallback, const char* usage) {
  if (index >= args.size()) return fallback;
  const auto value = util::parse_int(args[index]);
  if (!value || *value < 1 || *value > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "\"%s\" is not a positive integer\nusage: %s\n",
                 args[index].c_str(), usage);
    std::exit(2);
  }
  return static_cast<int>(*value);
}

}  // namespace lcda::core
