#include "lcda/dist/shard.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lcda/core/report.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"
#include "lcda/util/thread_pool.h"

namespace lcda::dist {

namespace {

constexpr std::string_view kSpecFormat = "lcda-shard-spec-v1";

/// The identity payload behind shard_spec_checksum: everything that shapes
/// the worker's computation, nothing that merely locates its files.
util::Json identity_json(const ShardSpec& spec) {
  util::Json j = util::Json::object();
  j["mode"] = std::string(shard_mode_name(spec.mode));
  j["scenario"] = core::scenario_to_json(spec.scenario,
                                         /*include_defaults=*/true);
  j["strategy"] = std::string(core::strategy_name(spec.strategy));
  j["episodes"] = spec.episodes;
  j["total_seeds"] = spec.total_seeds;
  util::Json seeds = util::Json::array();
  for (int s : spec.seeds) seeds.push_back(s);
  j["seeds"] = seeds;
  // NaN has no JSON literal; encode "no threshold" as its absence.
  if (!std::isnan(spec.threshold)) j["threshold"] = spec.threshold;
  j["threshold_fraction"] = spec.threshold_fraction;
  return j;
}

}  // namespace

std::string hex64(std::uint64_t v) { return "0x" + util::hex_u64(v); }

std::string_view shard_mode_name(ShardMode m) {
  switch (m) {
    case ShardMode::kRuns: return "runs";
    case ShardMode::kAggregate: return "aggregate";
    case ShardMode::kSpeedup: return "speedup";
  }
  return "?";
}

ShardMode shard_mode_from_name(std::string_view name) {
  if (name == "runs") return ShardMode::kRuns;
  if (name == "aggregate") return ShardMode::kAggregate;
  if (name == "speedup") return ShardMode::kSpeedup;
  throw std::invalid_argument("shard_mode_from_name: unknown mode \"" +
                              std::string(name) + "\"");
}

util::Json shard_spec_to_json(const ShardSpec& spec) {
  util::Json j = util::Json::object();
  j["format"] = kSpecFormat;
  j["index"] = spec.index;
  j["count"] = spec.count;
  j["mode"] = std::string(shard_mode_name(spec.mode));
  // The scenario travels in its sparse (non-default) form, the exact shape
  // scenario round-trip guarantees bit-exact reloads for.
  j["scenario"] = core::scenario_to_json(spec.scenario);
  j["strategy"] = std::string(core::strategy_name(spec.strategy));
  j["episodes"] = spec.episodes;
  j["total_seeds"] = spec.total_seeds;
  util::Json seeds = util::Json::array();
  for (int s : spec.seeds) seeds.push_back(s);
  j["seeds"] = seeds;
  if (!std::isnan(spec.threshold)) j["threshold"] = spec.threshold;
  j["threshold_fraction"] = spec.threshold_fraction;
  // The per-study checkpoint key, so a shard spec in a log names the
  // checkpoint directory its runs will use (aggregate/runs modes only —
  // the speedup study spans two strategies and both budgets).
  if (spec.mode != ShardMode::kSpeedup) {
    j["study_fingerprint"] = hex64(core::study_fingerprint(
        spec.scenario.config, spec.strategy, spec.episodes));
  }
  j["spec_checksum"] = hex64(shard_spec_checksum(spec));
  j["result_path"] = spec.result_path;
  // Scheduling bookkeeping travels outside the identity checksum: two
  // specs that compute the same seeds are the same study slice no matter
  // where their files live or which shard they were stolen from.
  if (spec.study_slot != 0) j["study_slot"] = spec.study_slot;
  if (!spec.trace_path.empty()) j["trace_path"] = spec.trace_path;
  if (spec.stolen_from >= 0) j["stolen_from"] = spec.stolen_from;
  j["attempt"] = spec.attempt;
  return j;
}

ShardSpec shard_spec_from_json(const util::Json& j) {
  if (!j.is_object() || !j.contains("format") ||
      j.at("format").as_string() != kSpecFormat) {
    throw std::invalid_argument(std::string("shard_spec_from_json: not a ") +
                                std::string(kSpecFormat) + " document");
  }
  ShardSpec spec;
  spec.index = static_cast<int>(j.at("index").as_int());
  spec.count = static_cast<int>(j.at("count").as_int());
  spec.mode = shard_mode_from_name(j.at("mode").as_string());
  spec.scenario = core::scenario_from_json(j.at("scenario"));
  spec.strategy = core::strategy_from_name(j.at("strategy").as_string());
  spec.episodes = static_cast<int>(j.at("episodes").as_int());
  spec.total_seeds = static_cast<int>(j.at("total_seeds").as_int());
  spec.seeds.clear();
  for (const util::Json& s : j.at("seeds").elements()) {
    spec.seeds.push_back(static_cast<int>(s.as_int()));
  }
  if (j.contains("threshold")) spec.threshold = j.at("threshold").as_double();
  spec.threshold_fraction = j.at("threshold_fraction").as_double();
  spec.result_path = j.at("result_path").as_string();
  if (j.contains("study_slot")) {
    spec.study_slot = static_cast<int>(j.at("study_slot").as_int());
  }
  if (j.contains("trace_path")) {
    spec.trace_path = j.at("trace_path").as_string();
  }
  if (j.contains("stolen_from")) {
    spec.stolen_from = static_cast<int>(j.at("stolen_from").as_int());
  }
  spec.attempt = static_cast<int>(j.at("attempt").as_int());
  // A spec edited out from under its checksum must fail before it can
  // produce a manifest the merger would then reject more confusingly.
  if (j.contains("spec_checksum") &&
      j.at("spec_checksum").as_string() != hex64(shard_spec_checksum(spec))) {
    throw std::invalid_argument(
        "shard_spec_from_json: spec_checksum does not match the spec body");
  }
  return spec;
}

ShardSpec load_shard_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_shard_spec: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return shard_spec_from_json(util::Json::parse(buffer.str()));
}

void save_shard_spec(const ShardSpec& spec, const std::string& path) {
  core::write_json_file(shard_spec_to_json(spec), path);
}

std::uint64_t shard_spec_checksum(const ShardSpec& spec) {
  return util::fnv1a64(identity_json(spec).dump());
}

std::vector<ShardSpec> plan_shards(const core::Scenario& scenario,
                                   ShardMode mode,
                                   const std::vector<StrategyStudy>& strategies,
                                   int seeds, int shards, double threshold,
                                   double threshold_fraction) {
  if (seeds < 1) throw std::invalid_argument("plan_shards: seeds must be >= 1");
  if (shards < 1) throw std::invalid_argument("plan_shards: shards must be >= 1");
  if (strategies.empty()) {
    throw std::invalid_argument("plan_shards: no strategies");
  }

  std::vector<ShardSpec> plan;
  int index = 0;
  int slot = 0;
  for (const StrategyStudy& study : strategies) {
    const std::size_t chunks = static_cast<std::size_t>(
        std::min(shards, seeds));
    for (std::size_t c = 0; c < chunks; ++c) {
      const util::ChunkRange range =
          util::chunk_range(static_cast<std::size_t>(seeds), chunks, c);
      ShardSpec spec;
      spec.index = index++;
      spec.mode = mode;
      spec.scenario = scenario;
      spec.strategy = study.strategy;
      spec.episodes = study.episodes;
      spec.total_seeds = seeds;
      spec.study_slot = slot;
      spec.threshold = threshold;
      spec.threshold_fraction = threshold_fraction;
      for (std::size_t s = range.begin; s < range.end; ++s) {
        spec.seeds.push_back(static_cast<int>(s));
      }
      plan.push_back(std::move(spec));
    }
    // The speedup study has no per-strategy axis: one pass over the seeds.
    if (mode == ShardMode::kSpeedup) break;
    ++slot;
  }
  for (ShardSpec& spec : plan) spec.count = static_cast<int>(plan.size());
  return plan;
}

}  // namespace lcda::dist
