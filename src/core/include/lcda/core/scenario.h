#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lcda/core/experiment.h"
#include "lcda/util/json_lite.h"

namespace lcda::core {

/// A named, self-describing experiment definition: everything a study needs
/// — search space, evaluator, objective/reward, noise/write-verify setting,
/// episode budgets — bundled as data. Scenarios make every bench, example
/// and CLI sweep a thin driver: `lcda_run --scenario=X --strategy=Y`
/// reproduces any figure without writing a new binary.
struct Scenario {
  std::string name;     ///< registry key, e.g. "paper-energy"
  std::string summary;  ///< one line: what this scenario stresses
  /// A sentence or two of detail beyond the summary — what the study
  /// measures and which knobs it turns. Shown by `lcda_run --list` and
  /// carried in shard specs, so a scenario name appearing in distributed
  /// logs is self-explanatory. Optional ("" is omitted when serialized).
  std::string description;
  /// Strategy a bare `lcda_run --scenario=X` runs; benches override it.
  Strategy default_strategy = Strategy::kLcda;
  ExperimentConfig config;
};

// ----------------------------------------------------------- serialization
//
// ExperimentConfig and Scenario round-trip through util::json_lite. Saving
// omits fields that still hold their default value (pass include_defaults
// to dump everything); loading starts from defaults, applies what is
// present, and REJECTS unknown keys with std::invalid_argument naming the
// offending key — a typo in a scenario file fails loudly, not silently.

[[nodiscard]] util::Json config_to_json(const ExperimentConfig& config,
                                        bool include_defaults = false);
[[nodiscard]] ExperimentConfig config_from_json(const util::Json& j);

[[nodiscard]] util::Json scenario_to_json(const Scenario& scenario,
                                          bool include_defaults = false);
[[nodiscard]] Scenario scenario_from_json(const util::Json& j);

/// Scenario file I/O (the scenario_to_json document, pretty-printed).
[[nodiscard]] Scenario load_scenario(const std::string& path);
void save_scenario(const Scenario& scenario, const std::string& path);

/// Applies one "dotted.path=value" override to a config, e.g.
/// "space.conv_layers=4", "objective=latency",
/// "space.channel_choices=[16,32,64]". The value is parsed as JSON when it
/// looks like it (numbers, bools, arrays), else taken as a string. Unknown
/// paths throw std::invalid_argument.
void apply_override(ExperimentConfig& config, std::string_view key_value);

// ----------------------------------------------------------------- registry
//
// Process-wide scenario registry, pre-seeded with the paper's studies and
// the extended catalog (see scenario.cpp / README "Scenario catalog").
// Thread-safe; registration of a duplicate name throws.

void register_scenario(Scenario scenario);
[[nodiscard]] Scenario scenario_by_name(std::string_view name);
[[nodiscard]] std::vector<std::string> list_scenarios();

/// Registers every "*.json" scenario file in `directory` (sorted by file
/// name, so registration order is deterministic) and returns the names
/// registered. Throws std::runtime_error when the directory cannot be
/// read and std::invalid_argument on a malformed file or a name collision
/// — a broken scenario drop-in fails loudly, not silently.
///
/// The same loading runs automatically at registry initialization for the
/// directory named by the LCDA_SCENARIO_DIR environment variable, so
/// `lcda_run --list`, the benches and the examples see dropped-in
/// scenarios without code changes.
std::vector<std::string> register_scenarios_from(const std::string& directory);

/// Fingerprint of everything that determines a study's evaluation stream:
/// the config minus the engine knobs that provably cannot change a trace
/// (parallelism, in-memory/persistent cache settings), combined with the
/// strategy and the actual episode count. Episodes are part of the key
/// because batched optimizers truncate their final batch at the budget,
/// which shifts RNG consumption — streams are NOT prefix-stable across
/// budgets. Keys checkpoint directories; the evaluation store keys by the
/// two halves below.
[[nodiscard]] std::uint64_t study_fingerprint(const ExperimentConfig& config,
                                              Strategy strategy, int episodes);
/// The study fingerprint split into the store-v2 namespaces (see
/// lcda::store::EvalStore). evaluation_fingerprint covers what legally
/// determines an Evaluation's content: search space, evaluator kind and
/// options, noise/write-verify settings, reward shape — everything in the
/// config EXCEPT the stream-shaping knobs. Two studies with equal
/// evaluation fingerprints compute byte-identical deterministic parts
/// (cost report, accuracy-model parameters) for the same design, no matter
/// how their seeds, strategies or batch schedules differ — which is
/// exactly what the store shares across a sweep's sibling studies.
[[nodiscard]] std::uint64_t evaluation_fingerprint(const ExperimentConfig& config);
/// stream_fingerprint covers the rest: strategy, episode budget, seed and
/// batch size — what shapes the RNG stream and therefore the Monte-Carlo
/// accuracy draws. (evaluation, stream) together key exactly what
/// study_fingerprint keys; the split just lets the store match the two
/// halves independently.
[[nodiscard]] std::uint64_t stream_fingerprint(const ExperimentConfig& config,
                                               Strategy strategy, int episodes);

}  // namespace lcda::core
