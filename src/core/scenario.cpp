#include "lcda/core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "lcda/core/report.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"
#include "lcda/util/thread_pool.h"

namespace lcda::core {

namespace {

// ------------------------------------------------------------- field lists
//
// The one list of each serialized struct's keys, in document order. The
// Writer and the Reader both walk it, so the keys a scenario file may set
// are exactly the keys config_to_json writes and every fingerprint hashes.
// v.child takes a nested struct. Seeds take v.seed: std::size_t and
// std::uint64_t are one type here, and a seed above 2^53 is written as a
// hex string. kAlways marks a key written even when it holds its default.

constexpr bool kAlways = true;

template <template <typename> class V>
void fields(V<nn::BackboneOptions>& v) {
  using S = nn::BackboneOptions;
  v.field("input_channels", &S::input_channels);
  v.field("input_size", &S::input_size);
  v.field("num_classes", &S::num_classes);
  v.field("hidden", &S::hidden);
  v.field("pool_after", &S::pool_after);
  v.field("batch_norm", &S::batch_norm);
}

template <template <typename> class V>
void fields(V<cim::HardwareChoices>& v) {
  using S = cim::HardwareChoices;
  v.field("devices", &S::devices);
  v.field("bits_per_cell", &S::bits_per_cell);
  v.field("adc_bits", &S::adc_bits);
  v.field("xbar_sizes", &S::xbar_sizes);
  v.field("col_mux", &S::col_mux);
}

template <template <typename> class V>
void fields(V<search::SearchSpace::Options>& v) {
  using S = search::SearchSpace::Options;
  v.field("conv_layers", &S::conv_layers);
  v.field("channel_choices", &S::channel_choices);
  v.field("kernel_choices", &S::kernel_choices);
  v.child("hardware", &S::hw);
  v.child("backbone", &S::backbone);
  v.field("area_budget_mm2", &S::area_budget_mm2);
}

template <template <typename> class V>
void fields(V<surrogate::AccuracyModel::Options>& v) {
  using S = surrogate::AccuracyModel::Options;
  v.field("base", &S::base);
  v.field("amplitude", &S::amplitude);
  v.field("width_coeff", &S::width_coeff);
  v.field("kernel1_penalty", &S::kernel1_penalty);
  v.field("kernel5_bonus", &S::kernel5_bonus);
  v.field("kernel7_bonus", &S::kernel7_bonus);
  v.field("shrink_penalty", &S::shrink_penalty);
  v.field("jump_penalty", &S::jump_penalty);
  v.field("saturation_scale", &S::saturation_scale);
  v.field("variation_coeff", &S::variation_coeff);
  v.field("injection_recovery", &S::injection_recovery);
  v.field("adc_deficit_penalty", &S::adc_deficit_penalty);
  v.field("luck_sigma", &S::luck_sigma);
  v.field("floor", &S::floor);
  v.seed("calibration_seed", &S::calibration_seed);
}

template <template <typename> class V>
void fields(V<cim::MapperOptions>& v) {
  using S = cim::MapperOptions;
  v.field("input_bits", &S::input_bits);
  v.field("max_replication", &S::max_replication);
  v.field("replication_area_fraction", &S::replication_area_fraction);
}

template <template <typename> class V>
void fields(V<cim::CostModelOptions>& v) {
  using S = cim::CostModelOptions;
  v.field("arrays_per_tile", &S::arrays_per_tile);
  v.field("buffer_kb_per_tile", &S::buffer_kb_per_tile);
  v.child("mapper", &S::mapper);
}

template <template <typename> class V>
void fields(V<SurrogateEvaluator::Options>& v) {
  using S = SurrogateEvaluator::Options;
  v.child("accuracy", &S::accuracy);
  v.child("cost", &S::cost);
  v.child("backbone", &S::backbone);
  v.field("monte_carlo_samples", &S::monte_carlo_samples);
  v.field("write_verify_fraction", &S::write_verify_fraction);
  v.field("write_verify_sigma_scale", &S::write_verify_sigma_scale);
  v.field("write_verify_pulses", &S::write_verify_pulses);
}

template <template <typename> class V>
void fields(V<data::SyntheticCifarOptions>& v) {
  using S = data::SyntheticCifarOptions;
  v.field("num_classes", &S::num_classes);
  v.field("image_size", &S::image_size);
  v.field("train_per_class", &S::train_per_class);
  v.field("test_per_class", &S::test_per_class);
  v.field("noise", &S::noise);
  v.field("max_shift", &S::max_shift);
  v.seed("seed", &S::seed);
}

template <template <typename> class V>
void fields(V<TrainedEvaluator::Options>& v) {
  using S = TrainedEvaluator::Options;
  v.child("dataset", &S::dataset);
  v.child("backbone", &S::backbone);
  v.child("cost", &S::cost);
  v.field("epochs", &S::epochs);
  v.field("monte_carlo_samples", &S::monte_carlo_samples);
}

template <template <typename> class V>
void fields(V<ExperimentConfig>& v) {
  using S = ExperimentConfig;
  v.field("objective", &S::objective);
  v.field("combined_reward", &S::combined_reward);
  v.field("energy_weight", &S::energy_weight);
  v.field("latency_weight", &S::latency_weight);
  v.field("lcda_episodes", &S::lcda_episodes);
  v.field("nacim_episodes", &S::nacim_episodes);
  v.seed("seed", &S::seed);
  v.child("space", &S::space);
  v.field("evaluator_kind", &S::evaluator_kind);
  v.child("evaluator", &S::evaluator);
  v.child("trained", &S::trained);
  v.field("parallelism", &S::parallelism);
  v.field("batch_size", &S::batch_size);
  v.field("pipeline_depth", &S::pipeline_depth);
  v.field("cache_evaluations", &S::cache_evaluations);
  v.field("persistent_cache_dir", &S::persistent_cache_dir);
  v.field("persistent_cache_max_entries", &S::persistent_cache_max_entries);
  v.field("persistent_cache_max_bytes", &S::persistent_cache_max_bytes);
  v.field("checkpoint_dir", &S::checkpoint_dir);
  v.field("checkpoint_every", &S::checkpoint_every);
  v.field("resume", &S::resume);
}

template <template <typename> class V>
void fields(V<Scenario>& v) {
  using S = Scenario;
  v.field("name", &S::name, kAlways);
  v.field("summary", &S::summary, kAlways);
  v.field("description", &S::description);
  v.field("default_strategy", &S::default_strategy, kAlways);
  v.child("config", &S::config, kAlways);
}

// ------------------------------------------------------------- value codec

template <typename T>
util::Json encode(const T& value) {
  return util::Json(value);
}

util::Json encode(cim::DeviceType d) { return cim::device_name(d); }
util::Json encode(llm::Objective o) { return llm::objective_name(o); }
util::Json encode(EvaluatorKind k) { return evaluator_kind_name(k); }
util::Json encode(Strategy s) { return strategy_name(s); }

template <typename T>
util::Json encode(const std::vector<T>& values) {
  util::Json arr = util::Json::array();
  for (const T& v : values) arr.push_back(encode(v));
  return arr;
}

/// A field's key path, rendered only into error messages.
struct Path {
  const std::string& context;
  const char* key;
  [[nodiscard]] std::string str() const { return context + "." + key; }
};

void decode(const util::Json& j, double& out, const Path&) {
  out = j.as_double();
}
void decode(const util::Json& j, bool& out, const Path&) {
  out = j.as_bool();
}
void decode(const util::Json& j, std::string& out, const Path&) {
  out = j.as_string();
}

/// The one integer read: a value outside int is rejected rather than
/// wrapped (lcda_episodes=4294967298 must not run 2 episodes).
void decode(const util::Json& j, int& out, const Path& path) {
  const long long raw = j.as_int();
  if (raw < std::numeric_limits<int>::min() ||
      raw > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(path.str() + ": " + std::to_string(raw) +
                                " is out of range for an int");
  }
  out = static_cast<int>(raw);
}

void decode(const util::Json& j, std::size_t& out, const Path& path) {
  const long long raw = j.as_int();
  if (raw < 0) throw std::invalid_argument(path.str() + ": negative");
  out = static_cast<std::size_t>(raw);
}

void decode(const util::Json& j, cim::DeviceType& out, const Path&) {
  out = cim::device_from_name(j.as_string());
}
void decode(const util::Json& j, llm::Objective& out, const Path&) {
  out = llm::objective_from_name(j.as_string());
}
void decode(const util::Json& j, EvaluatorKind& out, const Path&) {
  out = evaluator_kind_from_name(j.as_string());
}
void decode(const util::Json& j, Strategy& out, const Path&) {
  out = strategy_from_name(j.as_string());
}

template <typename T>
void decode(const util::Json& j, std::vector<T>& out, const Path& path) {
  if (!j.is_array()) throw std::invalid_argument(path.str() + ": expected array");
  out.clear();
  for (const util::Json& e : j.elements()) decode(e, out.emplace_back(), path);
}

// ----------------------------------------------------------------- walkers

template <typename S>
util::Json write_fields(const S& value, bool include_defaults);
template <typename S>
void read_fields(const util::Json& j, S& out, std::string context);

/// Writes one struct as a JSON object, emitting a field only when it
/// differs from its default (or always, with include_defaults) — so saved
/// scenarios read as "what this study changes about the paper setting".
template <typename S>
class Writer {
 public:
  Writer(const S& value, bool include_defaults)
      : value_(value), all_(include_defaults) {}

  template <typename T>
  void field(const char* key, T S::*member, bool always = false) {
    if (all_ || always || value_.*member != def_.*member) {
      j_[key] = encode(value_.*member);
    }
  }

  void seed(const char* key, std::uint64_t S::*member) {
    const std::uint64_t value = value_.*member;
    if (!all_ && value == def_.*member) return;
    // Doubles hold integers exactly only up to 2^53; larger seeds (e.g.
    // derive_seed outputs) go through a hex string.
    if (value <= (1ULL << 53)) {
      j_[key] = static_cast<long long>(value);
    } else {
      char buf[19];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(value));
      j_[key] = "0x" + std::string(buf);
    }
  }

  /// Nested struct; an all-defaults child (empty object) is omitted.
  template <typename C>
  void child(const char* key, C S::*member, bool always = false) {
    util::Json sub = write_fields(value_.*member, all_);
    if (all_ || always || sub.size() > 0) j_[key] = std::move(sub);
  }

  [[nodiscard]] util::Json take() { return std::move(j_); }

 private:
  const S& value_;
  const S def_{};
  bool all_;
  util::Json j_ = util::Json::object();
};

/// Reads one struct from a JSON object: each field consumes its key,
/// finish() rejects whatever was not consumed — the unknown-key guarantee.
template <typename S>
class Reader {
 public:
  Reader(const util::Json& j, S& out, std::string context)
      : out_(out), context_(std::move(context)) {
    if (!j.is_object()) {
      throw std::invalid_argument(context_ + ": expected a JSON object");
    }
    items_ = j.items();
    consumed_.assign(items_.size(), false);
  }

  template <typename T>
  void field(const char* key, T S::*member, bool /*always*/ = false) {
    if (const util::Json* v = consume(key)) {
      decode(*v, out_.*member, {context_, key});
    }
  }

  void seed(const char* key, std::uint64_t S::*member) {
    const util::Json* v = consume(key);
    if (!v) return;
    const Path path{context_, key};
    if (v->is_string()) {
      // Strings are hex only with an explicit "0x" prefix (what the writer
      // emits); a quoted decimal like "42" must not silently parse as 0x42.
      const std::string& s = v->as_string();
      std::string_view digits = s;
      int base = 10;
      if (digits.size() > 2 && digits.substr(0, 2) == "0x") {
        digits.remove_prefix(2);
        base = 16;
      }
      std::uint64_t value = 0;
      const auto [ptr, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), value, base);
      if (ec != std::errc() || ptr != digits.data() + digits.size() ||
          digits.empty()) {
        throw std::invalid_argument(path.str() + ": bad seed \"" + s + "\"");
      }
      out_.*member = value;
    } else {
      const long long raw = v->as_int();
      if (raw < 0) throw std::invalid_argument(path.str() + ": negative");
      out_.*member = static_cast<std::uint64_t>(raw);
    }
  }

  /// A config's key paths start at "config" wherever it is nested, as
  /// config_from_json's do.
  template <typename C>
  void child(const char* key, C S::*member, bool /*always*/ = false) {
    if (const util::Json* v = consume(key)) {
      read_fields(*v, out_.*member,
                  std::is_same_v<C, ExperimentConfig> ? std::string("config")
                                                      : context_ + "." + key);
    }
  }

  void finish() const {
    std::string keys;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (consumed_[i]) continue;
      if (!keys.empty()) keys += ", ";
      keys += '"' + items_[i].first + '"';
    }
    if (!keys.empty()) {
      throw std::invalid_argument(context_ + ": unknown key(s) " + keys);
    }
  }

 private:
  const util::Json* consume(const char* key) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!consumed_[i] && items_[i].first == key) {
        consumed_[i] = true;
        return &items_[i].second;
      }
    }
    return nullptr;
  }

  S& out_;
  std::string context_;
  std::vector<std::pair<std::string, util::Json>> items_;
  std::vector<bool> consumed_;
};

template <typename S>
util::Json write_fields(const S& value, bool include_defaults) {
  Writer<S> w(value, include_defaults);
  fields(w);
  return w.take();
}

template <typename S>
void read_fields(const util::Json& j, S& out, std::string context) {
  Reader<S> r(j, out, context);
  fields(r);
  r.finish();
  if constexpr (std::is_same_v<S, ExperimentConfig>) {
    // A thread count: bounded like lcda_run --parallelism.
    if (out.parallelism < 0 || out.parallelism > util::kMaxParallelism) {
      throw std::invalid_argument(
          context + ".parallelism: " + std::to_string(out.parallelism) +
          (out.parallelism < 0 ? std::string(" is negative")
                               : " is above the limit of " +
                                     std::to_string(util::kMaxParallelism)));
    }
  }
}

}  // namespace

util::Json config_to_json(const ExperimentConfig& config, bool include_defaults) {
  return write_fields(config, include_defaults);
}

ExperimentConfig config_from_json(const util::Json& j) {
  ExperimentConfig config;
  read_fields(j, config, "config");
  return config;
}

util::Json scenario_to_json(const Scenario& scenario, bool include_defaults) {
  return write_fields(scenario, include_defaults);
}

Scenario scenario_from_json(const util::Json& j) {
  Scenario s;
  read_fields(j, s, "scenario");
  if (s.name.empty()) {
    throw std::invalid_argument("scenario_from_json: missing \"name\"");
  }
  return s;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_scenario: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return scenario_from_json(util::Json::parse(buffer.str()));
}

void save_scenario(const Scenario& scenario, const std::string& path) {
  write_json_file(scenario_to_json(scenario), path);
}

void apply_override(ExperimentConfig& config, std::string_view key_value) {
  const std::size_t eq = key_value.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("apply_override: expected key=value, got \"" +
                                std::string(key_value) + "\"");
  }
  const std::string path(util::trim(key_value.substr(0, eq)));
  const std::string value(util::trim(key_value.substr(eq + 1)));

  // Edit the full (defaults included) dump, then reload: every legal path
  // exists in the dump, and the reload re-applies all validation.
  util::Json full = config_to_json(config, /*include_defaults=*/true);
  util::Json* cursor = &full;
  const std::vector<std::string> segments = util::split(path, '.');
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (!cursor->contains(segments[i])) {
      throw std::invalid_argument("apply_override: unknown key \"" + path +
                                  "\" (no \"" + segments[i] + "\")");
    }
    cursor = &(*cursor)[segments[i]];
    if (i + 1 < segments.size() && !cursor->is_object()) {
      throw std::invalid_argument("apply_override: \"" + segments[i] +
                                  "\" in \"" + path + "\" is not an object");
    }
  }

  util::Json parsed;
  try {
    parsed = util::Json::parse(value);
  } catch (const std::runtime_error&) {
    parsed = util::Json(value);  // bare strings: objective=latency
  }
  *cursor = std::move(parsed);
  config = config_from_json(full);
}

// ------------------------------------------------------------------ registry

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, Scenario>& registry() {
  static std::map<std::string, Scenario> r;
  return r;
}

void register_locked(Scenario s) {
  if (s.name.empty()) {
    throw std::invalid_argument("register_scenario: empty name");
  }
  if (!registry().emplace(s.name, s).second) {
    throw std::invalid_argument("register_scenario: duplicate scenario \"" +
                                s.name + "\"");
  }
}

/// Loads and registers every *.json in `directory`, in file-name order.
/// Used by both the public register_scenarios_from and the
/// LCDA_SCENARIO_DIR autoload inside registry initialization (which must
/// not re-enter ensure_builtins, hence the separate entry point).
///
/// All-or-nothing: every file is loaded and every name checked for
/// collisions BEFORE anything is registered, so a failure (malformed
/// third file, duplicate name) leaves the registry untouched and a retry
/// reports the same real error instead of colliding with a half-registered
/// batch.
std::vector<std::string> register_directory(const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) {
    throw std::runtime_error("register_scenarios_from: cannot read \"" +
                             directory + "\": " + ec.message());
  }
  std::vector<fs::path> files;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<Scenario> loaded;
  loaded.reserve(files.size());
  for (const fs::path& file : files) {
    loaded.push_back(load_scenario(file.string()));
  }

  // Re-registering a byte-identical definition is a no-op (so an
  // LCDA_SCENARIO_DIR autoload followed by an explicit --scenario-dir of
  // the same directory is harmless); only a CONFLICTING definition under
  // a taken name is an error.
  const auto same_definition = [](const Scenario& a, const Scenario& b) {
    return scenario_to_json(a, /*include_defaults=*/true).dump() ==
           scenario_to_json(b, /*include_defaults=*/true).dump();
  };

  std::vector<std::string> names;
  names.reserve(loaded.size());
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<bool> skip(loaded.size(), false);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const std::string& name = loaded[i].name;
    if (auto it = registry().find(name); it != registry().end()) {
      if (!same_definition(loaded[i], it->second)) {
        throw std::invalid_argument("register_scenarios_from: " +
                                    files[i].string() +
                                    " conflicts with registered scenario \"" +
                                    name + "\"");
      }
      skip[i] = true;
      continue;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (!skip[j] && loaded[j].name == name) {
        throw std::invalid_argument("register_scenarios_from: " +
                                    files[i].string() + " and " +
                                    files[j].string() +
                                    " both define scenario \"" + name + "\"");
      }
    }
  }
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (skip[i]) continue;
    names.push_back(loaded[i].name);
    register_locked(std::move(loaded[i]));
  }
  return names;
}

/// The built-in catalog. The four paper scenarios reproduce Sec. IV
/// bit-for-bit; the rest open new workloads on the same engine (README
/// "Scenario catalog" documents each).
void register_builtins();

void ensure_builtins() {
  // Two separate once-flags: register_builtins cannot fail, but the
  // LCDA_SCENARIO_DIR autoload can (malformed file, unreadable dir). A
  // failed call_once leaves its flag unset, so the autoload is retried on
  // the next registry access — and because register_directory is
  // all-or-nothing, the retry reports the same real error instead of
  // colliding with a half-registered batch or re-running the builtins.
  static std::once_flag builtins_once;
  std::call_once(builtins_once, register_builtins);

  // Drop-in scenario files: a directory named by LCDA_SCENARIO_DIR is
  // loaded right after the built-ins, so every registry consumer (CLI,
  // benches, examples) sees its scenarios without code changes. Errors
  // propagate: a broken scenario file fails the registry access loudly
  // instead of silently vanishing from --list.
  static std::once_flag autoload_once;
  std::call_once(autoload_once, [] {
    if (const char* dir = std::getenv("LCDA_SCENARIO_DIR");
        dir != nullptr && *dir != '\0') {
      (void)register_directory(dir);
    }
  });
}

void register_builtins() {
  std::lock_guard<std::mutex> lock(registry_mutex());

  {
    Scenario s;
    s.name = "paper-energy";
    s.summary = "the paper's Sec. IV-A accuracy-energy study (Figs. 2-3, "
                "Table 1): NACIM space, surrogate evaluator, reward Eq. (1)";
    s.description =
        "Reproduces the headline result: GPT-4-guided co-design search over "
        "the NACIM network/hardware space, maximizing accuracy with an "
        "inference-energy term, 20 LCDA vs 500 NACIM-RL episodes.";
    s.default_strategy = Strategy::kLcda;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "paper-latency";
    s.summary = "the paper's Sec. IV-B accuracy-latency study (Fig. 4), "
                "where GPT-4's kernel priors mislead it: reward Eq. (2)";
    s.description =
        "Same space and engine as paper-energy but rewarding frames per "
        "second; the simulated LLM's GPU-shaped kernel intuitions hurt "
        "here, which is the paper's motivation for fine-tuning.";
    s.default_strategy = Strategy::kLcda;
    s.config.objective = llm::Objective::kLatency;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "naive";
    s.summary = "the paper's Sec. IV-C prompt ablation (Fig. 5): the same "
                "energy study driven without any co-design context";
    s.description =
        "Ablates the prompt: the LLM is asked for designs without being "
        "told it is co-designing CiM hardware, isolating how much of the "
        "speedup comes from domain framing.";
    s.default_strategy = Strategy::kLcdaNaive;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "finetuned";
    s.summary = "the paper's unfulfilled future-work point: the latency "
                "study with corrected CiM kernel priors";
    s.description =
        "What Sec. IV-B's fine-tuning would buy: the latency study rerun "
        "with a simulated LLM whose kernel-size priors match CiM crossbar "
        "economics instead of GPU folklore.";
    s.default_strategy = Strategy::kLcdaFinetuned;
    s.config.objective = llm::Objective::kLatency;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "tight-area";
    s.summary = "edge-class 20 mm^2 area budget: most of the space is "
                "invalid, stressing validity handling and -1 rewards";
    s.description =
        "Shrinks the silicon budget until most candidate chips are "
        "infeasible, so the search spends its episodes learning the "
        "validity boundary rather than polishing a reward.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.area_budget_mm2 = 20.0;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "high-variation";
    s.summary = "RRAM-only devices at 2x variation sensitivity, rescued by "
                "SWIM-style selective write-verify on 25% of weights";
    s.description =
        "Doubles device-variation sensitivity on an RRAM-only space and "
        "turns on selective write-verify for the most sensitive quarter of "
        "the weights — the noise-robustness workload.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.hw.devices = {cim::DeviceType::kRram};
    s.config.evaluator.accuracy.variation_coeff = 2.0;
    s.config.evaluator.write_verify_fraction = 0.25;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "deep-backbone";
    s.summary = "an 8-conv-layer backbone (pool after stages 2/4/6/8): a "
                "larger space where channel scheduling matters more";
    s.description =
        "Doubles the network depth (and the LCDA budget to 30 episodes): "
        "the design space grows combinatorially and per-stage channel "
        "scheduling dominates the reward.";
    s.default_strategy = Strategy::kLcda;
    s.config.space.conv_layers = 8;
    s.config.space.backbone.pool_after = {1, 3, 5, 7};
    s.config.evaluator.backbone.pool_after = {1, 3, 5, 7};
    s.config.lcda_episodes = 30;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "multi-objective";
    s.summary = "accuracy/energy/latency combined reward (Eq. 1's energy "
                "term plus Eq. 2's FPS term); NSGA-II by default";
    s.description =
        "Optimizes accuracy, energy and latency at once through the "
        "combined reward; NSGA-II drives it by default so the result is a "
        "Pareto front rather than a single champion.";
    s.default_strategy = Strategy::kNsga2;
    s.config.combined_reward = true;
    register_locked(s);
  }
  {
    Scenario s;
    s.name = "trained-small";
    s.summary = "the faithful train-then-Monte-Carlo evaluator on a "
                "reduced 16x16/6-class dataset and a 4-layer space";
    s.description =
        "Swaps the calibrated surrogate for the real pipeline — train each "
        "candidate, then Monte-Carlo its accuracy under device noise — on "
        "a dataset small enough to keep a study interactive.";
    s.default_strategy = Strategy::kLcda;
    s.config.evaluator_kind = EvaluatorKind::kTrained;
    s.config.lcda_episodes = 5;
    s.config.nacim_episodes = 10;
    s.config.space.conv_layers = 4;
    s.config.space.channel_choices = {16, 24, 32, 48, 64};
    s.config.space.kernel_choices = {1, 3, 5};
    nn::BackboneOptions backbone;
    backbone.input_size = 16;
    backbone.num_classes = 6;
    backbone.hidden = 64;
    backbone.pool_after = {0, 2};
    s.config.space.backbone = backbone;
    s.config.trained.backbone = backbone;
    s.config.trained.dataset.image_size = 16;
    s.config.trained.dataset.num_classes = 6;
    s.config.trained.dataset.train_per_class = 40;
    s.config.trained.dataset.test_per_class = 16;
    s.config.trained.dataset.seed = 11;
    s.config.trained.epochs = 3;
    s.config.trained.monte_carlo_samples = 4;
    register_locked(s);
  }
}

}  // namespace

void register_scenario(Scenario scenario) {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  register_locked(std::move(scenario));
}

std::vector<std::string> register_scenarios_from(const std::string& directory) {
  ensure_builtins();
  return register_directory(directory);
}

Scenario scenario_by_name(std::string_view name) {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(std::string(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, value] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument("scenario_by_name: unknown scenario \"" +
                                std::string(name) + "\" (known: " + known + ")");
  }
  return it->second;
}

std::vector<std::string> list_scenarios() {
  ensure_builtins();
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [key, value] : registry()) names.push_back(key);
  return names;
}

namespace {

/// `config` with every knob that provably never changes a trace reset to
/// its default: engine scheduling, the store and checkpoint settings, and
/// the *default* budgets (run_strategy takes the real count as a
/// parameter). Both fingerprints below hash this canonical form.
ExperimentConfig without_engine_knobs(const ExperimentConfig& config) {
  ExperimentConfig canon = config;
  const ExperimentConfig def;
  canon.parallelism = def.parallelism;
  canon.pipeline_depth = def.pipeline_depth;
  canon.cache_evaluations = def.cache_evaluations;
  canon.persistent_cache_dir = def.persistent_cache_dir;
  canon.persistent_cache_max_entries = def.persistent_cache_max_entries;
  canon.persistent_cache_max_bytes = def.persistent_cache_max_bytes;
  canon.lcda_episodes = def.lcda_episodes;
  canon.nacim_episodes = def.nacim_episodes;
  canon.checkpoint_dir = def.checkpoint_dir;
  canon.checkpoint_every = def.checkpoint_every;
  canon.resume = def.resume;
  return canon;
}

}  // namespace

std::uint64_t study_fingerprint(const ExperimentConfig& config,
                                Strategy strategy, int episodes) {
  // The engine knobs are normalized out so equivalent studies share
  // checkpoints. The actual episode count stays in: a batched optimizer's
  // final batch truncates at the budget, so a shorter run's RNG stream is
  // not a prefix of a longer one's and the two must not be confused.
  const ExperimentConfig canon = without_engine_knobs(config);
  const std::string text = std::string(strategy_name(strategy)) + '/' +
                           std::to_string(episodes) + '\n' +
                           config_to_json(canon, /*include_defaults=*/true).dump();
  return util::fnv1a64(text);
}

std::uint64_t evaluation_fingerprint(const ExperimentConfig& config) {
  // The study fingerprint's canonicalization, additionally normalizing the
  // stream-shaping knobs (seed, batch size) and dropping strategy/episodes
  // entirely: what remains — space, evaluator kind and options, noise and
  // write-verify settings, reward shape — is exactly what determines an
  // Evaluation's deterministic part, so sibling studies of a sweep land in
  // one shared namespace. The tag keeps this hash disjoint from
  // study_fingerprint's for identical configs.
  ExperimentConfig canon = without_engine_knobs(config);
  const ExperimentConfig def;
  canon.seed = def.seed;
  canon.batch_size = def.batch_size;
  const std::string text =
      "lcda-eval-identity-v1\n" +
      config_to_json(canon, /*include_defaults=*/true).dump();
  return util::fnv1a64(text);
}

std::uint64_t stream_fingerprint(const ExperimentConfig& config,
                                 Strategy strategy, int episodes) {
  // Everything evaluation_fingerprint normalized away: together the two
  // halves key what study_fingerprint keys, so (eval, stream) equality is
  // the store's full-key hit condition and eval-only equality is the legal
  // sharing condition.
  const std::string text = "lcda-stream-identity-v1\n" +
                           std::string(strategy_name(strategy)) + '/' +
                           std::to_string(episodes) + '/' +
                           std::to_string(config.seed) + '/' +
                           std::to_string(config.batch_size);
  return util::fnv1a64(text);
}

}  // namespace lcda::core
