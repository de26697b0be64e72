#include "lcda/search/space.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lcda::search {

namespace {

int nearest_choice(int value, const std::vector<int>& choices) {
  // In 64 bits: an untrusted value near INT_MIN/INT_MAX must not overflow.
  const auto distance = [value](int c) {
    return std::abs(static_cast<long long>(c) - value);
  };
  int best = choices.front();
  for (int c : choices) {
    if (distance(c) < distance(best)) best = c;
  }
  return best;
}

/// Appends the choice index of every value of `design` to `idx`; returns
/// what lies outside the space, or null when nothing does.
const char* encode_into(const SearchSpace::Options& opts, const Design& design,
                        std::vector<int>& idx) {
  if (design.rollout.size() != static_cast<std::size_t>(opts.conv_layers)) {
    return "wrong rollout length";
  }
  const auto put = [&idx](const auto& value, const auto& choices) {
    const auto it = std::find(choices.begin(), choices.end(), value);
    if (it == choices.end()) return false;
    idx.push_back(static_cast<int>(it - choices.begin()));
    return true;
  };
  idx.reserve(design.rollout.size() * 2 + 5);
  for (const auto& spec : design.rollout) {
    if (!put(spec.channels, opts.channel_choices)) return "channel value not in space";
    if (!put(spec.kernel, opts.kernel_choices)) return "kernel value not in space";
  }
  const auto& hw = opts.hw;
  if (!put(design.hw.device, hw.devices)) return "device not in space";
  if (!put(design.hw.bits_per_cell, hw.bits_per_cell)) {
    return "bits_per_cell value not in space";
  }
  if (!put(design.hw.adc_bits, hw.adc_bits)) return "adc_bits value not in space";
  if (!put(design.hw.xbar_size, hw.xbar_sizes)) return "xbar_size value not in space";
  if (!put(design.hw.col_mux, hw.col_mux)) return "col_mux value not in space";
  return nullptr;
}

}  // namespace

SearchSpace::SearchSpace(Options opts) : opts_(std::move(opts)) {
  if (opts_.conv_layers <= 0) throw std::invalid_argument("SearchSpace: conv_layers");
  if (opts_.channel_choices.empty() || opts_.kernel_choices.empty()) {
    throw std::invalid_argument("SearchSpace: empty choice lists");
  }
  if (opts_.hw.devices.empty() || opts_.hw.bits_per_cell.empty() ||
      opts_.hw.adc_bits.empty() || opts_.hw.xbar_sizes.empty() ||
      opts_.hw.col_mux.empty()) {
    throw std::invalid_argument("SearchSpace: empty hardware choice lists");
  }
}

std::size_t SearchSpace::dimensions() const {
  return static_cast<std::size_t>(opts_.conv_layers) * 2 + 5;
}

std::size_t SearchSpace::cardinality(std::size_t dim) const {
  const auto sw_dims = static_cast<std::size_t>(opts_.conv_layers) * 2;
  if (dim < sw_dims) {
    return dim % 2 == 0 ? opts_.channel_choices.size() : opts_.kernel_choices.size();
  }
  switch (dim - sw_dims) {
    case 0: return opts_.hw.devices.size();
    case 1: return opts_.hw.bits_per_cell.size();
    case 2: return opts_.hw.adc_bits.size();
    case 3: return opts_.hw.xbar_sizes.size();
    case 4: return opts_.hw.col_mux.size();
    default: throw std::out_of_range("SearchSpace::cardinality");
  }
}

double SearchSpace::total_designs() const {
  double total = 1.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    total *= static_cast<double>(cardinality(d));
  }
  return total;
}

std::vector<int> SearchSpace::encode(const Design& design) const {
  std::vector<int> idx;
  if (const char* outside = encode_into(opts_, design, idx)) {
    throw std::invalid_argument(std::string("SearchSpace::encode: ") + outside);
  }
  return idx;
}

std::optional<std::vector<int>> SearchSpace::try_encode(const Design& design) const {
  std::vector<int> idx;
  if (encode_into(opts_, design, idx) != nullptr) return std::nullopt;
  return idx;
}

Design SearchSpace::decode(const std::vector<int>& indices) const {
  if (indices.size() != dimensions()) {
    throw std::invalid_argument("SearchSpace::decode: wrong index count");
  }
  for (std::size_t d = 0; d < indices.size(); ++d) {
    if (indices[d] < 0 || static_cast<std::size_t>(indices[d]) >= cardinality(d)) {
      throw std::invalid_argument("SearchSpace::decode: index out of range");
    }
  }
  Design design;
  design.hw.area_budget_mm2 = opts_.area_budget_mm2;
  design.rollout.reserve(static_cast<std::size_t>(opts_.conv_layers));
  std::size_t cursor = 0;
  for (int layer = 0; layer < opts_.conv_layers; ++layer) {
    nn::ConvSpec spec;
    spec.channels = opts_.channel_choices[static_cast<std::size_t>(indices[cursor++])];
    spec.kernel = opts_.kernel_choices[static_cast<std::size_t>(indices[cursor++])];
    design.rollout.push_back(spec);
  }
  const auto& hw = opts_.hw;
  design.hw.device = hw.devices[static_cast<std::size_t>(indices[cursor++])];
  design.hw.bits_per_cell = hw.bits_per_cell[static_cast<std::size_t>(indices[cursor++])];
  design.hw.adc_bits = hw.adc_bits[static_cast<std::size_t>(indices[cursor++])];
  design.hw.xbar_size = hw.xbar_sizes[static_cast<std::size_t>(indices[cursor++])];
  design.hw.col_mux = hw.col_mux[static_cast<std::size_t>(indices[cursor++])];
  return design;
}

bool SearchSpace::decodes_to(const std::vector<int>& indices,
                             const Design& design) const {
  if (indices.size() != dimensions()) return false;
  if (design.rollout.size() != static_cast<std::size_t>(opts_.conv_layers)) {
    return false;
  }
  // Single fused pass: bounds-check each index against its dimension and
  // compare the decoded value in place (what decode() would build).
  auto pick = [](const std::vector<int>& choices, int idx, bool& ok) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= choices.size()) {
      ok = false;
      return 0;
    }
    return choices[static_cast<std::size_t>(idx)];
  };
  bool ok = true;
  std::size_t cursor = 0;
  for (const nn::ConvSpec& spec : design.rollout) {
    if (spec.channels != pick(opts_.channel_choices, indices[cursor++], ok)) {
      return false;
    }
    if (spec.kernel != pick(opts_.kernel_choices, indices[cursor++], ok)) {
      return false;
    }
    if (!ok) return false;
  }
  // Mirror decode(): the decoded design carries the space's area budget and
  // default values for the non-searched hardware fields, so those must
  // match too for decode(indices) == design to hold.
  const auto& hw = opts_.hw;
  const int dev_idx = indices[cursor++];
  if (dev_idx < 0 || static_cast<std::size_t>(dev_idx) >= hw.devices.size()) {
    return false;
  }
  cim::HardwareConfig decoded;
  decoded.area_budget_mm2 = opts_.area_budget_mm2;
  decoded.device = hw.devices[static_cast<std::size_t>(dev_idx)];
  decoded.bits_per_cell = pick(hw.bits_per_cell, indices[cursor++], ok);
  decoded.adc_bits = pick(hw.adc_bits, indices[cursor++], ok);
  decoded.xbar_size = pick(hw.xbar_sizes, indices[cursor++], ok);
  decoded.col_mux = pick(hw.col_mux, indices[cursor++], ok);
  return ok && decoded == design.hw;
}

bool SearchSpace::contains(const Design& design) const {
  return try_encode(design).has_value();
}

Design SearchSpace::snap(const Design& design) const {
  Design out = design;
  out.hw.area_budget_mm2 = opts_.area_budget_mm2;
  out.rollout.resize(static_cast<std::size_t>(opts_.conv_layers));
  for (auto& spec : out.rollout) {
    if (spec.channels <= 0) spec.channels = opts_.channel_choices.front();
    if (spec.kernel <= 0) spec.kernel = opts_.kernel_choices.front();
    spec.channels = nearest_choice(spec.channels, opts_.channel_choices);
    spec.kernel = nearest_choice(spec.kernel, opts_.kernel_choices);
  }
  const auto& hw = opts_.hw;
  if (std::find(hw.devices.begin(), hw.devices.end(), out.hw.device) ==
      hw.devices.end()) {
    out.hw.device = hw.devices.front();
  }
  out.hw.bits_per_cell = nearest_choice(out.hw.bits_per_cell, hw.bits_per_cell);
  out.hw.adc_bits = nearest_choice(out.hw.adc_bits, hw.adc_bits);
  out.hw.xbar_size = nearest_choice(out.hw.xbar_size, hw.xbar_sizes);
  out.hw.col_mux = nearest_choice(out.hw.col_mux, hw.col_mux);
  return out;
}

Design SearchSpace::sample(util::Rng& rng) const {
  std::vector<int> idx(dimensions());
  for (std::size_t d = 0; d < idx.size(); ++d) {
    idx[d] = static_cast<int>(rng.index(cardinality(d)));
  }
  return decode(idx);
}

std::vector<int> SearchSpace::offspring(const std::vector<int>& a,
                                        const std::vector<int>& b,
                                        double crossover_rate,
                                        double mutation_rate,
                                        util::Rng& rng) const {
  std::vector<int> child = a;
  if (rng.chance(crossover_rate)) {
    for (std::size_t g = 0; g < child.size(); ++g) {
      if (rng.chance(0.5)) child[g] = b[g];
    }
  }
  for (std::size_t g = 0; g < child.size(); ++g) {
    if (rng.chance(mutation_rate)) {
      child[g] = static_cast<int>(rng.index(cardinality(g)));
    }
  }
  return child;
}

std::string SearchSpace::choices_text() const {
  std::ostringstream os;
  os << "channels per layer: {";
  for (std::size_t i = 0; i < opts_.channel_choices.size(); ++i) {
    if (i) os << ", ";
    os << opts_.channel_choices[i];
  }
  os << "}; kernel sizes: {";
  for (std::size_t i = 0; i < opts_.kernel_choices.size(); ++i) {
    if (i) os << ", ";
    os << opts_.kernel_choices[i];
  }
  os << "}; hardware: device in {";
  for (std::size_t i = 0; i < opts_.hw.devices.size(); ++i) {
    if (i) os << ", ";
    os << cim::device_name(opts_.hw.devices[i]);
  }
  os << "}, bits_per_cell in {";
  for (std::size_t i = 0; i < opts_.hw.bits_per_cell.size(); ++i) {
    if (i) os << ", ";
    os << opts_.hw.bits_per_cell[i];
  }
  os << "}, adc_bits in {";
  for (std::size_t i = 0; i < opts_.hw.adc_bits.size(); ++i) {
    if (i) os << ", ";
    os << opts_.hw.adc_bits[i];
  }
  os << "}, xbar_size in {";
  for (std::size_t i = 0; i < opts_.hw.xbar_sizes.size(); ++i) {
    if (i) os << ", ";
    os << opts_.hw.xbar_sizes[i];
  }
  os << "}, col_mux in {";
  for (std::size_t i = 0; i < opts_.hw.col_mux.size(); ++i) {
    if (i) os << ", ";
    os << opts_.hw.col_mux[i];
  }
  os << '}';
  return os.str();
}

std::string SearchSpace::model_text() const {
  // The pooled layers, 1-based, as the network is built: "2, 4 and 6".
  std::vector<int> pooled;
  for (int layer = 0; layer < opts_.conv_layers; ++layer) {
    const auto& after = opts_.backbone.pool_after;
    if (std::find(after.begin(), after.end(), layer) != after.end()) {
      pooled.push_back(layer + 1);
    }
  }
  std::ostringstream os;
  os << opts_.conv_layers << " convolution layers (ReLU, ";
  if (pooled.empty()) {
    os << "no pooling";
  } else {
    os << "2x2 max-pool after layer" << (pooled.size() > 1 ? "s " : " ");
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      if (i > 0) os << (i + 1 == pooled.size() ? " and " : ", ");
      os << pooled[i];
    }
  }
  os << ") followed by 2 fully connected layers with hidden "
     << "size " << opts_.backbone.hidden << ", input "
     << opts_.backbone.input_size << 'x' << opts_.backbone.input_size << 'x'
     << opts_.backbone.input_channels << ", " << opts_.backbone.num_classes
     << " classes";
  return os.str();
}

}  // namespace lcda::search
