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

int choice_index(int value, const std::vector<int>& choices, const char* what) {
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == value) return static_cast<int>(i);
  }
  throw std::invalid_argument(std::string("SearchSpace::encode: ") + what +
                              " value not in space");
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
  if (static_cast<int>(design.rollout.size()) != opts_.conv_layers) {
    throw std::invalid_argument("SearchSpace::encode: wrong rollout length");
  }
  std::vector<int> idx;
  idx.reserve(dimensions());
  for (const auto& spec : design.rollout) {
    idx.push_back(choice_index(spec.channels, opts_.channel_choices, "channel"));
    idx.push_back(choice_index(spec.kernel, opts_.kernel_choices, "kernel"));
  }
  const auto& hw = opts_.hw;
  const auto dev_it =
      std::find(hw.devices.begin(), hw.devices.end(), design.hw.device);
  if (dev_it == hw.devices.end()) {
    throw std::invalid_argument("SearchSpace::encode: device not in space");
  }
  idx.push_back(static_cast<int>(dev_it - hw.devices.begin()));
  idx.push_back(choice_index(design.hw.bits_per_cell, hw.bits_per_cell, "bits_per_cell"));
  idx.push_back(choice_index(design.hw.adc_bits, hw.adc_bits, "adc_bits"));
  idx.push_back(choice_index(design.hw.xbar_size, hw.xbar_sizes, "xbar_size"));
  idx.push_back(choice_index(design.hw.col_mux, hw.col_mux, "col_mux"));
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
  try {
    (void)encode(design);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
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
  std::ostringstream os;
  os << opts_.conv_layers << " convolution layers (ReLU, 2x2 max-pool after "
     << "layers 2, 4 and 6) followed by 2 fully connected layers with hidden "
     << "size " << opts_.backbone.hidden << ", input "
     << opts_.backbone.input_size << 'x' << opts_.backbone.input_size << 'x'
     << opts_.backbone.input_channels << ", " << opts_.backbone.num_classes
     << " classes";
  return os.str();
}

}  // namespace lcda::search
