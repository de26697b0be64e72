#include "lcda/search/design.h"

#include <sstream>

#include "lcda/util/rng.h"

namespace lcda::search {

std::string Design::rollout_text() const {
  std::string out = "[";
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out += std::to_string(rollout[i].channels);
    out += ',';
    out += std::to_string(rollout[i].kernel);
    out += ']';
  }
  out += ']';
  return out;
}

std::string Design::describe() const {
  std::ostringstream os;
  os << rollout_text() << " on " << hw.describe();
  return os.str();
}

std::uint64_t Design::hash() const {
  // util::hash_ints over {c0, k0, c1, k1, ..., device, bits_per_cell,
  // adc_bits, xbar_size, col_mux, weight_bits}, folded in place: hash_ints
  // is this hash_combine fold from the start state it returns for no ints.
  std::uint64_t h = util::hash_ints({}, 0xdeca1ULL);
  const auto fold = [&h](int v) {
    h = util::hash_combine(
        h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  };
  for (const auto& spec : rollout) {
    fold(spec.channels);
    fold(spec.kernel);
  }
  fold(static_cast<int>(hw.device));
  fold(hw.bits_per_cell);
  fold(hw.adc_bits);
  fold(hw.xbar_size);
  fold(hw.col_mux);
  fold(hw.weight_bits);
  return h;
}

}  // namespace lcda::search
