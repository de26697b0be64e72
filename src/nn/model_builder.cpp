#include "lcda/nn/model_builder.h"

#include <algorithm>
#include <stdexcept>

namespace lcda::nn {

namespace {
bool pools_after(const BackboneOptions& opts, int conv_index) {
  return std::find(opts.pool_after.begin(), opts.pool_after.end(), conv_index) !=
         opts.pool_after.end();
}
}  // namespace

Sequential build_backbone(const std::vector<ConvSpec>& rollout,
                          const BackboneOptions& opts, util::Rng& rng) {
  if (rollout.empty()) throw std::invalid_argument("build_backbone: empty rollout");
  Sequential net;
  int channels = opts.input_channels;
  int size = opts.input_size;
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    const ConvSpec& spec = rollout[i];
    if (spec.channels <= 0 || spec.kernel <= 0 || spec.kernel % 2 == 0) {
      throw std::invalid_argument("build_backbone: bad conv spec");
    }
    net.add(std::make_unique<Conv2d>(channels, spec.channels, spec.kernel, size,
                                     size, rng));
    if (opts.batch_norm) net.add(std::make_unique<BatchNorm2d>(spec.channels));
    net.add(std::make_unique<ReLU>());
    channels = spec.channels;
    if (pools_after(opts, static_cast<int>(i))) {
      if (size % 2 != 0 || size < 2) {
        throw std::invalid_argument("build_backbone: cannot pool below 1x1");
      }
      net.add(std::make_unique<MaxPool2x2>());
      size /= 2;
    }
  }
  net.add(std::make_unique<Flatten>());
  const int features = channels * size * size;
  net.add(std::make_unique<Dense>(features, opts.hidden, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(opts.hidden, opts.num_classes, rng));
  return net;
}

std::vector<LayerShape> backbone_shapes(const std::vector<ConvSpec>& rollout,
                                        const BackboneOptions& opts) {
  std::vector<LayerShape> shapes;
  backbone_shapes_into(rollout, opts, shapes);
  return shapes;
}

void backbone_shapes_into(const std::vector<ConvSpec>& rollout,
                          const BackboneOptions& opts,
                          std::vector<LayerShape>& shapes) {
  if (rollout.empty()) throw std::invalid_argument("backbone_shapes: empty rollout");
  shapes.clear();
  int channels = opts.input_channels;
  int size = opts.input_size;
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    const ConvSpec& spec = rollout[i];
    if (spec.channels <= 0 || spec.kernel <= 0) {
      throw std::invalid_argument("backbone_shapes: bad conv spec");
    }
    LayerShape ls;
    ls.in_channels = channels;
    ls.out_channels = spec.channels;
    ls.kernel = spec.kernel;
    ls.in_hw = size;
    ls.out_hw = size;  // stride-1 "same" convolution
    shapes.push_back(ls);
    channels = spec.channels;
    if (pools_after(opts, static_cast<int>(i))) {
      if (size < 2) throw std::invalid_argument("backbone_shapes: pool below 1x1");
      size /= 2;
    }
  }
  // FC layers as 1x1 matrices: (features -> hidden), (hidden -> classes).
  const int features = channels * size * size;
  LayerShape fc1;
  fc1.in_channels = features;
  fc1.out_channels = opts.hidden;
  fc1.is_fc = true;
  shapes.push_back(fc1);
  LayerShape fc2;
  fc2.in_channels = opts.hidden;
  fc2.out_channels = opts.num_classes;
  fc2.is_fc = true;
  shapes.push_back(fc2);
}

std::uint64_t rollout_hash(const std::vector<ConvSpec>& rollout,
                           std::uint64_t seed) {
  // The key on the stack for the common case (the search spaces top out at
  // 8 conv layers); heap fallback only for exotic callers. Must hash
  // identically to the historical vector<int>{c0, k0, c1, k1, ...} form —
  // the surrogate's luck values derived from it are part of every golden
  // trace.
  constexpr std::size_t kStackInts = 32;
  const std::size_t n = rollout.size() * 2;
  if (n <= kStackInts) {
    int key[kStackInts];
    for (std::size_t i = 0; i < rollout.size(); ++i) {
      key[2 * i] = rollout[i].channels;
      key[2 * i + 1] = rollout[i].kernel;
    }
    return util::hash_ints(std::span<const int>(key, n), seed);
  }
  std::vector<int> key;
  key.reserve(n);
  for (const auto& spec : rollout) {
    key.push_back(spec.channels);
    key.push_back(spec.kernel);
  }
  return util::hash_ints(key, seed);
}

}  // namespace lcda::nn
