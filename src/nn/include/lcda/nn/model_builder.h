#pragma once

#include <vector>

#include "lcda/nn/sequential.h"
#include "lcda/util/rng.h"

namespace lcda::nn {

/// One convolution stage of the NACIM backbone: output channels + square
/// kernel size. A "rollout" is six of these (paper Sec. IV).
struct ConvSpec {
  int channels = 0;
  int kernel = 0;
  [[nodiscard]] bool operator==(const ConvSpec&) const = default;
};

/// Options for the CIFAR backbone used throughout the paper: six conv
/// layers (ReLU each, 2x2 max-pool after stages 2, 4 and 6) followed by two
/// fully connected layers with a fixed hidden width.
struct BackboneOptions {
  int input_channels = 3;
  int input_size = 32;     ///< square input resolution
  int num_classes = 10;
  int hidden = 1024;       ///< FC hidden width ("set at 1024" in the paper)
  std::vector<int> pool_after = {1, 3, 5};  ///< conv indices followed by pooling
  /// Insert BatchNorm2d between each conv and its ReLU. Off by default to
  /// match the paper's plain backbone; useful for variation-robustness
  /// studies (normalization bounds the ADC input range).
  bool batch_norm = false;
};

/// Builds the backbone for a given rollout. Throws if the pooling schedule
/// would drive the spatial size below 1 or if the rollout is empty.
[[nodiscard]] Sequential build_backbone(const std::vector<ConvSpec>& rollout,
                                        const BackboneOptions& opts,
                                        util::Rng& rng);

/// Per-layer shapes of the backbone as seen by the hardware mapper:
/// (in_channels, out_channels, kernel, input H=W, output H=W) for each conv,
/// then the two FC layers expressed as 1x1 "convs" on 1x1 inputs.
struct LayerShape {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 1;
  int in_hw = 1;   ///< input spatial size (H = W)
  int out_hw = 1;  ///< output spatial size
  bool is_fc = false;

  /// Weight matrix dimensions when unrolled for a crossbar:
  /// rows = K*K*Cin, cols = Cout.
  [[nodiscard]] long long weight_rows() const {
    return static_cast<long long>(kernel) * kernel * in_channels;
  }
  [[nodiscard]] long long weight_cols() const { return out_channels; }
  [[nodiscard]] long long macs() const {
    return weight_rows() * weight_cols() * out_hw * out_hw;
  }
};

/// Computes the LayerShape list for a rollout without instantiating any
/// tensors — this is what the hardware cost evaluator consumes.
[[nodiscard]] std::vector<LayerShape> backbone_shapes(
    const std::vector<ConvSpec>& rollout, const BackboneOptions& opts);

/// backbone_shapes into a caller-kept vector: `shapes` is cleared and
/// refilled, so a reused vector allocates only when it must grow.
void backbone_shapes_into(const std::vector<ConvSpec>& rollout,
                          const BackboneOptions& opts,
                          std::vector<LayerShape>& shapes);

/// Order-sensitive content hash of a rollout, equivalent to
/// util::hash_ints over {c0, k0, c1, k1, ...} with `seed` — the key of the
/// surrogate's deterministic "training luck". Allocation-free for
/// rollouts up to 16 layers.
[[nodiscard]] std::uint64_t rollout_hash(const std::vector<ConvSpec>& rollout,
                                         std::uint64_t seed);

}  // namespace lcda::nn
