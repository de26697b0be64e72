#pragma once

#include <vector>

#include "lcda/nn/model_builder.h"
#include "lcda/util/rng.h"

namespace lcda::surrogate {

/// Calibrated analytical stand-in for "train this topology on CIFAR-10 with
/// noise injection, then Monte-Carlo evaluate it under device variation".
///
/// The paper's evaluator costs GPU-hours per candidate; a 500-episode NACIM
/// baseline therefore cannot run on real training in this reproduction
/// (README "Scenario catalog": `trained-small` runs the faithful pipeline
/// at laptop scale). This model reproduces the *trends* that drive the
/// search:
///
///  * clean accuracy rises with channel width, saturating (log-capacity);
///  * larger kernels help clean accuracy slightly (more context);
///  * shrinking channel counts mid-network and >4x channel jumps hurt
///    trainability (the heuristics the paper says LCDA exploits);
///  * device variation costs accuracy in proportion to the dot-product
///    fan-in sqrt(K^2 * Cin) — so large kernels lose more accuracy on noisy
///    hardware than they gain cleanly (paper Sec. IV-B's first GPT-4
///    misconception);
///  * insufficient ADC resolution clips partial sums and costs accuracy.
///
/// All outputs are deterministic given the rollout + hardware descriptors:
/// per-design "training luck" comes from a hash of the rollout, not a global
/// RNG, so a design's accuracy is stable no matter when it is evaluated.
class AccuracyModel {
 public:
  struct Options {
    double base = 0.30;       ///< accuracy floor contribution of the backbone
    double amplitude = 0.55;  ///< saturating headroom above the base
    double width_coeff = 0.9;    ///< mean-over-layers log2(channels/8) weight
    double kernel1_penalty = -0.35;
    double kernel5_bonus = 0.012;
    double kernel7_bonus = 0.020;
    double shrink_penalty = -0.10;   ///< per layer with fewer out than in channels
    double jump_penalty = -0.05;     ///< per layer growing channels by > 4x
    double saturation_scale = 1.3;   ///< softness of the capacity saturation
    double variation_coeff = 1.0;    ///< accuracy loss per unit sigma*sqrt(fan-in)
    double injection_recovery = 0.45;  ///< fraction of the drop surviving
                                       ///< noise-injection training
    double adc_deficit_penalty = 0.04;  ///< per missing ADC bit
    double luck_sigma = 0.008;  ///< deterministic per-design training jitter
    double floor = 0.10;        ///< random-guess accuracy (10 classes)
    std::uint64_t calibration_seed = 0x5ca1e0ULL;
  };

  AccuracyModel() : AccuracyModel(Options{}) {}
  explicit AccuracyModel(Options opts) : opts_(opts) {}

  /// Everything about (rollout, sigma, adc deficit) that is deterministic:
  /// the ideal-hardware accuracy, the mean under variation, and the
  /// chip-to-chip spread. Computing these once per evaluation turns the
  /// Monte-Carlo loop into one normal draw + clamp per sample instead of
  /// re-deriving the clean accuracy (twice), the sensitivity and the
  /// rollout-hash "luck" every iteration — sample(precompute(...), rng) is
  /// bit-identical to noisy_accuracy_sample(...).
  struct SampleParams {
    double clean = 0.0;   ///< clean_accuracy(rollout)
    double mean = 0.0;    ///< noisy_accuracy(rollout, sigma, deficit)
    double spread = 0.0;  ///< stddev of the per-chip accuracy draw
  };

  /// Folds the deterministic part of a Monte-Carlo evaluation.
  [[nodiscard]] SampleParams precompute(const std::vector<nn::ConvSpec>& rollout,
                                        double weight_sigma,
                                        int adc_deficit_bits) const;

  /// One Monte-Carlo draw from precomputed params (the per-sample hot path).
  [[nodiscard]] double sample(const SampleParams& params, util::Rng& rng) const;

  /// Accuracy after noise-injection training, evaluated on ideal hardware.
  [[nodiscard]] double clean_accuracy(const std::vector<nn::ConvSpec>& rollout) const;

  /// Variation-sensitivity factor: mean over layers of sigma-amplification
  /// sqrt(K^2 * Cin), normalized by the 3x3/64-channel reference.
  [[nodiscard]] double sensitivity(const std::vector<nn::ConvSpec>& rollout) const;

  /// Mean accuracy under device variation `weight_sigma` with an ADC
  /// resolution shortfall of `adc_deficit_bits`.
  [[nodiscard]] double noisy_accuracy(const std::vector<nn::ConvSpec>& rollout,
                                      double weight_sigma,
                                      int adc_deficit_bits) const;

  /// One Monte-Carlo draw: chip-to-chip spread around noisy_accuracy().
  [[nodiscard]] double noisy_accuracy_sample(const std::vector<nn::ConvSpec>& rollout,
                                             double weight_sigma,
                                             int adc_deficit_bits,
                                             util::Rng& rng) const;

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  [[nodiscard]] double luck(const std::vector<nn::ConvSpec>& rollout) const;
  Options opts_;
};

}  // namespace lcda::surrogate
