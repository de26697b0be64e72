#pragma once

#include <functional>
#include <vector>

#include "lcda/data/loader.h"
#include "lcda/nn/sequential.h"
#include "lcda/nn/sgd.h"
#include "lcda/util/rng.h"

namespace lcda::nn {

/// Callback that perturbs parameters in place (e.g. samples NVM conductance
/// variation). Invoked once per training step on the live weights; the
/// trainer snapshots and restores the clean weights around it, so the
/// callback never needs to undo anything.
using WeightPerturber = std::function<void(std::vector<Param*>&, util::Rng&)>;

struct TrainOptions {
  int epochs = 10;
  Sgd::Options sgd;
  /// Learning-rate decay multiplier applied at each epoch end.
  double lr_decay = 0.95;
  /// When set, implements noise-injection training [NACIM]: each step the
  /// forward/backward pass runs on perturbed weights while the update is
  /// applied to the clean weights.
  WeightPerturber perturber;
  /// Optional per-epoch progress callback (epoch, mean training loss). It
  /// may evaluate `net` (see evaluate()): each epoch starts in training
  /// mode whatever the callback left.
  std::function<void(int, double)> on_epoch;
};

struct TrainResult {
  std::vector<double> epoch_loss;  ///< mean training loss of each epoch
};

/// Trains `net` on `train` and leaves it in inference mode. Scores no test
/// set: a caller that wants accuracy calls evaluate().
///
/// Determinism: all stochasticity (shuffling, perturbation) flows through
/// `rng`, so the same seed reproduces the same trajectory.
TrainResult train(Sequential& net, const data::Dataset& train,
                  const TrainOptions& opts, util::Rng& rng);

/// Evaluates accuracy in minibatches (avoids materializing one giant batch).
[[nodiscard]] double evaluate(Sequential& net, const data::Dataset& dataset,
                              int batch_size = 64);

/// Evaluates accuracy with weights perturbed by `perturber` (restores the
/// clean weights afterwards). One draw; see noise::MonteCarloEvaluator for
/// multi-draw statistics.
[[nodiscard]] double evaluate_noisy(Sequential& net, const data::Dataset& dataset,
                                    const WeightPerturber& perturber,
                                    util::Rng& rng, int batch_size = 64);

}  // namespace lcda::nn
