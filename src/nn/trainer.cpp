#include "lcda/nn/trainer.h"

#include <stdexcept>

namespace lcda::nn {

namespace {

/// Snapshot/restore helper for noise-injection training.
class WeightSnapshot {
 public:
  /// Copies the live values in. A capture of the same parameters as the
  /// last one reuses its storage and allocates nothing.
  void capture(const std::vector<Param*>& params) {
    copies_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) copies_[i] = params[i]->value;
  }

  void restore(std::vector<Param*>& params) const {
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = copies_[i];
    }
  }

 private:
  std::vector<Tensor> copies_;
};

}  // namespace

double evaluate(Sequential& net, const data::Dataset& dataset, int batch_size) {
  net.set_training(false);
  data::DataLoader loader(dataset, batch_size, /*shuffle=*/false);
  util::Rng dummy(0);
  loader.start_epoch(dummy);
  std::size_t correct = 0, total = 0;
  while (true) {
    const data::Batch batch = loader.next();
    if (batch.size() == 0) break;
    const auto preds = net.predict(batch.images);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
    total += preds.size();
  }
  return total ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
}

double evaluate_noisy(Sequential& net, const data::Dataset& dataset,
                      const WeightPerturber& perturber, util::Rng& rng,
                      int batch_size) {
  auto params = net.params();
  WeightSnapshot snapshot;
  snapshot.capture(params);
  if (perturber) perturber(params, rng);
  const double acc = evaluate(net, dataset, batch_size);
  snapshot.restore(params);
  return acc;
}

TrainResult train(Sequential& net, const data::Dataset& train_set,
                  const TrainOptions& opts, util::Rng& rng) {
  if (opts.epochs <= 0) throw std::invalid_argument("train: epochs <= 0");
  auto params = net.params();
  Sgd optimizer(params, opts.sgd);
  data::DataLoader loader(train_set, /*batch_size=*/32);
  WeightSnapshot clean;

  TrainResult result;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    net.set_training(true);  // an on_epoch that evaluates flips to inference
    loader.start_epoch(rng);
    double loss_sum = 0.0;
    int batches = 0;
    while (true) {
      const data::Batch batch = loader.next();
      if (batch.size() == 0) break;
      if (opts.perturber) {
        // Noise-injection step: gradients at perturbed weights, update on
        // clean weights (the perturbation is a fresh draw each step).
        clean.capture(params);
        opts.perturber(params, rng);
        loss_sum += net.train_step_loss(batch.images, batch.labels);
        clean.restore(params);
      } else {
        loss_sum += net.train_step_loss(batch.images, batch.labels);
      }
      optimizer.step();
      ++batches;
    }
    const double mean_loss = batches ? loss_sum / batches : 0.0;
    result.epoch_loss.push_back(mean_loss);
    if (opts.on_epoch) opts.on_epoch(epoch, mean_loss);
    optimizer.set_lr(optimizer.lr() * opts.lr_decay);
  }
  net.set_training(false);
  return result;
}

}  // namespace lcda::nn
