// The faithful DNN performance-evaluator pipeline (paper Sec. III-C) at
// laptop scale: build a candidate topology, train it with noise injection
// on the synthetic CIFAR-10 stand-in, then Monte-Carlo evaluate it under
// the hardware's device-variation model.
//
// Usage: ./build/example_train_with_noise [epochs] [mc_samples] [seed]
//
// Dataset and backbone geometry come from the "trained-small" scenario in
// the registry (the reduced setting the TrainedEvaluator runs there).
// LCDA_PARALLELISM (the evaluation-engine worker knob of the loop-driving
// examples and benches) has nothing to fan out here — this example trains
// one candidate on the calling thread.
#include <cstdio>

#include "lcda/cim/cost_model.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/data/synthetic_cifar.h"
#include "lcda/nn/model_builder.h"
#include "lcda/nn/trainer.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/noise/variation.h"

int main(int argc, char** argv) {
  using namespace lcda;
  const auto args = core::positional_args(argc, argv);
  const char* usage = "example_train_with_noise [epochs] [mc_samples] [seed]";
  const int epochs = core::positive_count_arg(args, 0, 6, usage);
  const int mc_samples = core::positive_count_arg(args, 1, 10, usage);
  const std::uint64_t seed = core::seed_arg(args, 2, 7, usage);

  // Reduced-scale dataset from the trained-small scenario (full CIFAR
  // geometry is 3x32x32 / 10 classes; the scenario shrinks to keep the
  // trained pipeline to seconds on one core), at this example's
  // historical sample counts.
  const core::TrainedEvaluator::Options scenario_opts =
      core::scenario_by_name("trained-small").config.trained;
  data::SyntheticCifarOptions dopts = scenario_opts.dataset;
  dopts.train_per_class = 24;
  dopts.test_per_class = 12;
  dopts.seed = seed;
  const data::TrainTest data = data::make_synthetic_cifar(dopts);
  std::printf("dataset: %d train / %d test, %dx%d, %d classes\n",
              data.train.size(), data.test.size(), dopts.image_size,
              dopts.image_size, dopts.num_classes);

  // Candidate topology (4 conv stages here; the paper backbone has 6).
  const std::vector<nn::ConvSpec> rollout = {{16, 3}, {24, 3}, {32, 3}, {48, 3}};
  nn::BackboneOptions bopts = scenario_opts.backbone;
  bopts.input_size = dopts.image_size;
  bopts.num_classes = dopts.num_classes;

  // Hardware instance decides the variation level the training must absorb.
  cim::HardwareConfig hw;
  hw.device = cim::DeviceType::kRram;
  hw.bits_per_cell = 2;
  const cim::CostEvaluator cost_eval(hw);
  const cim::CostReport cost = cost_eval.evaluate(rollout, bopts);
  const noise::VariationModel variation(cost.weight_sigma);
  std::printf("hardware: %s -> weight sigma %.3f\n\n", hw.describe().c_str(),
              variation.weight_sigma());

  // Noise-injection training: every forward/backward pass sees a fresh
  // weight perturbation; updates apply to the clean weights [NACIM].
  util::Rng rng(seed);
  nn::Sequential net = nn::build_backbone(rollout, bopts, rng);
  std::printf("model (%lld MACs/sample, %zu params):\n%s\n",
              net.macs_per_sample(), net.param_count(), net.describe().c_str());

  nn::TrainOptions topts;
  topts.epochs = epochs;
  topts.perturber = variation.as_perturber();
  topts.on_epoch = [](int epoch, double loss, double acc) {
    std::printf("  epoch %2d  loss %.3f  clean test acc %.3f\n", epoch, loss, acc);
  };
  const nn::TrainResult tr = nn::train(net, data.train, data.test, topts, rng);

  // Monte-Carlo robustness: each sample programs one simulated chip.
  const noise::MonteCarloResult mc =
      noise::mc_noisy_accuracy(net, data.test, variation, mc_samples, rng);
  std::printf("\nclean accuracy:          %.3f\n", tr.final_test_accuracy);
  std::printf("noisy accuracy (n=%d):   %.3f +/- %.3f  [worst %.3f, best %.3f]\n",
              mc_samples, mc.mean(), mc.stddev(), mc.worst(), mc.best());
  std::printf("hardware: E %.3g pJ, L %.3g ns, area %.1f mm^2\n",
              cost.energy_total_pj, cost.latency_ns, cost.area_total_mm2);
  return 0;
}
