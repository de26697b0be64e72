// SWIM-style selective write-verify ablation (paper ref [5]) on the *real*
// training pipeline: train one candidate with noise injection, then sweep
// the fraction of magnitude-selected weights that get write-verified and
// measure Monte-Carlo accuracy vs. programming cost.
//
// Expected shape (SWIM's claim): accuracy rises steeply for small verified
// fractions and saturates — verifying ~10-25% of weights captures most of
// the benefit at a small multiple of the single-pulse programming cost.
// Dataset, backbone and hardware cost options come from the
// "trained-small" scenario — the registry entry for the faithful training
// pipeline at laptop scale — so this bench and `lcda_run
// --scenario=trained-small` exercise the same reduced setting.
//
// Usage: bench_ablation_write_verify [mc_samples]
//   mc_samples: Monte-Carlo samples per verified fraction (default 8)
#include <cstdio>

#include "lcda/cim/cost_model.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/data/synthetic_cifar.h"
#include "lcda/nn/model_builder.h"
#include "lcda/nn/trainer.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/noise/write_verify.h"
#include "lcda/search/design.h"

int main(int argc, char** argv) {
  using namespace lcda;
  const int mc_samples = core::positive_count_arg(
      core::positional_args(argc, argv), 0, 8,
      "bench_ablation_write_verify [mc_samples]");

  const core::TrainedEvaluator::Options topts_scenario =
      core::scenario_by_name("trained-small").config.trained;
  const data::TrainTest data = data::make_synthetic_cifar(topts_scenario.dataset);

  const std::vector<nn::ConvSpec> rollout = {{16, 3}, {24, 3}, {32, 3}, {48, 3}};
  nn::BackboneOptions bopts = topts_scenario.backbone;
  bopts.input_size = topts_scenario.dataset.image_size;
  bopts.num_classes = topts_scenario.dataset.num_classes;

  cim::HardwareConfig hw;  // RRAM b2: a deliberately noisy operating point
  const cim::CostEvaluator cost_eval(hw);
  const cim::CostReport cost = cost_eval.evaluate(rollout, bopts);
  const noise::VariationModel variation(cost.weight_sigma);
  const cim::DeviceModel dev = cim::device_model(hw.device);

  util::Rng rng(11);
  nn::Sequential net = nn::build_backbone(rollout, bopts, rng);
  nn::TrainOptions topts;
  topts.epochs = 8;
  topts.sgd.lr = 0.01;  // the 4-stage net needs a gentler rate than default
  // Standard practice: inject at a reduced sigma so training stays stable,
  // then evaluate at the full deployment sigma.
  topts.perturber = noise::VariationModel(0.3 * cost.weight_sigma).as_perturber();
  (void)nn::train(net, data.train, topts, rng);
  const double clean_acc = nn::evaluate(net, data.test);
  long long weights = 0;
  for (auto* p : net.params()) weights += static_cast<long long>(p->value.size());

  std::printf("topology %s on %s, weight sigma %.3f, clean accuracy %.3f\n\n",
              search::Design{rollout, hw}.rollout_text().c_str(),
              hw.describe().c_str(), variation.weight_sigma(),
              clean_acc);
  std::printf("%-10s %12s %12s %16s %14s\n", "fraction", "mc accuracy",
              "mc stddev", "write pulses", "prog energy(pJ)");

  for (double fraction : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    noise::SelectiveWriteVerify::Options wopts;
    wopts.fraction = fraction;
    const noise::SelectiveWriteVerify swv(variation, wopts);
    util::Rng mc_rng(12);
    const auto mc = noise::monte_carlo(
        [&](util::Rng& r) {
          return nn::evaluate_noisy(net, data.test, swv.as_perturber(), r);
        },
        mc_samples, mc_rng);
    const auto prog = swv.programming_cost(weights, hw.cells_per_weight(), dev);
    std::printf("%-10.2f %12.3f %12.3f %16.3g %14.3g\n", fraction, mc.mean(),
                mc.stddev(), prog.write_pulses, prog.energy_pj);
  }

  std::printf("\n[expected: Monte-Carlo accuracy climbs monotonically toward "
              "the clean accuracy as the verified fraction grows, while "
              "programming cost grows ~8x from none to full verification; "
              "where the knee sits depends on how concentrated the trained "
              "weight magnitudes are]\n");
  return 0;
}
