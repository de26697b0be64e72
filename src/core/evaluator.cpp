#include "lcda/core/evaluator.h"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "lcda/nn/quantize.h"
#include "lcda/nn/trainer.h"
#include "lcda/noise/monte_carlo.h"
#include "lcda/noise/variation.h"
#include "lcda/noise/write_verify.h"
#include "lcda/util/rng.h"
#include "lcda/util/stats.h"

namespace lcda::core {

namespace {

/// Content hash of every HardwareConfig field (unlike Design::hash, which
/// covers only the searched knobs — the memo must also distinguish fixed
/// fields like input_bits and the area budget).
std::uint64_t hardware_key(const cim::HardwareConfig& hw) {
  const int ints[] = {static_cast<int>(hw.device), hw.bits_per_cell,
                      hw.weight_bits, hw.input_bits, hw.adc_bits,
                      hw.xbar_size,   hw.col_mux};
  return util::hash_combine(util::hash_ints(ints, 0xc057ULL),
                            std::bit_cast<std::uint64_t>(hw.area_budget_mm2));
}

}  // namespace

void check_evaluator_options(const cim::CostModelOptions& cost,
                             int monte_carlo_samples) {
  // The evaluators build their CostEvaluators during the first episode.
  cost.check();
  if (monte_carlo_samples <= 0) {
    throw std::invalid_argument("monte_carlo_samples must be positive");
  }
}

void PerformanceEvaluator::evaluate_batch(std::span<EvalRequest> batch) {
  for (EvalRequest& req : batch) {
    *req.out = evaluate(*req.design, *req.rng);
  }
}

// ------------------------------------------------------ SurrogateEvaluator

SurrogateEvaluator::SurrogateEvaluator(Options opts)
    : opts_(opts), accuracy_(opts.accuracy) {
  check_evaluator_options(opts_.cost, opts_.monte_carlo_samples);
}

std::shared_ptr<const cim::CostEvaluator> SurrogateEvaluator::cost_evaluator_for(
    const cim::HardwareConfig& hw) {
  // Built outside the stripe lock: make_circuits is the expensive part, and
  // a concurrent duplicate build is harmless (first insert wins, both
  // values are identical by construction).
  return cost_memo_.get_or_build(hardware_key(hw), [&] {
    return std::make_shared<const cim::CostEvaluator>(hw, opts_.cost);
  });
}

void SurrogateEvaluator::evaluate_into(const search::Design& design,
                                       util::Rng& rng, Evaluation& out) {
  const std::shared_ptr<const cim::CostEvaluator> cost_eval =
      cost_evaluator_for(design.hw);
  // Rebuilt per evaluation (searches rarely revisit a rollout) into this
  // thread's vector, which keeps its capacity: nothing is allocated.
  thread_local std::vector<nn::LayerShape> shapes;
  nn::backbone_shapes_into(design.rollout, opts_.backbone, shapes);
  cost_eval->evaluate_span(shapes, out.cost);

  // Scenarios with selective write-verify deploy at a reduced effective
  // sigma and pay for it in one-time programming energy (the verified
  // fraction needs iterative write pulses instead of one); the gate keeps
  // the paper setting (fraction 0) bit-identical.
  double sigma = out.cost.weight_sigma;
  if (opts_.write_verify_fraction > 0.0) {
    sigma *= noise::effective_sigma_scale(opts_.write_verify_fraction,
                                          opts_.write_verify_sigma_scale);
    out.cost.programming_energy_pj *=
        (1.0 - opts_.write_verify_fraction) +
        opts_.write_verify_fraction * opts_.write_verify_pulses;
  }

  // The deterministic part of the accuracy model (clean accuracy, mean
  // under variation, chip-to-chip spread) is folded once, then sampled.
  const surrogate::AccuracyModel::SampleParams params = accuracy_.precompute(
      design.rollout, sigma, out.cost.max_adc_deficit_bits);
  sample_accuracy(params, rng, out);
  // The deterministic part travels with the Evaluation so the persistent
  // store can share it across studies (replay_evaluation re-runs only the
  // Monte-Carlo loop from these two numbers).
  out.replay_mean = params.mean;
  out.replay_spread = params.spread;
  out.has_replay_params = true;
}

bool SurrogateEvaluator::replay_evaluation(const Evaluation& cached,
                                           util::Rng& rng, Evaluation& out) {
  if (!cached.has_replay_params) return false;
  out.cost = cached.cost;
  out.replay_mean = cached.replay_mean;
  out.replay_spread = cached.replay_spread;
  out.has_replay_params = true;
  // The Monte-Carlo loop of evaluate_into — same draw count, because
  // monte_carlo_samples is part of the store's evaluation-identity
  // fingerprint, so producer and consumer agree — seeded by the
  // consumer's own stream: the result is bit-identical to the cold
  // evaluation this study would have computed itself.
  surrogate::AccuracyModel::SampleParams params{};
  params.mean = cached.replay_mean;
  params.spread = cached.replay_spread;
  sample_accuracy(params, rng, out);
  return true;
}

void SurrogateEvaluator::sample_accuracy(
    const surrogate::AccuracyModel::SampleParams& params, util::Rng& rng,
    Evaluation& out) const {
  // One fork + one normal draw + clamp per sample. The fork per sample is
  // load-bearing: it keeps the RNG stream layout — and hence every trace —
  // bit-identical to the historical per-sample evaluation.
  util::OnlineStats stats;
  for (int i = 0; i < opts_.monte_carlo_samples; ++i) {
    util::Rng sample_rng = rng.fork();
    stats.add(accuracy_.sample(params, sample_rng));
  }
  out.accuracy = stats.mean();
  out.accuracy_stddev = stats.stddev();
}

Evaluation SurrogateEvaluator::evaluate(const search::Design& design,
                                        util::Rng& rng) {
  Evaluation ev;
  evaluate_into(design, rng, ev);
  return ev;
}

void SurrogateEvaluator::evaluate_batch(std::span<EvalRequest> batch) {
  // One pass per worker chunk: every evaluation writes straight into its
  // request's Evaluation (the cost pass reuses the report's buffers), so
  // the steady-state loop allocates nothing per episode.
  for (EvalRequest& req : batch) {
    evaluate_into(*req.design, *req.rng, *req.out);
  }
}

// -------------------------------------------------------- TrainedEvaluator

TrainedEvaluator::TrainedEvaluator(Options opts)
    : opts_(opts), data_(data::make_synthetic_cifar(opts.dataset)) {
  check_evaluator_options(opts_.cost, opts_.monte_carlo_samples);
  // Backbone geometry must match the generated dataset.
  opts_.backbone.input_size = opts_.dataset.image_size;
  opts_.backbone.num_classes = opts_.dataset.num_classes;
}

Evaluation TrainedEvaluator::evaluate(const search::Design& design,
                                      util::Rng& rng) {
  Evaluation ev;
  const cim::CostEvaluator cost_eval(design.hw, opts_.cost);
  ev.cost = cost_eval.evaluate(design.rollout, opts_.backbone);

  // Noise-injection training at the hardware's variation level ([10]).
  const noise::VariationModel variation(ev.cost.weight_sigma);
  util::Rng train_rng = rng.fork();
  nn::Sequential net = nn::build_backbone(design.rollout, opts_.backbone, train_rng);
  nn::TrainOptions topts;
  topts.epochs = opts_.epochs;
  topts.perturber = variation.as_perturber();
  (void)nn::train(net, data_.train, topts, train_rng);

  // Deployment: weights are quantized to the hardware's fixed-point format
  // before being programmed into the crossbars.
  auto params = net.params();
  (void)nn::quantize_params(params, {.bits = design.hw.weight_bits});

  // Monte-Carlo accuracy across simulated chip instances ([16]).
  util::Rng mc_rng = rng.fork();
  const noise::MonteCarloResult mc = noise::mc_noisy_accuracy(
      net, data_.test, variation, opts_.monte_carlo_samples, mc_rng);
  ev.accuracy = mc.mean();
  ev.accuracy_stddev = mc.stddev();
  return ev;
}

}  // namespace lcda::core
