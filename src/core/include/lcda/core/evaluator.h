#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "lcda/cim/cost_model.h"
#include "lcda/data/synthetic_cifar.h"
#include "lcda/search/design.h"
#include "lcda/surrogate/accuracy_model.h"
#include "lcda/util/rng.h"
#include "lcda/util/striped_cache.h"

namespace lcda::core {

/// Joint result of the DNN performance evaluator and the hardware cost
/// evaluator for one candidate (paper Sec. III-C/D).
struct Evaluation {
  double accuracy = 0.0;        ///< mean Monte-Carlo accuracy under variation
  double accuracy_stddev = 0.0; ///< chip-to-chip spread
  cim::CostReport cost;

  /// Deterministic accuracy-model parameters behind the Monte-Carlo loop
  /// (surrogate::AccuracyModel::SampleParams mean/spread). Unlike
  /// `accuracy`, which folds in the producing study's RNG draws, these are
  /// a pure content function of (design, evaluator options) — they are
  /// what the evaluation store may legally share across studies. A
  /// consumer re-derives its own bit-exact accuracy from them by replaying
  /// the Monte-Carlo draws with its own stream
  /// (PerformanceEvaluator::replay_evaluation). has_replay_params is false
  /// for evaluators without a replayable accuracy model.
  double replay_mean = 0.0;
  double replay_spread = 0.0;
  bool has_replay_params = false;
};

/// Evaluation's numeric fields in codec order, `f(field)` once each: 20
/// doubles, then 3 integers. The checkpoint round log
/// (ckpt::encode_evaluation) and the store record (store::encode_record)
/// both walk this list and add their own flags and invalid_reason around
/// it, so a warm rerun and a resume read back the same fields. The store
/// gives each field 8 bytes at offsets 40-223, so a field added here is a
/// new store record format.
template <typename E, typename F>
void for_each_evaluation_field(E& ev, F&& f) {
  auto& c = ev.cost;
  f(ev.accuracy);
  f(ev.accuracy_stddev);
  f(ev.replay_mean);
  f(ev.replay_spread);
  f(c.area_arrays_mm2);
  f(c.area_buffer_mm2);
  f(c.area_digital_mm2);
  f(c.area_noc_mm2);
  f(c.area_total_mm2);
  f(c.energy_adc_pj);
  f(c.energy_xbar_pj);
  f(c.energy_dac_pj);
  f(c.energy_digital_pj);
  f(c.energy_buffer_pj);
  f(c.energy_noc_pj);
  f(c.energy_total_pj);
  f(c.latency_ns);
  f(c.leakage_mw);
  f(c.programming_energy_pj);
  f(c.weight_sigma);
  f(c.total_weights);
  f(c.total_cells);
  f(c.max_adc_deficit_bits);
}

/// One evaluation of a batch: the design to cost, the pre-forked private
/// RNG stream that makes the result independent of scheduling, and where
/// the Evaluation lands. All three point into storage the caller keeps
/// alive (and no two requests alias), so a worker owns its request
/// exclusively and a whole round can be evaluated with zero per-episode
/// allocation.
struct EvalRequest {
  const search::Design* design = nullptr;
  util::Rng* rng = nullptr;
  Evaluation* out = nullptr;
};

/// Evaluates a design candidate end to end: builds the hardware cost report
/// and measures DNN accuracy under that hardware's device variation.
class PerformanceEvaluator {
 public:
  virtual ~PerformanceEvaluator() = default;
  [[nodiscard]] virtual Evaluation evaluate(const search::Design& design,
                                            util::Rng& rng) = 0;

  /// Batch contract: evaluates every request in order. The default
  /// delegates to scalar evaluate(); evaluators with per-evaluation setup
  /// cost override it to amortize that work across the batch. Requests are
  /// independent (each has its own RNG stream), so results are identical
  /// to scalar evaluation no matter how the caller splits a round into
  /// batches — the co-design loop sends one contiguous chunk per worker.
  virtual void evaluate_batch(std::span<EvalRequest> batch);

  /// Cross-study reuse hook: re-derives the Evaluation this evaluator
  /// would have computed for the design behind `cached`, consuming `rng`
  /// exactly as a fresh evaluate() would, but skipping all deterministic
  /// work by starting from cached.replay_mean/replay_spread and
  /// cached.cost. Returns false (leaving `out` untouched, `rng`
  /// unconsumed) when `cached` carries no replay parameters or this
  /// evaluator cannot replay — the caller then evaluates cold. When it
  /// returns true, `out` is bit-identical to a cold evaluation with the
  /// same `rng` state, so a replayed hit can never change a trace.
  [[nodiscard]] virtual bool replay_evaluation(const Evaluation& cached,
                                               util::Rng& rng,
                                               Evaluation& out) {
    (void)cached;
    (void)rng;
    (void)out;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Fast evaluator: surrogate accuracy model + analytical cost model, with a
/// Monte-Carlo loop over the surrogate's chip-instance draws. It stands in
/// for the paper's train-then-Monte-Carlo evaluator, which costs GPU-hours
/// per candidate (README "Scenario catalog": `trained-small` runs the
/// faithful pipeline at laptop scale). This is what the benchmark
/// harnesses use — a 500-episode NACIM run completes in seconds.
///
/// Thread-safe: evaluate()/evaluate_batch() may be called concurrently from
/// pool workers (the co-design loop does, and run_aggregate shares one
/// instance across every seed's run). The two-phase cost model keeps the
/// hot path allocation-free: per-hardware CostPlans and per-rollout
/// LayerShapeSpans come from hash-striped content-keyed caches, and the
/// per-rollout pass writes straight into the caller's Evaluation.
class SurrogateEvaluator final : public PerformanceEvaluator {
 public:
  struct Options {
    surrogate::AccuracyModel::Options accuracy;
    cim::CostModelOptions cost;
    nn::BackboneOptions backbone;
    int monte_carlo_samples = 16;

    /// SWIM-style selective write-verify at deployment: the fraction of
    /// weights programmed with iterative verification (at
    /// write_verify_sigma_scale times the raw device sigma), shrinking the
    /// effective weight error the accuracy model sees
    /// (noise::effective_sigma_scale). The accuracy benefit is not free:
    /// each verified device costs write_verify_pulses write pulses instead
    /// of one, and the cost report's one-time programming energy is scaled
    /// accordingly. 0 = plain single-pulse programming, the paper's
    /// setting.
    double write_verify_fraction = 0.0;
    double write_verify_sigma_scale = 0.1;
    double write_verify_pulses = 8.0;
  };

  SurrogateEvaluator() : SurrogateEvaluator(Options{}) {}
  explicit SurrogateEvaluator(Options opts);

  [[nodiscard]] Evaluation evaluate(const search::Design& design,
                                    util::Rng& rng) override;
  void evaluate_batch(std::span<EvalRequest> batch) override;
  [[nodiscard]] bool replay_evaluation(const Evaluation& cached,
                                       util::Rng& rng,
                                       Evaluation& out) override;
  [[nodiscard]] std::string name() const override { return "Surrogate"; }

 private:
  void evaluate_into(const search::Design& design, util::Rng& rng,
                     Evaluation& out);
  [[nodiscard]] std::shared_ptr<const cim::CostEvaluator> cost_evaluator_for(
      const cim::HardwareConfig& hw);
  [[nodiscard]] std::shared_ptr<const cim::LayerShapeSpan> span_for(
      const std::vector<nn::ConvSpec>& rollout);

  Options opts_;
  surrogate::AccuracyModel accuracy_;

  /// Search loops revisit the same hardware configs (≤ a few hundred combos
  /// in the NACIM space) and rollouts constantly; rebuilding the circuit
  /// library / CostEvaluator (phase one of the cost model) and re-deriving
  /// the flattened layer geometry per evaluation dominated the
  /// non-Monte-Carlo half of the hot path. Both memos are content-keyed, so
  /// they never change a result — and they are hash-striped
  /// (util::StripedCache) because the loop calls evaluate() concurrently
  /// from pool workers and run_aggregate fans whole seed-runs over one
  /// shared instance: a single memo mutex was the engine's last
  /// serialization point.
  util::StripedCache<cim::CostEvaluator> cost_memo_;
  util::StripedCache<cim::LayerShapeSpan> span_memo_;
};

/// Faithful evaluator: trains the candidate topology with noise injection
/// on the synthetic CIFAR set, then Monte-Carlo evaluates it under the
/// hardware's variation model (the paper's actual pipeline, Sec. III-C).
/// Costs seconds-to-minutes per candidate — used by examples and
/// integration tests on reduced datasets.
class TrainedEvaluator final : public PerformanceEvaluator {
 public:
  struct Options {
    data::SyntheticCifarOptions dataset;
    nn::BackboneOptions backbone;
    cim::CostModelOptions cost;
    int epochs = 6;
    int monte_carlo_samples = 8;
  };

  explicit TrainedEvaluator(Options opts);

  [[nodiscard]] Evaluation evaluate(const search::Design& design,
                                    util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "Trained"; }

  [[nodiscard]] const data::TrainTest& dataset() const { return data_; }

 private:
  Options opts_;
  data::TrainTest data_;
};

}  // namespace lcda::core
