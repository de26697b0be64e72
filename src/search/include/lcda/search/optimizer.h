#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/search/design.h"
#include "lcda/util/rng.h"

namespace lcda::search {

/// What the framework reports back to an optimizer after evaluating one
/// design candidate (one "episode" in the paper's terminology).
struct Observation {
  Design design;
  /// Scalar reward from the reward function; -1 for invalid hardware.
  double reward = 0.0;
  /// Components, for optimizers/logs that want them.
  double accuracy = 0.0;
  double energy_pj = 0.0;
  double latency_ns = 0.0;
  bool valid = false;
};

/// Design optimizer interface (paper Sec. III-A): proposes the next design
/// candidate given everything observed so far.
///
/// Implementations: llm::LlmOptimizer (LCDA), RlOptimizer (NACIM's RL
/// strategy), GeneticOptimizer, Nsga2Optimizer, AnnealingOptimizer,
/// RandomOptimizer.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Next candidate to evaluate.
  [[nodiscard]] virtual Design propose(util::Rng& rng) = 0;

  /// Result of evaluating the most recent (or any past) proposal.
  virtual void feedback(const Observation& obs) = 0;

  /// --- Batch contract (the parallel engine's entry points) -------------
  ///
  /// propose_batch_into(n, rng, out) fills `out` with exactly n candidates
  /// produced without any feedback in between; feedback_batch delivers
  /// their observations in proposal order. The defaults delegate to the
  /// scalar methods, so a strictly sequential optimizer (e.g.
  /// llm::LlmOptimizer, whose every prompt embeds the full history) keeps
  /// its semantics unchanged. Overrides may implement genuinely
  /// generational behaviour, but a batch of size 1 must always be
  /// equivalent to one scalar round trip. Each shipped optimizer has one
  /// path, so this holds by construction: LLM, RL and Random implement
  /// the scalar methods and inherit these defaults; Genetic, NSGA-II and
  /// Annealing implement the batch methods and inherit BatchOptimizer's
  /// scalar ones. engine_test's BaselineDigest cases pin every non-LLM
  /// trace at the natural batch and at batch sizes 1 and 8.
  ///
  /// The engine calls propose_batch_into with a reused buffer every round
  /// (the out-parameter is what keeps the steady-state proposal plumbing
  /// allocation-free); propose_batch is the convenience wrapper.

  virtual void propose_batch_into(std::size_t n, util::Rng& rng,
                                  std::vector<Design>& out) {
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(propose(rng));
  }

  [[nodiscard]] std::vector<Design> propose_batch(std::size_t n,
                                                  util::Rng& rng) {
    std::vector<Design> out;
    propose_batch_into(n, rng, out);
    return out;
  }

  virtual void feedback_batch(std::span<const Observation> batch) {
    for (const Observation& obs : batch) feedback(obs);
  }

  /// Largest batch this optimizer naturally digests per round: 1 for
  /// strictly sequential strategies, the population size for generational
  /// ones, 0 for "no preference" (any batch size is as good as any other).
  [[nodiscard]] virtual std::size_t preferred_batch() const { return 1; }

  /// Unused by the library. A checkpoint is the run's round log, replayed
  /// from a freshly built optimizer, so no optimizer serializes anything
  /// beyond it: serialize_state writes nothing and succeeds, restore_state
  /// accepts only that empty blob. The two virtuals stay only because the
  /// benchmark probe (perfbench/probe.cpp) still overrides them.
  virtual bool serialize_state(std::string& out) const {
    out.clear();
    return true;
  }

  virtual bool restore_state(std::string_view blob) { return blob.empty(); }

  /// How many batches beyond the last fed-back one this optimizer may be
  /// asked to propose WITHOUT changing its proposal stream — the engine's
  /// licence to overlap propose_batch(k+1) with batch k still evaluating
  /// (CodesignLoop pipelined mode). 0 (the default) means "my proposals
  /// depend on the latest feedback; never propose ahead", which keeps
  /// learning optimizers (RL, GA, annealing, LLM history prompts) on the
  /// strict propose -> evaluate -> feedback cadence. Optimizers whose
  /// proposals are feedback-independent (e.g. random search) return a
  /// large value; the loop clamps it to its pipeline depth.
  [[nodiscard]] virtual std::size_t pipeline_lookahead() const { return 0; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Base of the optimizers whose batch methods are their only
/// implementation: a scalar call is a batch of one.
class BatchOptimizer : public Optimizer {
 public:
  [[nodiscard]] Design propose(util::Rng& rng) final {
    std::vector<Design> one;
    propose_batch_into(1, rng, one);
    return std::move(one.front());
  }
  void feedback(const Observation& obs) final { feedback_batch({&obs, 1}); }
};

}  // namespace lcda::search
