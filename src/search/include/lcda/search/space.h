#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "lcda/search/design.h"
#include "lcda/util/rng.h"

namespace lcda::search {

/// The NACIM co-design space (paper Sec. IV): per-layer channel and kernel
/// choices for six conv layers, plus the hardware knobs.
class SearchSpace {
 public:
  struct Options {
    int conv_layers = 6;
    std::vector<int> channel_choices = {16, 24, 32, 48, 64, 96, 128};
    std::vector<int> kernel_choices = {1, 3, 5, 7};
    cim::HardwareChoices hw;
    nn::BackboneOptions backbone;

    /// Area budget stamped onto every design this space produces (decode,
    /// sample, snap). Designs whose chip exceeds it are invalid and earn
    /// the framework's -1 reward; scenarios tighten it to stress the
    /// optimizers' validity handling.
    double area_budget_mm2 = 75.0;
  };

  SearchSpace() : SearchSpace(Options{}) {}
  explicit SearchSpace(Options opts);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int conv_layers() const { return opts_.conv_layers; }

  /// Number of categorical decision dimensions:
  /// 2 per conv layer + 5 hardware knobs.
  [[nodiscard]] std::size_t dimensions() const;

  /// Choice count of dimension d.
  [[nodiscard]] std::size_t cardinality(std::size_t dim) const;

  /// Total design count (product of cardinalities).
  [[nodiscard]] double total_designs() const;

  /// Encode/decode between a Design and a per-dimension choice-index vector.
  /// encode() throws if a design uses values outside the space; try_encode()
  /// returns nothing instead, the check optimizers run on every observation.
  [[nodiscard]] std::vector<int> encode(const Design& design) const;
  [[nodiscard]] std::optional<std::vector<int>> try_encode(const Design& design) const;
  [[nodiscard]] Design decode(const std::vector<int>& indices) const;

  /// Equivalent to decode(indices) == design (false instead of throwing on
  /// malformed indices), without materializing the decoded Design — the
  /// allocation-free check the RL controller runs on every feedback.
  [[nodiscard]] bool decodes_to(const std::vector<int>& indices,
                                const Design& design) const;

  /// True when every rollout entry and hardware knob is a legal choice.
  [[nodiscard]] bool contains(const Design& design) const;

  /// Clamps a design onto the space: every value is snapped to the nearest
  /// legal choice (used to repair slightly-off LLM proposals).
  [[nodiscard]] Design snap(const Design& design) const;

  /// Uniformly random design.
  [[nodiscard]] Design sample(util::Rng& rng) const;

  /// The breeding step of GeneticOptimizer and Nsga2Optimizer on two
  /// parents' choice indices: with probability crossover_rate, uniform
  /// crossover (each gene from `b` with probability 1/2), then each gene
  /// redrawn with probability mutation_rate.
  [[nodiscard]] std::vector<int> offspring(const std::vector<int>& a,
                                           const std::vector<int>& b,
                                           double crossover_rate,
                                           double mutation_rate,
                                           util::Rng& rng) const;

  /// Human-readable description of the choices (used in LLM prompts):
  /// channels, kernels and hardware knob option lists.
  [[nodiscard]] std::string choices_text() const;

  /// Description of the backbone (used in LLM prompts), with the pooling
  /// schedule the network is built with (backbone.pool_after).
  [[nodiscard]] std::string model_text() const;

 private:
  Options opts_;
};

}  // namespace lcda::search
