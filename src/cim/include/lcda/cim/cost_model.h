#pragma once

#include <span>
#include <string>
#include <vector>

#include "lcda/cim/circuits.h"
#include "lcda/cim/config.h"
#include "lcda/cim/mapper.h"
#include "lcda/cim/noc.h"
#include "lcda/nn/model_builder.h"

namespace lcda::cim {

/// Per-layer slice of the chip cost.
struct LayerCost {
  int layer_index = 0;
  double latency_ns = 0.0;
  double energy_pj = 0.0;
  long long arrays = 0;
  double utilization = 0.0;
  int adc_deficit_bits = 0;  ///< required ADC bits minus provisioned bits, >= 0
};

/// Whole-chip cost report — the DNN+NeuroSim-equivalent output
/// (chip area, latency, dynamic energy, leakage power; paper Sec. III-D).
struct CostReport {
  bool valid = false;
  std::string invalid_reason;

  // --- area (mm^2) ---
  double area_arrays_mm2 = 0.0;   ///< crossbars + DAC/mux/ADC/shift-add
  double area_buffer_mm2 = 0.0;   ///< eDRAM tiles
  double area_digital_mm2 = 0.0;  ///< activation/pooling/registers
  double area_noc_mm2 = 0.0;      ///< H-tree routers
  double area_total_mm2 = 0.0;

  // --- dynamic energy per inference (pJ) ---
  double energy_adc_pj = 0.0;
  double energy_xbar_pj = 0.0;
  double energy_dac_pj = 0.0;
  double energy_digital_pj = 0.0;
  double energy_buffer_pj = 0.0;
  double energy_noc_pj = 0.0;  ///< inter-tile H-tree traffic
  double energy_total_pj = 0.0;

  // --- timing ---
  double latency_ns = 0.0;  ///< one frame, layer-sequential execution
  [[nodiscard]] double fps() const {
    return latency_ns > 0.0 ? 1e9 / latency_ns : 0.0;
  }

  // --- static power ---
  double leakage_mw = 0.0;

  // --- one-time chip programming (weights written once at deployment;
  //     excluded from per-inference energy) ---
  long long total_weights = 0;       ///< logical weights incl. replication
  long long total_cells = 0;         ///< NVM devices programmed
  double programming_energy_pj = 0.0;  ///< single-pulse write per cell; see
                                       ///< noise::SelectiveWriteVerify for
                                       ///< write-verify accounting

  // --- bookkeeping for the accuracy models ---
  /// Effective relative weight-error sigma of this hardware (device
  /// programming + temporal variation composed across the cells holding one
  /// weight). Consumed by noise::VariationModel / surrogate.
  double weight_sigma = 0.0;
  /// Worst-case ADC resolution shortfall across layers (0 = exact).
  int max_adc_deficit_bits = 0;

  /// Per-layer detail. Filled by the detailed evaluate() overloads; the
  /// engine's lean evaluate_span() path leaves both empty (every scalar
  /// above is still populated, bit-identically).
  std::vector<LayerCost> layers;
  MappingResult mapping;

  [[nodiscard]] double energy_per_mac_pj(long long total_macs) const {
    return total_macs > 0 ? energy_total_pj / static_cast<double>(total_macs) : 0.0;
  }

  /// Resets every field to its default while keeping the capacity of
  /// `layers` / `mapping.layers` / `invalid_reason`, so a report can be
  /// reused across evaluations without reallocating.
  void reset();
};

/// Options that define the fixed parts of the chip organization.
struct CostModelOptions {
  /// Crossbar arrays grouped per tile (shared buffer + digital units).
  int arrays_per_tile = 16;
  /// Activation buffer per tile, KB.
  int buffer_kb_per_tile = 64;
  MapperOptions mapper;

  /// Throws std::invalid_argument unless a tile holds at least one array
  /// and its buffer is not negative.
  void check() const;
};

/// Phase one of the two-phase cost model: every term of the chip cost that
/// does not depend on the network being mapped, folded once per
/// HardwareConfig at CostEvaluator construction. The per-rollout pass then
/// reads only these scalars and each layer's weight rows, weight columns
/// and output pixel count.
///
/// Precomputed values are produced by exactly the expressions the
/// historical per-evaluation code used, so phase two reproduces the old
/// CostReport bit for bit (pinned in tests/cim_test.cpp).
struct CostPlan {
  // --- mapper terms ---
  int xbar_size = 0;
  int cells_per_weight = 0;
  int input_bits = 0;
  int max_replication = 0;
  int adc_bits = 0;
  int bits_per_cell = 0;
  double replication_area_cap_mm2 = 0.0;  ///< budget * replication fraction

  // --- per-unit circuit energies (pJ) ---
  double adc_energy_per_conversion_pj = 0.0;
  double cell_read_energy_pj = 0.0;
  double dac_energy_per_row_pj = 0.0;
  double sa_mux_energy_per_conversion_pj = 0.0;  ///< shift-add + mux, summed
  double digital_energy_per_output_pj = 0.0;
  double buffer_energy_per_byte_pj = 0.0;
  double noc_energy_per_byte_hop_pj = 0.0;

  // --- timing ---
  double read_latency_ns = 0.0;  ///< one full analog array read

  // --- area / leakage ---
  int arrays_per_tile = 0;
  int buffer_kb_per_tile = 0;
  double area_per_array_mm2 = 0.0;
  double buffer_area_per_kb_mm2 = 0.0;
  double digital_area_per_tile_mm2 = 0.0;
  double noc_router_area_mm2 = 0.0;
  double array_leakage_mw = 0.0;
  double leakage_per_tile_mw = 0.0;  ///< buffer + digital + router, summed
  double area_budget_mm2 = 0.0;

  // --- device ---
  double weight_sigma = 0.0;
  double device_write_energy_pj = 0.0;
};

/// Evaluates ISAAC-style chip costs for a network on a hardware config.
///
/// Construction validates the config and options (throws
/// std::invalid_argument) and folds the hardware-only cost terms into a
/// CostPlan; evaluation is then a single fused mapping+cost pass per
/// rollout. evaluate() never throws for well-formed shapes: an over-budget
/// chip comes back with valid = false, which the framework maps to reward -1.
///
/// Thread-safe after construction: evaluation only reads the plan.
class CostEvaluator {
 public:
  explicit CostEvaluator(const HardwareConfig& hw, CostModelOptions opts = {});

  [[nodiscard]] CostReport evaluate(const std::vector<nn::LayerShape>& shapes) const;

  /// Convenience: shapes derived from a rollout + backbone options.
  [[nodiscard]] CostReport evaluate(const std::vector<nn::ConvSpec>& rollout,
                                    const nn::BackboneOptions& backbone) const;

  /// The engine's hot path (phase two): whole-chip totals written into
  /// `out`, reusing its buffers — zero allocations for a valid design of
  /// up to 48 layers. `out.layers` / `out.mapping` are left empty; every
  /// scalar field is bit-identical to the detailed evaluate() overloads.
  void evaluate_span(std::span<const nn::LayerShape> shapes,
                     CostReport& out) const;

  [[nodiscard]] const HardwareConfig& config() const { return hw_; }
  [[nodiscard]] const CircuitLibrary& circuits() const { return circuits_; }
  [[nodiscard]] const CostPlan& plan() const { return plan_; }

 private:
  void run_pass(std::span<const nn::LayerShape> shapes, CostReport& report,
                bool detail) const;

  HardwareConfig hw_;
  CostModelOptions opts_;
  CircuitLibrary circuits_;
  NocModel noc_;
  CostPlan plan_;
};

}  // namespace lcda::cim
