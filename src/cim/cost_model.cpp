#include "lcda/cim/cost_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "lcda/cim/noc.h"

namespace lcda::cim {

void CostReport::reset() {
  valid = false;
  invalid_reason.clear();
  area_arrays_mm2 = area_buffer_mm2 = area_digital_mm2 = area_noc_mm2 =
      area_total_mm2 = 0.0;
  energy_adc_pj = energy_xbar_pj = energy_dac_pj = energy_digital_pj =
      energy_buffer_pj = energy_noc_pj = energy_total_pj = 0.0;
  latency_ns = 0.0;
  leakage_mw = 0.0;
  total_weights = 0;
  total_cells = 0;
  programming_energy_pj = 0.0;
  weight_sigma = 0.0;
  max_adc_deficit_bits = 0;
  layers.clear();
  mapping.layers.clear();
  mapping.total_arrays = 0;
}

void CostModelOptions::check() const {
  // The tile count divides by arrays_per_tile, and negative sizes would
  // report negative tiles, area and leakage.
  if (arrays_per_tile < 1 || buffer_kb_per_tile < 0) {
    throw std::invalid_argument(
        arrays_per_tile < 1 ? "cost.arrays_per_tile must be at least 1"
                            : "cost.buffer_kb_per_tile must not be negative");
  }
}

CostEvaluator::CostEvaluator(const HardwareConfig& hw, CostModelOptions opts)
    : hw_(hw), opts_(opts), circuits_(make_circuits(hw)), noc_(make_noc()) {
  opts_.check();
  opts_.mapper.input_bits = hw.input_bits;

  // Phase one: fold every hardware-only term once. Each value is computed
  // by the same expression the per-evaluation code historically used, so
  // phase two's arithmetic (and hence every trace) is bit-identical.
  plan_.xbar_size = hw_.xbar_size;
  plan_.cells_per_weight = hw_.cells_per_weight();
  plan_.input_bits = opts_.mapper.input_bits;
  plan_.max_replication = opts_.mapper.max_replication;
  plan_.adc_bits = hw_.adc_bits;
  plan_.bits_per_cell = hw_.bits_per_cell;
  plan_.replication_area_cap_mm2 =
      hw_.area_budget_mm2 * opts_.mapper.replication_area_fraction;

  plan_.adc_energy_per_conversion_pj = circuits_.adc.energy_per_conversion_pj;
  plan_.cell_read_energy_pj = circuits_.xbar.cell_read_energy_pj;
  plan_.dac_energy_per_row_pj = circuits_.dac.energy_per_row_activation_pj;
  plan_.sa_mux_energy_per_conversion_pj =
      circuits_.periphery.shift_add_energy_per_sample_pj +
      circuits_.periphery.mux_energy_per_switch_pj;
  plan_.digital_energy_per_output_pj = circuits_.digital.energy_per_output_pj;
  plan_.buffer_energy_per_byte_pj = circuits_.buffer.energy_per_byte_pj;
  plan_.noc_energy_per_byte_hop_pj = noc_.energy_per_byte_hop_pj;

  plan_.read_latency_ns = circuits_.array_read_latency_ns(hw_);

  plan_.arrays_per_tile = opts_.arrays_per_tile;
  plan_.buffer_kb_per_tile = opts_.buffer_kb_per_tile;
  plan_.area_per_array_mm2 = circuits_.array_area_mm2(hw_);
  plan_.buffer_area_per_kb_mm2 = circuits_.buffer.area_per_kb_mm2;
  plan_.digital_area_per_tile_mm2 = circuits_.digital.area_per_tile_mm2;
  plan_.noc_router_area_mm2 = noc_.router_area_mm2;
  plan_.array_leakage_mw = circuits_.array_leakage_mw(hw_);
  plan_.leakage_per_tile_mw =
      opts_.buffer_kb_per_tile * circuits_.buffer.leakage_per_kb_mw +
      circuits_.digital.leakage_per_tile_mw + noc_.router_leakage_mw;
  plan_.area_budget_mm2 = hw_.area_budget_mm2;

  plan_.weight_sigma = effective_weight_sigma(circuits_.device, hw_.bits_per_cell,
                                              hw_.cells_per_weight());
  plan_.device_write_energy_pj = circuits_.device.write_energy_pj;
}

CostReport CostEvaluator::evaluate(const std::vector<nn::ConvSpec>& rollout,
                                   const nn::BackboneOptions& backbone) const {
  return evaluate(nn::backbone_shapes(rollout, backbone));
}

CostReport CostEvaluator::evaluate(const std::vector<nn::LayerShape>& shapes) const {
  CostReport report;
  run_pass(shapes, report, /*detail=*/true);
  return report;
}

void CostEvaluator::evaluate_span(std::span<const nn::LayerShape> shapes,
                                  CostReport& out) const {
  out.reset();
  run_pass(shapes, out, /*detail=*/false);
}

namespace {

/// Per-layer state of the fused mapping+cost pass. Lives on the stack for
/// any realistic backbone so the hot path never allocates.
struct LayerPass {
  long long rows_needed = 0;
  long long cols_needed = 0;
  long long reads_per_inference = 0;
  long long seq_reads = 0;  ///< cached sequential_reads() for the balancer
  int row_tiles = 0;
  int col_tiles = 0;
  int replication = 1;
  int rows_in_fullest_tile = 0;
  int adc_bits_required = 0;

  [[nodiscard]] long long arrays_per_copy() const {
    return static_cast<long long>(row_tiles) * col_tiles;
  }
  [[nodiscard]] long long total_arrays() const {
    return arrays_per_copy() * replication;
  }
  [[nodiscard]] long long sequential_reads() const {
    return (reads_per_inference + replication - 1) / replication;
  }
};

constexpr std::size_t kStackLayers = 48;

/// Output pixels per inference (1 for an FC layer).
long long output_pixels(const nn::LayerShape& shape) {
  return shape.is_fc ? 1 : static_cast<long long>(shape.out_hw) * shape.out_hw;
}

}  // namespace

void CostEvaluator::run_pass(std::span<const nn::LayerShape> shapes,
                             CostReport& report, bool detail) const {
  // map_network() rejects empty networks; the fused pass keeps the contract.
  if (shapes.empty()) throw std::invalid_argument("map_network: no layers");
  const std::size_t layer_count = shapes.size();

  std::array<LayerPass, kStackLayers> stack_scratch;
  std::vector<LayerPass> heap_scratch;
  LayerPass* pass = stack_scratch.data();
  if (layer_count > kStackLayers) {
    heap_scratch.resize(layer_count);
    pass = heap_scratch.data();
  }

  // --- Mapping (mirrors mapper.cpp map_layer, integer arithmetic) --------
  // xbar_size is validated to be a power of two, so the tile divisions are
  // shifts — identical quotients for the non-negative operands here.
  const int n = plan_.xbar_size;
  const int n_shift = std::countr_zero(static_cast<unsigned>(n));
  for (std::size_t i = 0; i < layer_count; ++i) {
    LayerPass& lp = pass[i];
    lp.rows_needed = shapes[i].weight_rows();
    lp.cols_needed = shapes[i].weight_cols() * plan_.cells_per_weight;
    lp.row_tiles = static_cast<int>((lp.rows_needed + n - 1) >> n_shift);
    lp.col_tiles = static_cast<int>((lp.cols_needed + n - 1) >> n_shift);
    lp.replication = 1;
    lp.reads_per_inference = output_pixels(shapes[i]) * plan_.input_bits;
    lp.seq_reads = lp.reads_per_inference;  // sequential_reads() at repl 1
    lp.rows_in_fullest_tile =
        static_cast<int>(std::min<long long>(lp.rows_needed, n));
    lp.adc_bits_required =
        required_adc_bits(lp.rows_in_fullest_tile, plan_.bits_per_cell);
  }

  // --- Pipeline balancing via weight replication (ISAAC Sec. 4) ---------
  // Same greedy decisions as mapper.cpp map_network: replicate the layer
  // with the longest sequential read chain while it helps, per-layer
  // replication stays bounded and the array area stays inside the
  // replication envelope. The running array total is tracked incrementally
  // (identical integers to recomputing it every round).
  long long total_arrays = 0;
  for (std::size_t i = 0; i < layer_count; ++i) total_arrays += pass[i].total_arrays();
  while (true) {
    std::size_t worst = 0;
    long long worst_reads = -1;
    for (std::size_t i = 0; i < layer_count; ++i) {
      // seq_reads caches sequential_reads(), refreshed whenever a layer's
      // replication changes — same argmax as recomputing every round.
      const long long sr = pass[i].seq_reads;
      if (sr > worst_reads) {
        worst_reads = sr;
        worst = i;
      }
    }
    LayerPass& bottleneck = pass[worst];
    if (bottleneck.replication >= plan_.max_replication) break;
    // Replicating a 1-read stage cannot help.
    if (bottleneck.seq_reads <= 1) break;

    const double area_after =
        static_cast<double>(total_arrays + bottleneck.arrays_per_copy()) *
        plan_.area_per_array_mm2;
    if (area_after > plan_.replication_area_cap_mm2) break;
    ++bottleneck.replication;
    bottleneck.seq_reads = bottleneck.sequential_reads();
    total_arrays += bottleneck.arrays_per_copy();
  }

  report.weight_sigma = plan_.weight_sigma;
  if (detail) {
    report.mapping.layers.reserve(layer_count);
    for (std::size_t i = 0; i < layer_count; ++i) {
      const LayerPass& lp = pass[i];
      LayerMapping lm;
      lm.layer_index = static_cast<int>(i);
      lm.is_fc = shapes[i].is_fc;
      lm.rows_needed = lp.rows_needed;
      lm.cols_needed = lp.cols_needed;
      lm.row_tiles = lp.row_tiles;
      lm.col_tiles = lp.col_tiles;
      lm.replication = lp.replication;
      lm.row_utilization = static_cast<double>(lp.rows_needed) /
                           (static_cast<double>(lp.row_tiles) * n);
      lm.col_utilization = static_cast<double>(lp.cols_needed) /
                           (static_cast<double>(lp.col_tiles) * n);
      lm.reads_per_inference = lp.reads_per_inference;
      lm.rows_in_fullest_tile = lp.rows_in_fullest_tile;
      lm.adc_bits_required = lp.adc_bits_required;
      report.mapping.layers.push_back(lm);
    }
    report.layers.reserve(layer_count);
  }
  report.mapping.total_arrays = detail ? total_arrays : 0;

  // --- Per-layer energy / latency ---------------------------------------
  const double read_latency = plan_.read_latency_ns;

  for (std::size_t i = 0; i < layer_count; ++i) {
    const LayerPass& lp = pass[i];
    const int adc_deficit_bits = std::max(0, lp.adc_bits_required - plan_.adc_bits);
    report.max_adc_deficit_bits =
        std::max(report.max_adc_deficit_bits, adc_deficit_bits);

    const auto reads = static_cast<double>(lp.reads_per_inference);
    const auto rows = static_cast<double>(lp.rows_needed);
    const auto cols = static_cast<double>(lp.cols_needed);
    const double cols_allocated = static_cast<double>(lp.col_tiles) * n;

    // ADC: every *used* column is digitized once per read, in every row tile
    // (partial sums per tile are combined digitally afterwards).
    const double conversions = reads * lp.row_tiles * cols;
    const double e_adc = conversions * plan_.adc_energy_per_conversion_pj;

    // Analog crossbar: current flows through every cell on an active row,
    // including cells in under-utilized (allocated-but-unused) columns —
    // low column utilization costs real energy.
    const double e_xbar = reads * rows * cols_allocated * plan_.cell_read_energy_pj;

    // Wordline drivers fire once per active row per read.
    const double e_dac = reads * rows * plan_.dac_energy_per_row_pj;

    // Shift-&-add consumes one sample per conversion; column mux switches.
    const double e_sa = conversions * plan_.sa_mux_energy_per_conversion_pj;

    // Output-side digital work and buffering (write this layer's
    // activations, read them back for the next layer).
    const double outputs =
        static_cast<double>(output_pixels(shapes[i])) * shapes[i].weight_cols();
    const double bytes = outputs;  // 8-bit activations
    const double e_digital = outputs * plan_.digital_energy_per_output_pj;
    const double e_buffer = 2.0 * bytes * plan_.buffer_energy_per_byte_pj;

    // Inter-tile H-tree traffic: this layer's activations travel to the
    // next layer's tiles. Tile count is estimated from this layer's arrays.
    const long long layer_tiles = std::max<long long>(
        1, (lp.total_arrays() + plan_.arrays_per_tile - 1) / plan_.arrays_per_tile);
    const int hops = std::max(1, htree_depth(layer_tiles));
    const double e_noc = bytes * hops * plan_.noc_energy_per_byte_hop_pj;

    report.energy_adc_pj += e_adc;
    report.energy_xbar_pj += e_xbar;
    report.energy_dac_pj += e_dac;
    report.energy_digital_pj += e_digital + e_sa;
    report.energy_buffer_pj += e_buffer;
    report.energy_noc_pj += e_noc;

    // Latency: the layer's pixels stream through its replicated copies; row
    // and column tiles operate in parallel, partial-sum combining adds a
    // shallow adder-tree delay per read.
    const double combine_ns =
        lp.row_tiles > 1 ? 0.5 * std::ceil(std::log2(lp.row_tiles)) : 0.0;
    const double layer_latency_ns =
        static_cast<double>(lp.sequential_reads()) * (read_latency + combine_ns);
    report.latency_ns += layer_latency_ns;

    if (detail) {
      LayerCost lc;
      lc.layer_index = static_cast<int>(i);
      lc.arrays = lp.total_arrays();
      lc.utilization = report.mapping.layers[i].utilization();
      lc.adc_deficit_bits = adc_deficit_bits;
      lc.energy_pj = e_adc + e_xbar + e_dac + e_sa + e_digital + e_buffer + e_noc;
      lc.latency_ns = layer_latency_ns;
      report.layers.push_back(lc);
    }
  }
  report.energy_total_pj = report.energy_adc_pj + report.energy_xbar_pj +
                           report.energy_dac_pj + report.energy_digital_pj +
                           report.energy_buffer_pj + report.energy_noc_pj;

  // --- area & leakage -----------------------------------------------------
  const double area_per_array = plan_.area_per_array_mm2;
  const auto arrays = static_cast<double>(total_arrays);
  const double tiles =
      std::ceil(arrays / static_cast<double>(plan_.arrays_per_tile));
  report.area_arrays_mm2 = arrays * area_per_array;
  report.area_buffer_mm2 =
      tiles * plan_.buffer_kb_per_tile * plan_.buffer_area_per_kb_mm2;
  report.area_digital_mm2 = tiles * plan_.digital_area_per_tile_mm2;
  report.area_noc_mm2 = tiles * plan_.noc_router_area_mm2;
  report.area_total_mm2 = report.area_arrays_mm2 + report.area_buffer_mm2 +
                          report.area_digital_mm2 + report.area_noc_mm2;

  report.leakage_mw =
      arrays * plan_.array_leakage_mw + tiles * plan_.leakage_per_tile_mw;

  // --- one-time programming cost --------------------------------------
  for (std::size_t i = 0; i < layer_count; ++i) {
    report.total_weights +=
        shapes[i].weight_rows() * shapes[i].weight_cols() * pass[i].replication;
  }
  report.total_cells = report.total_weights * plan_.cells_per_weight;
  report.programming_energy_pj =
      static_cast<double>(report.total_cells) * plan_.device_write_energy_pj;

  if (report.area_total_mm2 > plan_.area_budget_mm2) {
    report.valid = false;
    // %g matches the ostream default formatting this string historically
    // used (6 significant digits); snprintf keeps the invalid path — which
    // tight-budget scenarios hit for most of the search space — free of
    // ostringstream construction.
    char buf[96];
    std::snprintf(buf, sizeof(buf), "chip area %g mm^2 exceeds budget %g mm^2",
                  report.area_total_mm2, plan_.area_budget_mm2);
    report.invalid_reason = buf;
  } else {
    report.valid = true;
  }
}

}  // namespace lcda::cim
