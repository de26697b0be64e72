#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "lcda/cim/circuits.h"
#include "lcda/cim/config.h"
#include "lcda/cim/cost_model.h"
#include "lcda/cim/device.h"
#include "lcda/cim/mapper.h"

namespace lcda::cim {
namespace {

const std::vector<nn::ConvSpec> kVggRollout = {{32, 3}, {32, 3}, {64, 3},
                                               {64, 3}, {128, 3}, {128, 3}};

// ---------------------------------------------------------------- Device

TEST(Device, PresetsAreOrderedSensibly) {
  const DeviceModel rram = device_model(DeviceType::kRram);
  const DeviceModel fefet = device_model(DeviceType::kFefet);
  const DeviceModel sram = device_model(DeviceType::kSram);
  // FeFET programs tighter than RRAM; SRAM has no analog variation.
  EXPECT_LT(fefet.programming_sigma, rram.programming_sigma);
  EXPECT_EQ(sram.programming_sigma, 0.0);
  // SRAM cells are far larger and leak.
  EXPECT_GT(sram.cell_area_f2, rram.cell_area_f2 * 10);
  EXPECT_GT(sram.leakage_nw, 0.0);
  // FeFET writes are cheaper than RRAM writes.
  EXPECT_LT(fefet.write_energy_pj, rram.write_energy_pj);
}

TEST(Device, NamesRoundTrip) {
  EXPECT_EQ(device_name(DeviceType::kRram), "RRAM");
  EXPECT_EQ(device_name(DeviceType::kFefet), "FeFET");
  EXPECT_EQ(device_name(DeviceType::kSram), "SRAM");
}

TEST(EffectiveWeightSigma, MoreBitsPerCellIsNoisier) {
  const DeviceModel dev = device_model(DeviceType::kRram);
  const double s1 = effective_weight_sigma(dev, 1, 8);
  const double s2 = effective_weight_sigma(dev, 2, 4);
  const double s4 = effective_weight_sigma(dev, 4, 2);
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s4);
}

TEST(EffectiveWeightSigma, SramIsNoiseless) {
  const DeviceModel dev = device_model(DeviceType::kSram);
  EXPECT_EQ(effective_weight_sigma(dev, 1, 8), 0.0);
}

TEST(EffectiveWeightSigma, RejectsOverpackedCells) {
  const DeviceModel dev = device_model(DeviceType::kSram);  // max 1 bit
  EXPECT_THROW((void)effective_weight_sigma(dev, 2, 4), std::invalid_argument);
}

TEST(EffectiveWeightSigma, MsbDominates) {
  // Adding more (less significant) cells barely changes the composed sigma.
  const DeviceModel dev = device_model(DeviceType::kRram);
  const double few = effective_weight_sigma(dev, 2, 1);
  const double many = effective_weight_sigma(dev, 2, 8);
  EXPECT_LT(many / few, 1.05);
  EXPECT_GE(many, few);
}

// ---------------------------------------------------------------- Config

TEST(HardwareConfig, DefaultIsValid) {
  HardwareConfig hw;
  EXPECT_EQ(hw.validate(), "");
  EXPECT_EQ(hw.cells_per_weight(), 4);  // 8 bits / 2 per cell
}

struct InvalidCase {
  const char* what;
  HardwareConfig hw;
};

HardwareConfig broken(void (*mutate)(HardwareConfig&)) {
  HardwareConfig hw;
  mutate(hw);
  return hw;
}

class ConfigValidation : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(ConfigValidation, Rejects) {
  EXPECT_NE(GetParam().hw.validate(), "") << GetParam().what;
}

INSTANTIATE_TEST_SUITE_P(
    Invalid, ConfigValidation,
    ::testing::Values(
        InvalidCase{"bits>device", broken([](HardwareConfig& h) {
                      h.device = DeviceType::kSram;
                      h.bits_per_cell = 2;
                    })},
        InvalidCase{"zero bits", broken([](HardwareConfig& h) { h.bits_per_cell = 0; })},
        InvalidCase{"weight<cell", broken([](HardwareConfig& h) {
                      h.weight_bits = 1;
                      h.bits_per_cell = 2;
                    })},
        InvalidCase{"adc 0", broken([](HardwareConfig& h) { h.adc_bits = 0; })},
        InvalidCase{"xbar small", broken([](HardwareConfig& h) { h.xbar_size = 8; })},
        InvalidCase{"xbar not pow2",
                    broken([](HardwareConfig& h) { h.xbar_size = 100; })},
        InvalidCase{"mux>xbar", broken([](HardwareConfig& h) {
                      h.xbar_size = 64;
                      h.col_mux = 128;
                    })},
        InvalidCase{"neg budget",
                    broken([](HardwareConfig& h) { h.area_budget_mm2 = -1; })}));

TEST(HardwareConfig, DescribeMentionsEveryKnob) {
  HardwareConfig hw;
  const std::string s = hw.describe();
  EXPECT_NE(s.find("RRAM"), std::string::npos);
  EXPECT_NE(s.find("xbar128"), std::string::npos);
  EXPECT_NE(s.find("adc6"), std::string::npos);
}

// -------------------------------------------------------------- Circuits

TEST(Adc, CostsGrowWithResolution) {
  const AdcModel a4 = make_adc(4);
  const AdcModel a8 = make_adc(8);
  EXPECT_LT(a4.area_mm2, a8.area_mm2);
  EXPECT_LT(a4.energy_per_conversion_pj, a8.energy_per_conversion_pj);
  EXPECT_LT(a4.latency_per_conversion_ns, a8.latency_per_conversion_ns);
}

TEST(Adc, EightBitNearOnePicojoule) {
  // Calibration anchor: ~1 pJ/conversion at 8 bits (ISAAC operating point).
  const AdcModel a8 = make_adc(8);
  EXPECT_GT(a8.energy_per_conversion_pj, 0.5);
  EXPECT_LT(a8.energy_per_conversion_pj, 2.5);
}

TEST(Xbar, BiggerArraysSettleSlower) {
  const DeviceModel dev = device_model(DeviceType::kRram);
  EXPECT_LT(make_xbar(64, dev).read_settle_ns, make_xbar(256, dev).read_settle_ns);
  EXPECT_LT(make_xbar(64, dev).area_mm2, make_xbar(256, dev).area_mm2);
}

TEST(RequiredAdcBits, IsaacAnchor) {
  // 128 rows of 2-bit cells with bit-serial inputs -> 8-bit ADC (ISAAC).
  EXPECT_EQ(required_adc_bits(128, 2), 8);
  EXPECT_EQ(required_adc_bits(64, 2), 7);
  EXPECT_EQ(required_adc_bits(128, 1), 7);
  EXPECT_EQ(required_adc_bits(1, 2), 2);
}

TEST(CircuitLibrary, ArrayAreaDominatedByAdcs) {
  HardwareConfig hw;
  const CircuitLibrary lib = make_circuits(hw);
  const int n_adc = lib.adcs_per_array(hw.xbar_size, hw.col_mux);
  EXPECT_EQ(n_adc, 16);
  EXPECT_GT(lib.adc.area_mm2 * n_adc, lib.xbar.area_mm2);
}

TEST(CircuitLibrary, MoreMuxingFewerAdcsSmallerArea) {
  HardwareConfig hw8;
  hw8.col_mux = 8;
  HardwareConfig hw4 = hw8;
  hw4.col_mux = 4;
  const CircuitLibrary lib8 = make_circuits(hw8);
  const CircuitLibrary lib4 = make_circuits(hw4);
  EXPECT_LT(lib8.array_area_mm2(hw8), lib4.array_area_mm2(hw4));
  // ...but each read serializes more conversions.
  EXPECT_GT(lib8.array_read_latency_ns(hw8), lib4.array_read_latency_ns(hw4));
}

TEST(CircuitLibrary, RejectsInvalidConfig) {
  HardwareConfig hw;
  hw.adc_bits = 0;
  EXPECT_THROW((void)make_circuits(hw), std::invalid_argument);
}

// ---------------------------------------------------------------- Mapper

TEST(Mapper, TileMathIsExact) {
  HardwareConfig hw;  // xbar 128, 4 cells/weight
  const CircuitLibrary lib = make_circuits(hw);
  nn::BackboneOptions bb;
  const auto shapes = nn::backbone_shapes(kVggRollout, bb);
  const MappingResult mapping = map_network(shapes, hw, lib);
  ASSERT_EQ(mapping.layers.size(), shapes.size());

  // Layer 1 (conv2): rows = 3*3*32 = 288 -> 3 tiles of 128.
  const LayerMapping& conv2 = mapping.layers[1];
  EXPECT_EQ(conv2.rows_needed, 288);
  EXPECT_EQ(conv2.row_tiles, 3);
  // cols = 32 out channels * 4 cells = 128 -> 1 tile.
  EXPECT_EQ(conv2.cols_needed, 128);
  EXPECT_EQ(conv2.col_tiles, 1);
  EXPECT_NEAR(conv2.row_utilization, 288.0 / 384.0, 1e-12);
  EXPECT_DOUBLE_EQ(conv2.col_utilization, 1.0);

  // reads = 32*32 pixels * 8 input bits.
  EXPECT_EQ(conv2.reads_per_inference, 1024LL * 8);
}

TEST(Mapper, UtilizationNeverExceedsOne) {
  HardwareConfig hw;
  nn::BackboneOptions bb;
  for (int xbar : {64, 128, 256}) {
    hw.xbar_size = xbar;
    const CircuitLibrary lib2 = make_circuits(hw);
    const auto mapping = map_network(nn::backbone_shapes(kVggRollout, bb), hw, lib2);
    for (const auto& lm : mapping.layers) {
      ASSERT_GT(lm.utilization(), 0.0);
      ASSERT_LE(lm.utilization(), 1.0);
      ASSERT_GE(lm.replication, 1);
    }
  }
}

TEST(Mapper, ReplicationRespectsAreaEnvelopeAndCap) {
  HardwareConfig hw;
  const CircuitLibrary lib = make_circuits(hw);
  nn::BackboneOptions bb;
  MapperOptions opts;
  opts.max_replication = 4;
  const auto mapping = map_network(nn::backbone_shapes(kVggRollout, bb), hw, lib, opts);
  for (const auto& lm : mapping.layers) {
    ASSERT_LE(lm.replication, 4);
  }
  const double array_area = lib.array_area_mm2(hw);
  EXPECT_LE(static_cast<double>(mapping.total_arrays) * array_area,
            hw.area_budget_mm2 * opts.replication_area_fraction + array_area);
}

TEST(Mapper, ReplicationTargetsBottleneckLayers) {
  // The pixel-heavy early conv layers should get at least as much
  // replication as the single-shot FC layers.
  HardwareConfig hw;
  const CircuitLibrary lib = make_circuits(hw);
  nn::BackboneOptions bb;
  const auto mapping = map_network(nn::backbone_shapes(kVggRollout, bb), hw, lib);
  const int conv1_rep = mapping.layers.front().replication;
  const int fc2_rep = mapping.layers.back().replication;
  EXPECT_GE(conv1_rep, fc2_rep);
  EXPECT_EQ(fc2_rep, 1) << "a 1-pixel FC layer cannot benefit from replication";
}

TEST(Mapper, SequentialReadsShrinkWithReplication) {
  LayerMapping lm;
  lm.reads_per_inference = 1000;
  lm.replication = 1;
  EXPECT_EQ(lm.sequential_reads(), 1000);
  lm.replication = 4;
  EXPECT_EQ(lm.sequential_reads(), 250);
  lm.replication = 3;
  EXPECT_EQ(lm.sequential_reads(), 334);  // ceil
}

// ------------------------------------------------- two-phase cost model

namespace {

/// Every scalar field of a CostReport must match bit for bit between the
/// detailed and the lean (span) evaluation paths — golden traces depend on
/// it.
void expect_scalars_identical(const CostReport& a, const CostReport& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.invalid_reason, b.invalid_reason);
  EXPECT_EQ(a.area_arrays_mm2, b.area_arrays_mm2);
  EXPECT_EQ(a.area_buffer_mm2, b.area_buffer_mm2);
  EXPECT_EQ(a.area_digital_mm2, b.area_digital_mm2);
  EXPECT_EQ(a.area_noc_mm2, b.area_noc_mm2);
  EXPECT_EQ(a.area_total_mm2, b.area_total_mm2);
  EXPECT_EQ(a.energy_adc_pj, b.energy_adc_pj);
  EXPECT_EQ(a.energy_xbar_pj, b.energy_xbar_pj);
  EXPECT_EQ(a.energy_dac_pj, b.energy_dac_pj);
  EXPECT_EQ(a.energy_digital_pj, b.energy_digital_pj);
  EXPECT_EQ(a.energy_buffer_pj, b.energy_buffer_pj);
  EXPECT_EQ(a.energy_noc_pj, b.energy_noc_pj);
  EXPECT_EQ(a.energy_total_pj, b.energy_total_pj);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.leakage_mw, b.leakage_mw);
  EXPECT_EQ(a.total_weights, b.total_weights);
  EXPECT_EQ(a.total_cells, b.total_cells);
  EXPECT_EQ(a.programming_energy_pj, b.programming_energy_pj);
  EXPECT_EQ(a.weight_sigma, b.weight_sigma);
  EXPECT_EQ(a.max_adc_deficit_bits, b.max_adc_deficit_bits);
}

}  // namespace

TEST(TwoPhaseCostModel, SpanPassMatchesDetailedEvaluationBitForBit) {
  nn::BackboneOptions bb;
  const auto shapes = nn::backbone_shapes(kVggRollout, bb);
  for (HardwareConfig hw :
       {HardwareConfig{}, isaac_reference(),
        HardwareConfig{.device = DeviceType::kFefet, .bits_per_cell = 1,
                       .adc_bits = 4, .xbar_size = 64, .col_mux = 4},
        HardwareConfig{.adc_bits = 8, .xbar_size = 256},
        // Tiny budget: the invalid path must match too.
        HardwareConfig{.area_budget_mm2 = 1.0}}) {
    SCOPED_TRACE(hw.describe());
    const CostEvaluator eval{hw};
    const CostReport detailed = eval.evaluate(shapes);
    CostReport lean;
    eval.evaluate_span(shapes, lean);
    expect_scalars_identical(detailed, lean);
    // Lean mode carries no per-layer detail; the detailed mode does.
    EXPECT_TRUE(lean.layers.empty());
    EXPECT_TRUE(lean.mapping.layers.empty());
    EXPECT_EQ(detailed.layers.size(), shapes.size());
  }
}

TEST(TwoPhaseCostModel, FusedMappingMatchesMapNetwork) {
  // The fused pass reimplements map_network's greedy balancing; the two
  // must never drift apart.
  nn::BackboneOptions bb;
  const auto shapes = nn::backbone_shapes(kVggRollout, bb);
  const HardwareConfig hw;
  const CostEvaluator eval{hw};
  const CostReport rep = eval.evaluate(shapes);
  const MappingResult direct =
      map_network(shapes, hw, eval.circuits(), CostModelOptions{}.mapper);
  ASSERT_EQ(rep.mapping.layers.size(), direct.layers.size());
  EXPECT_EQ(rep.mapping.total_arrays, direct.total_arrays);
  for (std::size_t i = 0; i < direct.layers.size(); ++i) {
    SCOPED_TRACE(i);
    const LayerMapping& a = rep.mapping.layers[i];
    const LayerMapping& b = direct.layers[i];
    EXPECT_EQ(a.rows_needed, b.rows_needed);
    EXPECT_EQ(a.cols_needed, b.cols_needed);
    EXPECT_EQ(a.row_tiles, b.row_tiles);
    EXPECT_EQ(a.col_tiles, b.col_tiles);
    EXPECT_EQ(a.replication, b.replication);
    EXPECT_EQ(a.is_fc, b.is_fc);
    EXPECT_EQ(a.row_utilization, b.row_utilization);
    EXPECT_EQ(a.col_utilization, b.col_utilization);
    EXPECT_EQ(a.reads_per_inference, b.reads_per_inference);
    EXPECT_EQ(a.rows_in_fullest_tile, b.rows_in_fullest_tile);
    EXPECT_EQ(a.adc_bits_required, b.adc_bits_required);
  }
}

TEST(TwoPhaseCostModel, ReusedReportIsResetCompletely) {
  nn::BackboneOptions bb;
  const CostEvaluator eval{HardwareConfig{}};
  const auto big = nn::backbone_shapes(kVggRollout, bb);
  const std::vector<nn::ConvSpec> small_rollout = {{16, 1}, {16, 1}, {16, 1},
                                                   {16, 1}, {16, 1}, {16, 1}};
  const auto small = nn::backbone_shapes(small_rollout, bb);

  CostReport reused;
  eval.evaluate_span(big, reused);
  eval.evaluate_span(small, reused);  // must not inherit anything
  CostReport fresh;
  eval.evaluate_span(small, fresh);
  expect_scalars_identical(fresh, reused);

  // An invalid report reused for a valid design must lose its reason.
  const CostEvaluator tight{HardwareConfig{.area_budget_mm2 = 1.0}};
  CostReport flip;
  tight.evaluate_span(big, flip);
  ASSERT_FALSE(flip.valid);
  ASSERT_FALSE(flip.invalid_reason.empty());
  eval.evaluate_span(big, flip);
  EXPECT_TRUE(flip.valid);
  EXPECT_TRUE(flip.invalid_reason.empty());
}

// ------------------------------------------------------------ CostModel

TEST(CostModel, RejectsTilesWithoutArraysOrWithNegativeBuffers) {
  // A zero tile size divided the tile count by zero (SIGFPE); negative
  // sizes reported negative tiles, area and leakage.
  for (const auto& [arrays, buffer_kb] :
       {std::pair{0, 64}, std::pair{-3, 64}, std::pair{16, -1}}) {
    CostModelOptions opts;
    opts.arrays_per_tile = arrays;
    opts.buffer_kb_per_tile = buffer_kb;
    EXPECT_THROW((void)CostEvaluator(HardwareConfig{}, opts),
                 std::invalid_argument)
        << arrays << " " << buffer_kb;
  }
  // The smallest usable organization: one array and no buffer per tile.
  CostModelOptions edge;
  edge.arrays_per_tile = 1;
  edge.buffer_kb_per_tile = 0;
  EXPECT_GT(CostEvaluator(HardwareConfig{}, edge)
                .evaluate(kVggRollout, nn::BackboneOptions{})
                .area_total_mm2,
            0.0);
}

TEST(CostModel, EnergyBreakdownSumsToTotal) {
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_NEAR(rep.energy_total_pj,
              rep.energy_adc_pj + rep.energy_xbar_pj + rep.energy_dac_pj +
                  rep.energy_digital_pj + rep.energy_buffer_pj +
                  rep.energy_noc_pj,
              rep.energy_total_pj * 1e-9);
  EXPECT_NEAR(rep.area_total_mm2,
              rep.area_arrays_mm2 + rep.area_buffer_mm2 + rep.area_digital_mm2 +
                  rep.area_noc_mm2,
              1e-9);
}

TEST(CostModel, AdcEnergyDominates) {
  // The defining property of CiM accelerators: ADCs are the energy hog.
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_GT(rep.energy_adc_pj, 0.4 * rep.energy_total_pj);
}

TEST(CostModel, WiderNetworksCostMoreEnergy) {
  const CostEvaluator eval{HardwareConfig{}};
  nn::BackboneOptions bb;
  const std::vector<nn::ConvSpec> narrow = {{16, 3}, {16, 3}, {16, 3},
                                            {16, 3}, {16, 3}, {16, 3}};
  const std::vector<nn::ConvSpec> wide = {{128, 3}, {128, 3}, {128, 3},
                                          {128, 3}, {128, 3}, {128, 3}};
  EXPECT_LT(eval.evaluate(narrow, bb).energy_total_pj,
            eval.evaluate(wide, bb).energy_total_pj);
}

TEST(CostModel, BiggerKernelsCostMoreEnergy) {
  const CostEvaluator eval{HardwareConfig{}};
  nn::BackboneOptions bb;
  std::vector<nn::ConvSpec> k3 = kVggRollout;
  std::vector<nn::ConvSpec> k7 = kVggRollout;
  for (auto& s : k7) s.kernel = 7;
  EXPECT_LT(eval.evaluate(k3, bb).energy_total_pj,
            eval.evaluate(k7, bb).energy_total_pj);
}

TEST(CostModel, HigherAdcResolutionCostsMoreEnergy) {
  HardwareConfig lo;
  lo.adc_bits = 4;
  HardwareConfig hi;
  hi.adc_bits = 8;
  nn::BackboneOptions bb;
  EXPECT_LT(CostEvaluator(lo).evaluate(kVggRollout, bb).energy_total_pj,
            CostEvaluator(hi).evaluate(kVggRollout, bb).energy_total_pj);
  // ...but provides exact partial sums where 4 bits fall short.
  EXPECT_GT(CostEvaluator(lo).evaluate(kVggRollout, bb).max_adc_deficit_bits,
            CostEvaluator(hi).evaluate(kVggRollout, bb).max_adc_deficit_bits);
}

TEST(CostModel, EnergyInPaperRange) {
  // Paper Fig. 2 plots candidate energies between ~0.5e7 and 4e7 pJ; the
  // VGG-style mid design must land inside (order-of-magnitude calibration).
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_GT(rep.energy_total_pj, 1e6);
  EXPECT_LT(rep.energy_total_pj, 4e7);
}

TEST(CostModel, LatencyInPaperRange) {
  // Paper Fig. 4 plots latencies between ~0.5e6 and 3e6 ns (we land a bit
  // wider; assert the order of magnitude).
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_GT(rep.latency_ns, 5e4);
  EXPECT_LT(rep.latency_ns, 5e6);
  EXPECT_NEAR(rep.fps(), 1e9 / rep.latency_ns, 1e-9);
}

TEST(CostModel, AreaBudgetFlagsInvalidDesigns) {
  HardwareConfig hw;
  hw.area_budget_mm2 = 1.0;  // absurdly small budget
  const CostEvaluator eval{hw};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.invalid_reason.find("exceeds budget"), std::string::npos);
}

TEST(CostModel, LeakageAndAreaGrowWithArrayCount) {
  const CostEvaluator eval{HardwareConfig{}};
  nn::BackboneOptions bb;
  const std::vector<nn::ConvSpec> narrow = {{16, 3}, {16, 3}, {16, 3},
                                            {16, 3}, {16, 3}, {16, 3}};
  const CostReport small = eval.evaluate(narrow, bb);
  const CostReport big = eval.evaluate(kVggRollout, bb);
  EXPECT_LT(small.mapping.total_arrays, big.mapping.total_arrays);
  EXPECT_LT(small.area_total_mm2, big.area_total_mm2);
  EXPECT_LT(small.leakage_mw, big.leakage_mw);
}

TEST(CostModel, DeterministicAcrossCalls) {
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport a = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  const CostReport b = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_EQ(a.energy_total_pj, b.energy_total_pj);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.area_total_mm2, b.area_total_mm2);
}

TEST(CostModel, WeightSigmaMatchesDeviceMath) {
  HardwareConfig hw;
  const CostEvaluator eval{hw};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_DOUBLE_EQ(rep.weight_sigma,
                   effective_weight_sigma(device_model(hw.device), hw.bits_per_cell,
                                          hw.cells_per_weight()));
}

TEST(CostModel, PerLayerCostsSumToTotals) {
  const CostEvaluator eval{HardwareConfig{}};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  double e = 0.0, l = 0.0;
  for (const auto& lc : rep.layers) {
    e += lc.energy_pj;
    l += lc.latency_ns;
  }
  EXPECT_NEAR(e, rep.energy_total_pj, rep.energy_total_pj * 1e-9);
  EXPECT_NEAR(l, rep.latency_ns, rep.latency_ns * 1e-9);
}

TEST(CostModel, FefetCheaperReadsThanRram) {
  HardwareConfig rram;
  HardwareConfig fefet;
  fefet.device = DeviceType::kFefet;
  nn::BackboneOptions bb;
  const CostReport r = CostEvaluator(rram).evaluate(kVggRollout, bb);
  const CostReport f = CostEvaluator(fefet).evaluate(kVggRollout, bb);
  EXPECT_LT(f.energy_xbar_pj, r.energy_xbar_pj);
  EXPECT_LT(f.weight_sigma, r.weight_sigma);
}

class CostAcrossHw : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CostAcrossHw, AllConfigsProduceFiniteCosts) {
  const auto [xbar, adc] = GetParam();
  HardwareConfig hw;
  hw.xbar_size = xbar;
  hw.adc_bits = adc;
  const CostEvaluator eval{hw};
  const CostReport rep = eval.evaluate(kVggRollout, nn::BackboneOptions{});
  EXPECT_TRUE(std::isfinite(rep.energy_total_pj));
  EXPECT_GT(rep.energy_total_pj, 0.0);
  EXPECT_TRUE(std::isfinite(rep.latency_ns));
  EXPECT_GT(rep.latency_ns, 0.0);
  EXPECT_TRUE(std::isfinite(rep.area_total_mm2));
  EXPECT_GT(rep.area_total_mm2, 0.0);
  EXPECT_GE(rep.leakage_mw, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CostAcrossHw,
                         ::testing::Combine(::testing::Values(64, 128, 256),
                                            ::testing::Values(4, 6, 8)));

}  // namespace
}  // namespace lcda::cim
