#include <gtest/gtest.h>

#include "check/check.hpp"
#include "gmi/gmi.hpp"
#include "gmi/partition.hpp"
#include "test_fixtures.hpp"

namespace m3d::gmi {
namespace {

TEST(Partition, BalancedAndBetterThanNaive) {
  const auto lib = test::make_test_library();
  gen::GenOptions o;
  o.scale_shift = 3;
  circuit::Netlist nl = gen::make_des(o);
  nl.bind(lib);
  const PartitionResult r = partition_tiers(nl);
  EXPECT_LT(r.area_imbalance, 0.11);
  EXPECT_GT(r.cut_nets, 0);
  EXPECT_EQ(count_cut_nets(nl, r.tier_of), r.cut_nets);
  // Every live instance assigned to a tier.
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.inst(i).dead) {
      EXPECT_GE(r.tier_of[static_cast<size_t>(i)], 0);
      EXPECT_LE(r.tier_of[static_cast<size_t>(i)], 1);
    }
  }
  // FM must beat a parity split by a wide margin.
  std::vector<int> naive(r.tier_of.size());
  for (size_t i = 0; i < naive.size(); ++i) naive[i] = static_cast<int>(i % 2);
  EXPECT_LT(r.cut_nets, count_cut_nets(nl, naive) / 2);
  // And it should cut well under half the nets on a structured circuit.
  EXPECT_LT(r.cut_nets, nl.num_signal_nets() / 3);
}

TEST(Partition, DeterministicForSeed) {
  const auto lib = test::make_test_library();
  gen::GenOptions o;
  o.scale_shift = 4;
  circuit::Netlist nl = gen::make_des(o);
  nl.bind(lib);
  const PartitionResult a = partition_tiers(nl);
  const PartitionResult b = partition_tiers(nl);
  EXPECT_EQ(a.tier_of, b.tier_of);
  EXPECT_EQ(a.cut_nets, b.cut_nets);
}

TEST(Gmi, FlowHalvesFootprintVsTwoD) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.lib = &lib2d;
  o.clock_ns = 2.0;
  const flow::FlowResult flat = flow::run_flow(o);
  GmiExtra extra;
  const flow::FlowResult gmi = run_gmi_flow(o, &extra);
  EXPECT_TRUE(flat.timing_met);
  EXPECT_TRUE(gmi.timing_met);
  EXPECT_NEAR(gmi.footprint_um2 / flat.footprint_um2, 0.5, 0.1);
  EXPECT_LT(gmi.total_wl_um, flat.total_wl_um);
  EXPECT_GT(extra.routing_mivs, 0);
}

// CTS and both opt passes snap the buffers they insert onto the G-MI die's
// half-height row lanes, as run_flow does on its die.
TEST(Gmi, PlacementIsRowLegal) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  for (gen::Bench bench : {gen::Bench::kAes, gen::Bench::kDes}) {
    flow::FlowOptions o;
    o.bench = bench;
    o.scale_shift = 3;
    o.lib = &lib2d;
    o.clock_ns = 3.0;
    const flow::FlowResult gmi = run_gmi_flow(o);
    EXPECT_GT(gmi.buffers, 0) << gmi.bench_name;
    const check::CheckResult cr = check::check_placement(gmi.netlist, gmi.die);
    EXPECT_EQ(cr.errors(), 0) << gmi.bench_name << "\n" << cr.summary();
  }
}

}  // namespace
}  // namespace m3d::gmi
