#include <gtest/gtest.h>

#include "check/check.hpp"
#include "extract/extract.hpp"
#include "flow/artifacts.hpp"
#include "flow/flow.hpp"
#include "gmi/partition.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
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

// Buffers the optimizer inserts after partitioning lie past the end of
// tier_of: the cut-net count and the MIV stamping must both see them on no
// tier, and agree net for net.
TEST(Partition, CutNetsOfAGrownNetlistMatchStampedMivs) {
  const auto lib = test::make_test_library();
  const tech::Tech tch(tech::Node::k45nm, tech::Style::kGMI);
  gen::GenOptions g;
  g.scale_shift = 4;
  circuit::Netlist nl = gen::make_des(g);
  nl.bind(lib);
  const PartitionResult r = partition_tiers(nl);
  const int before = nl.num_instances();
  const place::Die die = place::make_die(&nl, 1.6, tch.row_height_um());
  place::place_design(&nl, die, {});
  opt::OptOptions oo;
  oo.clock_ns = 0.5;  // tight: forces buffering
  oo.die = &die;
  oo.buffer_net_wl_um = 20.0;
  opt::optimize(&nl, lib,
                [&](const circuit::Netlist& n) {
                  return extract::extract_from_placement(n, tch);
                },
                oo);
  ASSERT_GT(nl.num_instances(), before);

  const extract::Parasitics bare = extract::extract_from_placement(nl, tch);
  extract::Parasitics par = bare;
  const int stamped = add_cut_mivs(nl, r.tier_of, tch, &par);
  int grown = 0;
  for (size_t n = 0; n < par.size(); ++n) {
    grown += par[n].wire_cap_ff > bare[n].wire_cap_ff ? 1 : 0;
  }
  EXPECT_GT(stamped, 0);
  EXPECT_EQ(grown, stamped);
  EXPECT_EQ(count_cut_nets(nl, r.tier_of), stamped);
}

// G-MI keeps planar cells, so its library is the 2D one, bit for bit.
TEST(Gmi, UsesThePlanarLibrary) {
  EXPECT_EQ(tech::cell_style(tech::Style::kGMI), tech::Style::k2D);
  EXPECT_EQ(tech::cell_style(tech::Style::kTMIPlusM), tech::Style::kTMI);
  EXPECT_EQ(flow::artifacts::library_fingerprint(
                liberty::analytic_library(tech::Style::kGMI)),
            flow::artifacts::library_fingerprint(
                liberty::analytic_library(tech::Style::k2D)));
  EXPECT_NE(flow::artifacts::library_fingerprint(
                liberty::analytic_library(tech::Style::kTMI)),
            flow::artifacts::library_fingerprint(
                liberty::analytic_library(tech::Style::k2D)));
}

TEST(Gmi, FlowHalvesFootprintVsTwoD) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.lib = &lib2d;
  o.clock_ns = 2.0;
  const flow::FlowResult flat = flow::run_flow(o);
  o.style = tech::Style::kGMI;
  const flow::FlowResult gmi = flow::run_flow(o);
  EXPECT_TRUE(flat.timing_met);
  EXPECT_TRUE(gmi.timing_met);
  EXPECT_EQ(gmi.style, tech::Style::kGMI);
  EXPECT_NEAR(gmi.footprint_um2 / flat.footprint_um2, 0.5, 0.1);
  EXPECT_LT(gmi.total_wl_um, flat.total_wl_um);
  EXPECT_GT(gmi.stage("opt_preroute")->counter("gmi.cut_nets"), 0.0);
}

// CTS and both opt passes snap the buffers they insert onto the G-MI die's
// half-height row lanes; the full check battery covers placement and
// routing.
TEST(Gmi, PlacementIsRowLegal) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  for (gen::Bench bench : {gen::Bench::kAes, gen::Bench::kDes}) {
    flow::FlowOptions o;
    o.bench = bench;
    o.style = tech::Style::kGMI;
    o.scale_shift = 3;
    o.lib = &lib2d;
    o.clock_ns = 3.0;
    o.check_level = check::Level::kFull;
    const flow::FlowResult gmi = flow::run_flow(o);
    EXPECT_GT(gmi.buffers, 0) << gmi.bench_name;
    EXPECT_TRUE(gmi.checks.ok()) << gmi.bench_name << "\n"
                                 << gmi.checks.summary();
  }
}

}  // namespace
}  // namespace m3d::gmi
