// Tests for the DRC checker and the random-logic generator.
#include <gtest/gtest.h>

#include "cells/drc.hpp"
#include "flow/flow.hpp"
#include "gen/gen.hpp"
#include "test_fixtures.hpp"

namespace m3d {
namespace {

TEST(Drc, CleanOnGeneratedLibrary) {
  const tech::Tech t2(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  int checked = 0;
  for (cells::Func f : cells::all_comb_funcs()) {
    for (int d : cells::drive_options(f)) {
      const cells::CellSpec spec = cells::make_spec(f, d);
      const auto v2 = cells::check_layout(cells::layout_2d(spec, t2), t2);
      const auto v3 = cells::check_layout(cells::fold_tmi(spec, t3), t3);
      EXPECT_TRUE(v2.empty()) << spec.name << "\n" << cells::drc_report(v2);
      EXPECT_TRUE(v3.empty()) << spec.name << "\n" << cells::drc_report(v3);
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(Drc, CatchesViolations) {
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  const cells::CellSpec inv = cells::make_spec(cells::Func::kInv, 1);
  cells::CellLayout layout = cells::fold_tmi(inv, t3);
  // Corrupt: move an MIV out of bounds and stack two on one spot.
  layout.mivs.push_back({layout.width_um + 5.0, "oops"});
  layout.mivs.push_back({layout.mivs[0].x_um, "dup"});
  const auto v = cells::check_layout(layout, t3);
  EXPECT_GE(v.size(), 2u);
  const std::string report = cells::drc_report(v);
  EXPECT_NE(report.find("miv.bounds"), std::string::npos);
  EXPECT_NE(report.find("miv.spacing"), std::string::npos);
}

TEST(RandomLogic, GeneratesValidScalableCircuits) {
  gen::RandomLogicOptions o;
  o.num_gates = 1000;
  const auto nl = gen::make_random_logic(o);
  EXPECT_TRUE(nl.validate());
  EXPECT_GT(nl.num_instances(), 1000);
  EXPECT_GT(nl.count_sequential(), 1000 / o.gates_per_flop);
  EXPECT_EQ(nl.topo_order().size(),
            static_cast<size_t>(nl.num_instances()));  // acyclic by construction
  // Long-wire fraction shifts the structure.
  gen::RandomLogicOptions local = o, global = o;
  local.long_wire_frac = 0.0;
  global.long_wire_frac = 0.5;
  const auto a = gen::make_random_logic(local);
  const auto b = gen::make_random_logic(global);
  EXPECT_TRUE(a.validate());
  EXPECT_TRUE(b.validate());
}

TEST(RandomLogic, RunsThroughTheFullFlow) {
  const auto lib = test::make_test_library();
  gen::RandomLogicOptions o;
  o.num_gates = 600;
  circuit::Netlist nl = gen::make_random_logic(o);
  nl.bind(lib);
  const tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const auto routes = route::global_route(nl, die, t, {});
  EXPECT_GT(routes.total_wl_um, 0.0);
}

}  // namespace
}  // namespace m3d
