#include <gtest/gtest.h>

#include "tech/scaling.hpp"
#include "tech/tech.hpp"

namespace m3d::tech {
namespace {

TEST(Tech, Stack2DHasEightLayers) {
  Tech t(Node::k45nm, Style::k2D);
  EXPECT_EQ(t.stack().num_layers(), 8);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kLocal), 2);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kIntermediate), 3);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kGlobal), 2);
  EXPECT_EQ(t.miv_cut_index(), -1);
  EXPECT_FALSE(t.is_3d());
}

// G-MI routes on the T-MI stack, a stand-in for each tier's own metal.
TEST(Tech, StackTmiHasTwelveLayersWithMb1) {
  for (Style style : {Style::kTMI, Style::kGMI}) {
    Tech t(Node::k45nm, style);
    EXPECT_EQ(t.stack().num_layers(), 12);
    EXPECT_EQ(t.stack().find("MB1"), 0);
    EXPECT_EQ(t.stack().count_of(LayerLevel::kLocal), 5);
    EXPECT_TRUE(t.stack().layer(0).bottom_tier);
    EXPECT_EQ(t.miv_cut_index(), 0);
    EXPECT_TRUE(t.stack().cuts[0].is_miv);
    EXPECT_TRUE(t.is_3d());
  }
}

TEST(Tech, StackTmiPlusMPerFig9) {
  Tech t(Node::k45nm, Style::kTMIPlusM);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kLocal), 4);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kIntermediate), 5);
  EXPECT_EQ(t.stack().count_of(LayerLevel::kGlobal), 2);
}

// Section 5 of the paper publishes the unit RC anchors; the stack must
// reproduce them.
TEST(Tech, UnitResistanceMatchesPaper45nm) {
  Tech t(Node::k45nm, Style::k2D);
  const int m2 = t.stack().find("M2");
  const int m8 = t.stack().find("M8");
  EXPECT_NEAR(t.unit_r_kohm(m2) * 1000.0, 3.57, 0.05);   // Ohm/um
  EXPECT_NEAR(t.unit_r_kohm(m8) * 1000.0, 0.188, 0.005);
  EXPECT_NEAR(t.unit_c_ff(m2), 0.106, 1e-9);
  EXPECT_NEAR(t.unit_c_ff(m8), 0.100, 1e-9);
}

TEST(Tech, UnitResistanceMatchesPaper7nm) {
  Tech t(Node::k7nm, Style::k2D);
  const int m2 = t.stack().find("M2");
  const int m8 = t.stack().find("M8");
  EXPECT_NEAR(t.unit_r_kohm(m2) * 1000.0, 638.0, 10.0);
  EXPECT_NEAR(t.unit_r_kohm(m8) * 1000.0, 2.65, 0.1);
  EXPECT_NEAR(t.unit_c_ff(m2), 0.153, 1e-9);
  EXPECT_NEAR(t.unit_c_ff(m8), 0.095, 1e-9);
}

TEST(Tech, NodeParamsMatchTable6) {
  const NodeParams p45 = make_node_params(Node::k45nm);
  EXPECT_DOUBLE_EQ(p45.vdd_v, 1.1);
  EXPECT_DOUBLE_EQ(p45.cell_height_um, 1.4);
  EXPECT_DOUBLE_EQ(p45.tmi_cell_height_um, 0.84);
  EXPECT_DOUBLE_EQ(p45.miv_diameter_nm, 70.0);

  const NodeParams p7 = make_node_params(Node::k7nm);
  EXPECT_DOUBLE_EQ(p7.vdd_v, 0.7);
  EXPECT_DOUBLE_EQ(p7.cell_height_um, 0.218);
  EXPECT_DOUBLE_EQ(p7.miv_diameter_nm, 10.8);
  EXPECT_DOUBLE_EQ(p7.ild_thickness_nm, 50.0);
}

TEST(Tech, FoldedRowHeightIs40PercentSmaller) {
  Tech t2d(Node::k45nm, Style::k2D);
  Tech t3d(Node::k45nm, Style::kTMI);
  EXPECT_NEAR(t3d.row_height_um() / t2d.row_height_um(), 0.6, 1e-9);
  // G-MI's two tiers of planar rows interleave as half-height lanes.
  const Tech gmi(Node::k45nm, Style::kGMI);
  EXPECT_DOUBLE_EQ(gmi.row_height_um(), t2d.row_height_um() / 2.0);
}

TEST(Tech, MivIsNearNegligible) {
  Tech t(Node::k45nm, Style::kTMI);
  const CutLayer& miv = t.cut(t.miv_cut_index());
  // "almost negligible parasitic RC": ~1.3 Ohm, ~0.02 fF.
  EXPECT_LT(miv.r_kohm, 0.01);
  EXPECT_LT(miv.c_ff, 0.1);
  EXPECT_GT(miv.r_kohm, 0.0);
}

TEST(Tech, ScaleResistivityOnlyTouchesLevel) {
  Tech t(Node::k7nm, Style::kTMI);
  const int m2 = t.stack().find("M2");
  const int global_first = t.stack().first_of(LayerLevel::kGlobal);
  const double r_local_before = t.unit_r_kohm(m2);
  const double r_global_before = t.unit_r_kohm(global_first);
  t.scale_resistivity(LayerLevel::kLocal, 0.5);
  t.scale_resistivity(LayerLevel::kIntermediate, 0.5);
  EXPECT_NEAR(t.unit_r_kohm(m2), 0.5 * r_local_before, 1e-12);
  EXPECT_DOUBLE_EQ(t.unit_r_kohm(global_first), r_global_before);
}

TEST(Tech, TmiAddsLocalRoutingCapacity) {
  Tech t2d(Node::k45nm, Style::k2D);
  Tech t3d(Node::k45nm, Style::kTMI);
  EXPECT_GT(t3d.tracks_per_um(LayerLevel::kLocal),
            2.0 * t2d.tracks_per_um(LayerLevel::kLocal));
}

TEST(Tech, AlternatingDirections) {
  Tech t(Node::k45nm, Style::kTMI);
  const auto& s = t.stack();
  EXPECT_TRUE(s.layer(s.find("MB1")).horizontal);
  EXPECT_TRUE(s.layer(s.find("M1")).horizontal);
  EXPECT_FALSE(s.layer(s.find("M2")).horizontal);
  EXPECT_TRUE(s.layer(s.find("M3")).horizontal);
}

TEST(Scaling, PaperFactors) {
  const ScaleFactors f = itrs_7nm_factors();
  EXPECT_NEAR(f.geometry, 0.1556, 1e-3);
  EXPECT_DOUBLE_EQ(f.cell_delay, 0.471);
  EXPECT_DOUBLE_EQ(f.cell_power, 0.084);
  EXPECT_DOUBLE_EQ(f.internal_r, 7.7);
}

}  // namespace
}  // namespace m3d::tech
