#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cells/func.hpp"
#include "cells/layout.hpp"
#include "cells/spec.hpp"

namespace m3d::cells {
namespace {

const tech::Tech& tech2d() {
  static tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  return t;
}
const tech::Tech& tech3d() {
  static tech::Tech t(tech::Node::k45nm, tech::Style::kTMI);
  return t;
}

TEST(Func, TruthTablesBasic) {
  EXPECT_TRUE(eval(Func::kInv, 0, 0));
  EXPECT_FALSE(eval(Func::kInv, 0, 1));
  EXPECT_TRUE(eval(Func::kNand2, 0, 0b01));
  EXPECT_FALSE(eval(Func::kNand2, 0, 0b11));
  EXPECT_TRUE(eval(Func::kXor2, 0, 0b01));
  EXPECT_FALSE(eval(Func::kXor2, 0, 0b11));
  // MUX2: S is bit 2. S=1 selects B (bit 1).
  EXPECT_TRUE(eval(Func::kMux2, 0, 0b110));
  EXPECT_FALSE(eval(Func::kMux2, 0, 0b101));
  EXPECT_TRUE(eval(Func::kMux2, 0, 0b001));
}

TEST(Func, FullAdderTruth) {
  for (uint32_t m = 0; m < 8; ++m) {
    const int a = m & 1, b = (m >> 1) & 1, ci = (m >> 2) & 1;
    const int sum = a + b + ci;
    EXPECT_EQ(eval(Func::kFa, 0, m), (sum & 1) != 0) << m;
    EXPECT_EQ(eval(Func::kFa, 1, m), sum >= 2) << m;
  }
}

TEST(Func, PinNamesConsistent) {
  for (Func f : all_comb_funcs()) {
    EXPECT_EQ(static_cast<int>(input_pins(f).size()), num_inputs(f));
    EXPECT_FALSE(output_pins(f).empty());
    EXPECT_EQ(truth_table(f).size(), output_pins(f).size());
  }
}

TEST(Func, PinTablesMatchCanonicalListsAndAreStable) {
  using Pins = std::vector<std::string>;
  // The canonical pin lists, spelled out independently of func.cpp.
  const std::vector<std::pair<Func, std::pair<Pins, Pins>>> expected = {
      {Func::kInv, {{"A"}, {"Z"}}},
      {Func::kBuf, {{"A"}, {"Z"}}},
      {Func::kNand2, {{"A", "B"}, {"Z"}}},
      {Func::kNand3, {{"A", "B", "C"}, {"Z"}}},
      {Func::kNand4, {{"A", "B", "C", "D"}, {"Z"}}},
      {Func::kNor2, {{"A", "B"}, {"Z"}}},
      {Func::kNor3, {{"A", "B", "C"}, {"Z"}}},
      {Func::kNor4, {{"A", "B", "C", "D"}, {"Z"}}},
      {Func::kAnd2, {{"A", "B"}, {"Z"}}},
      {Func::kAnd3, {{"A", "B", "C"}, {"Z"}}},
      {Func::kAnd4, {{"A", "B", "C", "D"}, {"Z"}}},
      {Func::kOr2, {{"A", "B"}, {"Z"}}},
      {Func::kOr3, {{"A", "B", "C"}, {"Z"}}},
      {Func::kOr4, {{"A", "B", "C", "D"}, {"Z"}}},
      {Func::kXor2, {{"A", "B"}, {"Z"}}},
      {Func::kXnor2, {{"A", "B"}, {"Z"}}},
      {Func::kMux2, {{"A", "B", "S"}, {"Z"}}},
      {Func::kAoi21, {{"A1", "A2", "B"}, {"Z"}}},
      {Func::kOai21, {{"A1", "A2", "B"}, {"Z"}}},
      {Func::kAoi22, {{"A1", "A2", "B1", "B2"}, {"Z"}}},
      {Func::kOai22, {{"A1", "A2", "B1", "B2"}, {"Z"}}},
      {Func::kHa, {{"A", "B"}, {"S", "CO"}}},
      {Func::kFa, {{"A", "B", "CI"}, {"S", "CO"}}},
      {Func::kDff, {{"D", "CK"}, {"Q"}}},
  };
  std::vector<Func> funcs = all_comb_funcs();
  funcs.push_back(Func::kDff);
  ASSERT_EQ(funcs.size(), expected.size());
  for (const auto& [f, pins] : expected) {
    EXPECT_EQ(input_pins(f), pins.first) << to_string(f);
    EXPECT_EQ(output_pins(f), pins.second) << to_string(f);
    // Repeated calls hand out the same table entry, never a fresh copy.
    EXPECT_EQ(&input_pins(f), &input_pins(f)) << to_string(f);
    EXPECT_EQ(&output_pins(f), &output_pins(f)) << to_string(f);
  }
}

TEST(Spec, LibraryHas66Cells) {
  int count = 0;
  for (Func f : all_comb_funcs()) count += static_cast<int>(drive_options(f).size());
  count += static_cast<int>(drive_options(Func::kDff).size());
  EXPECT_EQ(count, 66);
}

TEST(Spec, InverterIsTwoTransistors) {
  const CellSpec inv = make_spec(Func::kInv, 1);
  ASSERT_EQ(inv.transistors.size(), 2u);
  EXPECT_EQ(inv.num_pmos(), 1);
  EXPECT_EQ(inv.num_nmos(), 1);
  EXPECT_GT(inv.transistors[0].w_um, inv.transistors[1].w_um)
      << "PMOS must be wider (mobility skew)";
}

TEST(Spec, DriveScalesWidths) {
  const CellSpec x1 = make_spec(Func::kInv, 1);
  const CellSpec x4 = make_spec(Func::kInv, 4);
  EXPECT_NEAR(x4.total_width_um() / x1.total_width_um(), 4.0, 1e-9);
}

TEST(Spec, SeriesStackCompensation) {
  // NAND2 NMOS stack of 2 should be ~2x the INV NMOS width.
  const CellSpec inv = make_spec(Func::kInv, 1);
  const CellSpec nand2 = make_spec(Func::kNand2, 1);
  double inv_n = 0, nand_n = 0;
  for (const auto& t : inv.transistors) {
    if (!t.pmos) inv_n = t.w_um;
  }
  for (const auto& t : nand2.transistors) {
    if (!t.pmos) nand_n = t.w_um;
  }
  EXPECT_NEAR(nand_n / inv_n, 2.0, 1e-9);
}

TEST(Spec, DffHasTwentyTransistors) {
  const CellSpec dff = make_spec(Func::kDff, 1);
  EXPECT_EQ(dff.transistors.size(), 20u);
  EXPECT_TRUE(dff.sequential());
}

TEST(Spec, NetsStartWithRails) {
  const CellSpec nand2 = make_spec(Func::kNand2, 1);
  const auto nets = nand2.nets();
  ASSERT_GE(nets.size(), 2u);
  EXPECT_EQ(nets[0], "VDD");
  EXPECT_EQ(nets[1], "VSS");
  EXPECT_TRUE(nand2.is_internal("n1"));
  EXPECT_FALSE(nand2.is_internal("A"));
  EXPECT_FALSE(nand2.is_internal("Z"));
}

TEST(Spec, EveryCellBuilds) {
  for (Func f : all_comb_funcs()) {
    for (int d : drive_options(f)) {
      const CellSpec s = make_spec(f, d);
      EXPECT_FALSE(s.transistors.empty()) << s.name;
      EXPECT_GT(s.num_pmos(), 0) << s.name;
      EXPECT_GT(s.num_nmos(), 0) << s.name;
    }
  }
}

// ---- Layout / extraction (paper Table 1) -----------------------------------

TEST(Layout, FoldedFootprintIs40PercentSmaller) {
  for (Func f : {Func::kInv, Func::kNand2, Func::kMux2, Func::kDff}) {
    const CellSpec spec = make_spec(f, 1);
    const CellLayout l2 = layout_2d(spec, tech2d());
    const CellLayout l3 = fold_tmi(spec, tech3d());
    EXPECT_NEAR(l3.height_um / l2.height_um, 0.6, 1e-9) << spec.name;
    EXPECT_DOUBLE_EQ(l3.width_um, l2.width_um) << spec.name;
    EXPECT_NEAR(l3.area_um2() / l2.area_um2(), 0.6, 1e-9) << spec.name;
  }
}

TEST(Layout, Table1SimpleCellsFoldToLowerR) {
  for (Func f : {Func::kInv, Func::kNand2, Func::kMux2}) {
    const CellSpec spec = make_spec(f, 1);
    const CellLayout l2 = layout_2d(spec, tech2d());
    const CellLayout l3 = fold_tmi(spec, tech3d());
    EXPECT_LT(l3.total_r_kohm(), l2.total_r_kohm()) << spec.name;
  }
}

TEST(Layout, Table1DffFoldsToHigherRC) {
  const CellSpec dff = make_spec(Func::kDff, 1);
  const CellLayout l2 = layout_2d(dff, tech2d());
  const CellLayout l3 = fold_tmi(dff, tech3d());
  EXPECT_GT(l3.total_r_kohm(), l2.total_r_kohm());
  EXPECT_GT(l3.total_c_ff(SiliconModel::kDielectric),
            l2.total_c_ff(SiliconModel::kDielectric));
}

TEST(Layout, Table1ConductorModeBracketsDielectric) {
  for (Func f : {Func::kInv, Func::kNand2, Func::kMux2, Func::kDff}) {
    const CellSpec spec = make_spec(f, 1);
    const CellLayout l3 = fold_tmi(spec, tech3d());
    EXPECT_LT(l3.total_c_ff(SiliconModel::kConductor),
              l3.total_c_ff(SiliconModel::kDielectric))
        << spec.name;
  }
}

TEST(Layout, Table1InvDielectricBracketsThe2DValue) {
  // Paper Table 1 INV: C(3D-c) = 0.349 < C(2D) = 0.363 < C(3D) = 0.368.
  const CellSpec inv = make_spec(Func::kInv, 1);
  const CellLayout l2 = layout_2d(inv, tech2d());
  const CellLayout l3 = fold_tmi(inv, tech3d());
  EXPECT_LT(l3.total_c_ff(SiliconModel::kConductor),
            l2.total_c_ff(SiliconModel::kDielectric));
  EXPECT_GT(l3.total_c_ff(SiliconModel::kDielectric),
            l2.total_c_ff(SiliconModel::kDielectric));
}

TEST(Layout, Table1MagnitudesNearPaper) {
  // Loose bands (+-35%) around the paper's absolute values.
  struct Row {
    Func f;
    double r2d, r3d, c2d, c3d;
  };
  const Row rows[] = {
      {Func::kInv, 0.186, 0.107, 0.363, 0.368},
      {Func::kNand2, 0.372, 0.237, 0.561, 0.586},
      {Func::kMux2, 1.133, 0.975, 1.823, 1.938},
      {Func::kDff, 2.876, 3.045, 4.108, 5.101},
  };
  for (const Row& row : rows) {
    const CellSpec spec = make_spec(row.f, 1);
    const CellLayout l2 = layout_2d(spec, tech2d());
    const CellLayout l3 = fold_tmi(spec, tech3d());
    EXPECT_NEAR(l2.total_r_kohm() / row.r2d, 1.0, 0.35) << spec.name;
    EXPECT_NEAR(l3.total_r_kohm() / row.r3d, 1.0, 0.35) << spec.name;
    EXPECT_NEAR(l2.total_c_ff(SiliconModel::kDielectric) / row.c2d, 1.0, 0.35)
        << spec.name;
    EXPECT_NEAR(l3.total_c_ff(SiliconModel::kDielectric) / row.c3d, 1.0, 0.35)
        << spec.name;
  }
}

TEST(Layout, FoldedCellsHaveMivs) {
  const CellSpec inv = make_spec(Func::kInv, 1);
  const CellLayout l2 = layout_2d(inv, tech2d());
  const CellLayout l3 = fold_tmi(inv, tech3d());
  EXPECT_EQ(l2.num_mivs(), 0);
  EXPECT_GE(l3.num_mivs(), 2);  // input gate pair + output diffusion crossing
  // Folded: every NMOS on the top tier, every PMOS on the bottom tier.
  for (const auto& d : l3.devices) {
    EXPECT_EQ(d.tier, d.pmos ? 0 : 1);
  }
  for (const auto& d : l2.devices) EXPECT_EQ(d.tier, 0);
}

TEST(Layout, SevenNmScalesGeometryAndParasitics) {
  const CellSpec inv = make_spec(Func::kInv, 1);
  const tech::Tech t45(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t7(tech::Node::k7nm, tech::Style::k2D);
  const CellLayout l45 = layout_2d(inv, t45);
  const CellLayout l7 = layout_2d(inv, t7);
  EXPECT_NEAR(l7.width_um / l45.width_um, 7.0 / 45.0, 1e-6);
  EXPECT_NEAR(l7.height_um / l45.height_um, 7.0 / 45.0, 1e-6);
  EXPECT_NEAR(l7.total_r_kohm() / l45.total_r_kohm(), 7.7, 1e-6);
  EXPECT_NEAR(l7.total_c_ff(SiliconModel::kDielectric) /
                  l45.total_c_ff(SiliconModel::kDielectric),
              7.0 / 45.0, 1e-6);
}

TEST(Layout, AllCellsExtractCleanly) {
  for (Func f : all_comb_funcs()) {
    const CellSpec spec = make_spec(f, 1);
    const CellLayout l2 = layout_2d(spec, tech2d());
    const CellLayout l3 = fold_tmi(spec, tech3d());
    EXPECT_GT(l2.total_r_kohm(), 0.0) << spec.name;
    EXPECT_GT(l2.total_c_ff(SiliconModel::kDielectric), 0.0) << spec.name;
    EXPECT_GT(l3.num_mivs(), 0) << spec.name;
    EXPECT_GT(l2.width_um, 0.0) << spec.name;
    // Every net in the spec has an extraction entry.
    for (const auto& n : spec.nets()) {
      EXPECT_TRUE(l2.nets.count(n)) << spec.name << ":" << n;
      EXPECT_TRUE(l3.nets.count(n)) << spec.name << ":" << n;
    }
  }
}

}  // namespace
}  // namespace m3d::cells
