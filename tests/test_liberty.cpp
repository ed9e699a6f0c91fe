#include <gtest/gtest.h>

#include <cstdint>

#include "liberty/characterize.hpp"
#include "liberty/library.hpp"
#include "liberty/liberty_writer.hpp"
#include "store/blob.hpp"
#include "test_fixtures.hpp"

namespace m3d::liberty {
namespace {

NldmTable make_table() {
  NldmTable t;
  t.slew_ps = {10.0, 100.0};
  t.load_ff = {1.0, 10.0};
  t.value = {1.0, 2.0, 3.0, 4.0};  // rows: slew, cols: load
  return t;
}

TEST(Nldm, ExactCorners) {
  const NldmTable t = make_table();
  EXPECT_DOUBLE_EQ(t.at(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.at(10, 10), 2.0);
  EXPECT_DOUBLE_EQ(t.at(100, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.at(100, 10), 4.0);
}

TEST(Nldm, BilinearInterior) {
  const NldmTable t = make_table();
  EXPECT_NEAR(t.at(55, 5.5), 2.5, 1e-9);
}

TEST(Nldm, ClampsBelowExtrapolatesAbove) {
  const NldmTable t = make_table();
  EXPECT_DOUBLE_EQ(t.at(1, 0.1), 1.0);  // clamp below
  // Linear extrapolation above the load axis: slope (2-1)/9 per fF.
  EXPECT_NEAR(t.at(10, 19), 3.0, 1e-9);
}

TEST(Nldm, SingleEntryTable) {
  NldmTable t;
  t.slew_ps = {1.0};
  t.load_ff = {1.0};
  t.value = {7.5};
  EXPECT_DOUBLE_EQ(t.at(123, 456), 7.5);
}

TEST(Library, PickSmallestSatisfying) {
  const Library lib = test::make_test_library();
  const LibCell* c = lib.pick(cells::Func::kInv, 3);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->drive, 4);
  // Beyond the largest: clamps to largest.
  EXPECT_EQ(lib.pick(cells::Func::kInv, 100)->drive, 8);
  EXPECT_EQ(lib.pick(cells::Func::kInv, 1)->drive, 1);
}

TEST(Library, VariantsSortedByDrive) {
  const Library lib = test::make_test_library();
  const auto v = lib.variants(cells::Func::kNand2);
  ASSERT_EQ(v.size(), 4u);
  for (size_t i = 1; i < v.size(); ++i) EXPECT_GT(v[i]->drive, v[i - 1]->drive);
}

TEST(Library, FindByName) {
  const Library lib = test::make_test_library();
  ASSERT_NE(lib.find("DFF_X2"), nullptr);
  EXPECT_EQ(lib.find("DFF_X2")->func, cells::Func::kDff);
  EXPECT_EQ(lib.find("NOPE"), nullptr);
}

TEST(Library, ScaleTo7nmAppliesPaperFactors) {
  const Library lib45 = test::make_test_library();
  const Library lib7 = scale_to_7nm(lib45);
  EXPECT_EQ(lib7.node, tech::Node::k7nm);
  EXPECT_NEAR(lib7.vdd_v, 0.7, 1e-9);
  const LibCell* c45 = lib45.find("INV_X1");
  const LibCell* c7 = lib7.find("INV_X1");
  ASSERT_NE(c7, nullptr);
  EXPECT_NEAR(c7->width_um / c45->width_um, 7.0 / 45.0, 1e-9);
  EXPECT_NEAR(c7->pin_cap_ff.at("A") / c45->pin_cap_ff.at("A"), 0.179, 1e-9);
  EXPECT_NEAR(c7->leakage_uw / c45->leakage_uw, 0.678, 1e-9);
  // Delay entries scale by 0.471 at matching (scaled) corners.
  const auto& a45 = c45->arcs[0].delay[0];
  const auto& a7 = c7->arcs[0].delay[0];
  EXPECT_NEAR(a7.value[0] / a45.value[0], 0.471, 1e-9);
  EXPECT_NEAR(a7.load_ff[1] / a45.load_ff[1], 0.179, 1e-9);
}

// A single real characterization as an integration check (fast: INV only).
TEST(Characterize, InvProducesMonotoneDelayTables) {
  const cells::CellSpec spec = cells::make_spec(cells::Func::kInv, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const cells::CellLayout layout = cells::layout_2d(spec, tch);
  const LibCell cell = characterize_cell(spec, layout, 1.1);
  ASSERT_EQ(cell.arcs.size(), 1u);
  const auto& arc = cell.arcs[0];
  EXPECT_EQ(arc.from, "A");
  EXPECT_EQ(arc.to, "Z");
  // Delay grows with load at fixed slew and with slew at fixed load.
  for (int e = 0; e < 2; ++e) {
    EXPECT_LT(arc.delay[e].at(7.5, 0.8), arc.delay[e].at(7.5, 12.8));
    EXPECT_LT(arc.delay[e].at(7.5, 3.2), arc.delay[e].at(150.0, 3.2));
    EXPECT_GT(arc.delay[e].at(7.5, 0.8), 1.0);   // sane magnitudes (ps)
    EXPECT_LT(arc.delay[e].at(150, 12.8), 500.0);
  }
  EXPECT_GT(cell.pin_cap_ff.at("A"), 0.1);
  EXPECT_LT(cell.pin_cap_ff.at("A"), 2.0);
  EXPECT_GT(cell.leakage_uw, 0.0);
  EXPECT_LT(cell.leakage_uw, 0.1);
}

}  // namespace
}  // namespace m3d::liberty

namespace m3d::liberty {
namespace {

// Bit-level pin of the SPICE characterizer: FNV-1a of the Liberty text of
// one combinational, one multi-input and the sequential cell, each
// characterized from its 2D layout and its T-MI fold. The constants were
// recorded before the Newton loop reused MOSFET evaluations; a change to the
// simulator's arithmetic (Jacobian stamps, convergence, source energy)
// moves them.
TEST(Characterize, LibertyTextOfCharacterizedCellsIsPinned) {
  struct Pin {
    cells::Func func;
    tech::Style style;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {cells::Func::kInv, tech::Style::k2D, 0xdbd01ce7ba7b7c0cull},
      {cells::Func::kNand2, tech::Style::k2D, 0xac1ba56b1f6384ebull},
      {cells::Func::kDff, tech::Style::k2D, 0x9be387af0fe77371ull},
      {cells::Func::kInv, tech::Style::kTMI, 0x6f3d6a4947376d92ull},
      {cells::Func::kNand2, tech::Style::kTMI, 0x1602dbae96d24367ull},
      {cells::Func::kDff, tech::Style::kTMI, 0x7925996edda32fc2ull},
  };
  for (const Pin& pin : pins) {
    const cells::CellSpec spec = cells::make_spec(pin.func, 1);
    const tech::Tech tch(tech::Node::k45nm, pin.style);
    const cells::CellLayout layout = pin.style == tech::Style::k2D
                                         ? cells::layout_2d(spec, tch)
                                         : cells::fold_tmi(spec, tch);
    Library lib;
    lib.name = "pin";
    lib.style = pin.style;
    lib.add(characterize_cell(spec, layout, 1.1));
    const uint64_t fnv = store::fnv1a64(to_liberty_text(lib));
    EXPECT_EQ(fnv, pin.fnv) << spec.name << " (" << tech::to_string(pin.style)
                            << "): 0x" << store::key_hex(fnv);
  }
}

TEST(Characterize, MeasuredSetupIsPlausible) {
  const cells::CellSpec dff = cells::make_spec(cells::Func::kDff, 1);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  CharOptions opt;
  opt.measure_setup = true;
  // Shrink the grid: we only need the setup measurement here.
  opt.slews_ps = {20.0};
  opt.dff_slews_ps = {20.0};
  opt.loads_ff = {3.2};
  const LibCell cell =
      characterize_cell(dff, cells::layout_2d(dff, tch), 1.1, opt);
  EXPECT_GE(cell.setup_ps, 0.0);
  EXPECT_LT(cell.setup_ps, 200.0);
}

}  // namespace
}  // namespace m3d::liberty
