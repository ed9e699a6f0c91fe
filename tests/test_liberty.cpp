#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "liberty/characterize.hpp"
#include "liberty/library.hpp"
#include "liberty/liberty_writer.hpp"
#include "store/blob.hpp"
#include "test_fixtures.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

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

// The NLDM points of FA_X1 and OR4_X1 that characterize_cell fills from a
// neighbour today, all at the largest load: six input-rise sweeps fail to
// measure, and ten more measure a switching energy <= 0. This pins them as
// they stand (the same in both 45 nm styles): a fix to the characterizer
// will shrink the list, and a regression will grow it.
TEST(Characterize, PatchedPointsOfFaAndOr4ArePinned) {
  for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    const tech::Tech tch(tech::Node::k45nm, style);
    std::vector<std::string> got;
    util::MetricsRegistry reg;
    {
      const util::ScopedMetricsSink sink(reg);
      for (cells::Func func : {cells::Func::kFa, cells::Func::kOr4}) {
        const cells::CellSpec spec = cells::make_spec(func, 1);
        const cells::CellLayout layout = style == tech::Style::k2D
                                             ? cells::layout_2d(spec, tch)
                                             : cells::fold_tmi(spec, tch);
        std::vector<PatchedPoint> patched;
        characterize_cell(spec, layout, 1.1, {}, &patched);
        for (const PatchedPoint& p : patched) {
          got.push_back(util::strf("%s %s->%s %s (%.1f, %.1f)%s%s%s", p.cell.c_str(),
                                   p.from.c_str(), p.to.c_str(),
                                   p.out_rise ? "rise" : "fall", p.slew_ps, p.load_ff,
                                   p.delay ? " delay" : "", p.out_slew ? " slew" : "",
                                   p.energy ? " energy" : ""));
        }
      }
    }
    const std::vector<std::string> want = {
        "FA_X1 A->S rise (7.5, 12.8) delay slew energy",
        "FA_X1 B->S rise (7.5, 12.8) energy",
        "FA_X1 B->S rise (37.5, 12.8) energy",
        "FA_X1 CI->S rise (7.5, 12.8) energy",
        "FA_X1 CI->S rise (37.5, 12.8) energy",
        "FA_X1 A->CO rise (7.5, 12.8) delay slew energy",
        "FA_X1 B->CO rise (7.5, 12.8) delay slew energy",
        "FA_X1 CI->CO rise (7.5, 12.8) delay slew energy",
        "OR4_X1 A->Z rise (7.5, 12.8) delay slew energy",
        "OR4_X1 A->Z rise (37.5, 12.8) energy",
        "OR4_X1 B->Z rise (7.5, 12.8) delay slew energy",
        "OR4_X1 B->Z rise (37.5, 12.8) energy",
        "OR4_X1 C->Z rise (7.5, 12.8) energy",
        "OR4_X1 C->Z rise (37.5, 12.8) energy",
        "OR4_X1 D->Z rise (7.5, 12.8) energy",
        "OR4_X1 D->Z rise (37.5, 12.8) energy",
    };
    EXPECT_EQ(got, want) << tech::to_string(style);
    EXPECT_EQ(reg.counter("liberty.patched_points"), static_cast<double>(got.size()));
  }
}

}  // namespace
}  // namespace m3d::liberty
