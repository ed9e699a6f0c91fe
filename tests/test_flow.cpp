#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"
#include "test_fixtures.hpp"

namespace m3d::flow {
namespace {

const liberty::Library& lib2d() {
  static const liberty::Library lib = test::make_test_library(tech::Style::k2D);
  return lib;
}
const liberty::Library& lib3d() {
  static const liberty::Library lib = test::make_test_library(tech::Style::kTMI);
  return lib;
}

FlowOptions small_opts(gen::Bench bench) {
  FlowOptions o;
  o.bench = bench;
  o.scale_shift = 4;
  o.lib = &lib2d();
  return o;
}

TEST(Flow, SingleRunProducesCompleteResult) {
  FlowOptions o = small_opts(gen::Bench::kDes);
  o.clock_ns = 2.0;
  const FlowResult r = run_flow(o);
  EXPECT_GT(r.footprint_um2, 0.0);
  EXPECT_GT(r.cells, 100);
  EXPECT_GT(r.total_wl_um, 0.0);
  EXPECT_GT(r.total_uw, 0.0);
  EXPECT_NEAR(r.total_uw, r.cell_uw + r.net_uw + r.leak_uw, 1e-6);
  EXPECT_TRUE(r.timing_met);
  EXPECT_GT(r.utilization, 0.5);
  EXPECT_LT(r.utilization, 1.0);
  EXPECT_TRUE(r.netlist.validate());
}

TEST(Flow, RunFlowPopulatesStageReports) {
  FlowOptions o = small_opts(gen::Bench::kDes);
  o.clock_ns = 2.0;
  const FlowResult r = run_flow(o);
  ASSERT_FALSE(r.stages.empty());
  // All six paper flow stages must be reported, in execution order.
  const char* expected[] = {"synth",  "place",        "opt_preroute",
                            "route",  "opt_postroute", "sta_power"};
  size_t found = 0;
  for (const auto& s : r.stages) {
    EXPECT_GE(s.wall_ms, 0.0);
    if (found < std::size(expected) && s.name == expected[found]) ++found;
  }
  EXPECT_EQ(found, std::size(expected));
  // The instrumented loops must have reported effort counters.
  const StageReport* place = r.stage("place");
  ASSERT_NE(place, nullptr);
  EXPECT_GT(place->counter("place.cells"), 100.0);
  const StageReport* route = r.stage("route");
  ASSERT_NE(route, nullptr);
  EXPECT_GT(route->counter("route.twopins"), 0.0);
  const StageReport* sta = r.stage("sta_power");
  ASSERT_NE(sta, nullptr);
  EXPECT_GT(sta->counter("sta.runs"), 0.0);
}

// stage_observer sees each FlowResult::stages entry exactly once, in order,
// whether the stage ran or a store hit replayed its recorded report.
TEST(Flow, StageObserverSeesEveryReportedStageInOrder) {
  const std::string dir = util::strf("/tmp/m3d_flow_test_observer_%d",
                                     static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  FlowOptions o = small_opts(gen::Bench::kDes);
  o.clock_ns = 2.0;
  o.store_dir = dir;
  std::vector<std::string> seen;
  o.stage_observer = [&seen](const StageReport& s) { seen.push_back(s.name); };
  const auto expect_seen_matches = [&seen](const FlowResult& r) {
    ASSERT_EQ(seen.size(), r.stages.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], r.stages[i].name) << "stage " << i;
    }
  };

  const FlowResult cold = run_flow(o);
  expect_seen_matches(cold);
  EXPECT_EQ(seen.front(), "gen");
  const std::vector<std::string> cold_seen = seen;

  seen.clear();
  util::MetricsRegistry reg;
  FlowResult warm;
  {
    const util::ScopedMetricsSink sink(reg);
    warm = run_flow(o);
  }
  // gen/synth/place came from the store, yet were still observed.
  EXPECT_EQ(reg.histogram("span.flow.place").count, 0);
  expect_seen_matches(warm);
  EXPECT_EQ(seen, cold_seen);
  std::filesystem::remove_all(dir);
}

TEST(Flow, IsoComparisonClosesBothAndShrinksFootprint) {
  const FlowOptions o = small_opts(gen::Bench::kDes);
  const CompareResult c = run_iso_comparison(o, lib2d(), lib3d());
  EXPECT_TRUE(c.flat.timing_met);
  EXPECT_TRUE(c.tmi.timing_met);
  EXPECT_DOUBLE_EQ(c.flat.clock_ns, c.tmi.clock_ns);  // iso-performance
  // The folded row height shrinks the die by ~40%.
  EXPECT_NEAR(c.footprint_pct(), -40.0, 3.0);
  // Shorter wires in the 3D design.
  EXPECT_LT(c.wl_pct(), -5.0);
}

TEST(Flow, AutoClockIsAchievable) {
  FlowOptions o = small_opts(gen::Bench::kDes);
  const double clk = auto_clock_ns(o);
  EXPECT_GT(clk, 0.05);
  EXPECT_LT(clk, 50.0);
}

TEST(Flow, TighterClockCostsPower) {
  const FlowOptions base = small_opts(gen::Bench::kDes);
  const CompareResult tight = run_iso_comparison(base, lib2d(), lib3d());
  FlowOptions loose = base;
  loose.clock_ns = tight.flat.clock_ns * 2.0;
  const CompareResult relaxed = run_iso_comparison(loose, lib2d(), lib3d());
  ASSERT_TRUE(relaxed.flat.timing_met);
  // Power at the tight clock exceeds power at double the period (both from
  // higher frequency and from the sizing pressure).
  EXPECT_GT(tight.flat.total_uw, relaxed.flat.total_uw);
}

TEST(Flow, ResistivityKnobChangesParasitics) {
  FlowOptions o = small_opts(gen::Bench::kDes);
  o.clock_ns = 3.0;
  const FlowResult base = run_flow(o);
  o.resistivity_scale = 0.5;
  const FlowResult lower = run_flow(o);
  // Same netlist topology and placement seed; only wire R changed, so WNS
  // should not get worse.
  EXPECT_GE(lower.wns_ps, base.wns_ps - 20.0);
}

TEST(Flow, DefaultsCoverAllBenches) {
  for (gen::Bench b : gen::all_benches()) {
    for (tech::Node node : {tech::Node::k45nm, tech::Node::k7nm}) {
      const FlowOptions p = preset(b, node);
      EXPECT_EQ(p.bench, b);
      EXPECT_EQ(p.node, node);
      EXPECT_GE(p.scale_shift, 0);
      EXPECT_GT(p.target_util, 0.2);
      EXPECT_LE(p.target_util, 0.85);
    }
  }
  // The paper's congestion-bound utilizations (paper S6).
  EXPECT_EQ(preset(gen::Bench::kLdpc, tech::Node::k45nm).target_util, 0.33);
  EXPECT_EQ(preset(gen::Bench::kM256, tech::Node::k45nm).target_util, 0.68);
}

TEST(Flow, TmiWlmFlagChangesSynthesizedDesign) {
  FlowOptions o = small_opts(gen::Bench::kDes);
  o.clock_ns = 1.2;
  o.style = tech::Style::kTMI;
  o.lib = &lib3d();
  const FlowResult with = run_flow(o);
  o.tmi_wlm = false;
  const FlowResult without = run_flow(o);
  // Both valid; the WLM choice shifts the outcome at least slightly.
  EXPECT_TRUE(with.netlist.validate());
  EXPECT_TRUE(without.netlist.validate());
}

}  // namespace
}  // namespace m3d::flow
