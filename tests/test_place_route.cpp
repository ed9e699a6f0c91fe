#include <gtest/gtest.h>

#include <string>

#include "flow/flow.hpp"
#include "gen/gen.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "store/blob.hpp"
#include "test_fixtures.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace m3d {
namespace {

circuit::Netlist make_small_design(const liberty::Library& lib) {
  gen::GenOptions o;
  o.scale_shift = 4;
  circuit::Netlist nl = gen::make_des(o);
  nl.bind(lib);
  return nl;
}

TEST(Place, DieSizedForUtilization) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  EXPECT_NEAR(nl.total_cell_area_um2() / die.core.area(), 0.8, 0.03);
  EXPECT_GT(die.num_rows, 2);
  // Roughly square.
  EXPECT_NEAR(die.core.width() / die.core.height(), 1.0, 0.2);
  // Ports on the boundary.
  for (const auto& port : nl.ports()) {
    const bool on_edge = port.pos.x <= die.core.xlo + 1e-6 ||
                         port.pos.x >= die.core.xhi - 1e-6 ||
                         port.pos.y <= die.core.ylo + 1e-6 ||
                         port.pos.y >= die.core.yhi - 1e-6;
    EXPECT_TRUE(on_edge) << port.name;
  }
}

TEST(Place, AllCellsLegalInRows) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead) continue;
    EXPECT_TRUE(inst.placed);
    EXPECT_GE(inst.pos.x, die.core.xlo - 1e-6);
    EXPECT_LE(inst.pos.x, die.core.xhi + 1e-6);
    // y snapped to a row center.
    const double rel = (inst.pos.y - die.core.ylo) / die.row_height_um - 0.5;
    EXPECT_NEAR(rel, std::round(rel), 1e-6) << inst.name;
  }
}

TEST(Place, BeatsRandomPlacementOnHpwl) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const double placed = place::total_hpwl_um(nl);
  // Shuffle positions among instances for a random baseline.
  util::Rng rng(3);
  std::vector<geom::Pt> pos;
  for (int i = 0; i < nl.num_instances(); ++i) pos.push_back(nl.inst(i).pos);
  rng.shuffle(pos);
  for (int i = 0; i < nl.num_instances(); ++i) nl.inst(i).pos = pos[static_cast<size_t>(i)];
  const double random = place::total_hpwl_um(nl);
  EXPECT_LT(placed, 0.6 * random);
}

TEST(Place, DeterministicAcrossRuns) {
  const auto lib = test::make_test_library();
  auto a = make_small_design(lib);
  auto b = make_small_design(lib);
  const place::Die da = place::make_die(&a, 0.8, 1.4);
  const place::Die db = place::make_die(&b, 0.8, 1.4);
  place::place_design(&a, da, {});
  place::place_design(&b, db, {});
  for (int i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(a.inst(i).pos, b.inst(i).pos);
  }
}

TEST(Place, SmallerRowHeightShrinksDieAndWl) {
  const auto lib2d = test::make_test_library(tech::Style::k2D);
  const auto lib3d = test::make_test_library(tech::Style::kTMI);
  auto n2 = make_small_design(lib2d);
  auto n3 = make_small_design(lib3d);
  const place::Die d2 = place::make_die(&n2, 0.8, 1.4);
  const place::Die d3 = place::make_die(&n3, 0.8, 0.84);
  EXPECT_NEAR(d3.core.area() / d2.core.area(), 0.6, 0.03);
  place::place_design(&n2, d2, {});
  place::place_design(&n3, d3, {});
  EXPECT_LT(place::total_hpwl_um(n3), place::total_hpwl_um(n2));
}

TEST(Route, RoutesPlacedDesign) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto rr = route::global_route(nl, die, tch, {});
  EXPECT_GT(rr.total_wl_um, 0.0);
  EXPECT_GT(rr.total_vias, 0);
  // Routed wirelength at least the HPWL lower bound (same gcell metric is
  // coarser, so allow slack downward but it must be the same order).
  EXPECT_GT(rr.total_wl_um, 0.5 * place::total_hpwl_um(nl));
  // Every signal net with sinks has wire.
  int with_wl = 0, signal = 0;
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    ++signal;
    if (rr.nets[static_cast<size_t>(n)].total_wl() > 0 ||
        rr.nets[static_cast<size_t>(n)].vias > 0) {
      ++with_wl;
    }
  }
  EXPECT_GT(with_wl, signal * 9 / 10);
}

TEST(Route, TmiStackHasMoreLocalCapacity) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech t2(tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech t3(tech::Node::k45nm, tech::Style::kTMI);
  const auto r2 = route::global_route(nl, die, t2, {});
  const auto r3 = route::global_route(nl, die, t3, {});
  EXPECT_GE(r3.cap_h[route::kLocal], 2.0 * r2.cap_h[route::kLocal]);
  EXPECT_GE(r3.cap_v[route::kLocal], 2.0 * r2.cap_v[route::kLocal]);
}

TEST(Route, BlockageDerateReducesCapacity) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::kTMI);
  route::RouteOptions a, b;
  b.local_blockage_frac = 0.5;
  const auto ra = route::global_route(nl, die, tch, a);
  const auto rb = route::global_route(nl, die, tch, b);
  EXPECT_NEAR(rb.cap_h[route::kLocal], 0.5 * ra.cap_h[route::kLocal], 1e-9);
}

TEST(Route, SinkPathsCoverEverySink) {
  const auto lib = test::make_test_library();
  auto nl = make_small_design(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto rr = route::global_route(nl, die, tch, {});
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    EXPECT_EQ(rr.nets[static_cast<size_t>(n)].sink_path_wl.size(), net.sinks.size());
  }
}

// --- Pinned rip-up-and-reroute results. ------------------------------------
//
// The goldens run almost no maze searches, so these cases pin the RRR path
// itself: an FNV-1a 64 hash over the raw bytes of every edge usage, every
// net's per-level wirelength, via count and per-sink path wirelengths, and
// the final overflow count. The constants were recorded before the maze
// kernel's edge-cost cache and 4-ary heap went in; any change to a single
// route (or to the order the search pops cells) changes the hash.

template <typename T>
void append_bytes(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t route_hash(const route::RouteResult& rr) {
  std::string bytes;
  for (int l = 0; l < route::kNumLevels; ++l) {
    for (double u : rr.usage_h[static_cast<size_t>(l)]) append_bytes(&bytes, u);
    for (double u : rr.usage_v[static_cast<size_t>(l)]) append_bytes(&bytes, u);
  }
  for (const route::NetRoute& nr : rr.nets) {
    append_bytes(&bytes, nr.wl_um);
    append_bytes(&bytes, nr.vias);
    for (const auto& wl : nr.sink_path_wl) append_bytes(&bytes, wl);
  }
  append_bytes(&bytes, rr.overflow_edges);
  return store::fnv1a64(bytes);
}

struct PinnedRoute {
  uint64_t hash = 0;
  double maze_calls = 0.0;
};

/// LDPC through the flow at 0.33 utilisation and a fixed clock, as in the
/// paper's congestion-bound configuration, at scale_shift 3.
PinnedRoute ldpc_route(tech::Style style) {
  const auto lib = test::make_test_library(style);
  flow::FlowOptions o;
  o.bench = gen::Bench::kLdpc;
  o.style = style;
  o.scale_shift = 3;
  o.target_util = 0.33;
  o.clock_ns = 8.5;
  o.lib = &lib;
  o.check_level = check::Level::kNone;
  const flow::FlowResult r = flow::run_flow(o);
  double maze_calls = 0.0;
  for (const auto& st : r.stages) {
    if (st.name == "route") maze_calls = st.counter("route.maze_calls");
  }
  return {route_hash(r.routes), maze_calls};
}

TEST(RoutePinned, LdpcRipUpAndRerouteIs2dBitStable) {
  const PinnedRoute r = ldpc_route(tech::Style::k2D);
  EXPECT_EQ(r.maze_calls, 529.0);
  EXPECT_EQ(r.hash, 0x296eff187c5bbdb3ull);
}

TEST(RoutePinned, LdpcRipUpAndRerouteIsTmiBitStable) {
  const PinnedRoute r = ldpc_route(tech::Style::kTMI);
  EXPECT_EQ(r.maze_calls, 287.0);
  EXPECT_EQ(r.hash, 0x503083da467cef33ull);
}

TEST(RoutePinned, ForcedCongestionIsBitStable) {
  // The BM_RouteMazeCongested setup: local tracks starved so most two-pins
  // overflow and every RRR iteration runs mazes.
  const auto lib = test::make_test_library();
  gen::GenOptions go;
  go.scale_shift = 3;
  auto nl = gen::make_des(go);
  nl.bind(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  route::RouteOptions ro;
  ro.local_blockage_frac = 0.6;
  ro.rrr_iters = 3;
  util::MetricsRegistry reg;
  route::RouteResult rr;
  {
    const util::ScopedMetricsSink sink(reg);
    rr = route::global_route(nl, die, tch, ro);
  }
  EXPECT_EQ(reg.counter("route.maze_calls"), 5265.0);
  EXPECT_EQ(route_hash(rr), 0x896b5c657e8d68ddull);
}

}  // namespace
}  // namespace m3d
