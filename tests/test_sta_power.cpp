#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "extract/extract.hpp"
#include "flow/flow.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "test_fixtures.hpp"

namespace m3d {
namespace {

using cells::Func;
using circuit::NetId;

struct ChainFixture {
  circuit::Netlist nl;
  NetId clk, d_in, q, last;
  int chain_len;
};

/// clk -> DFF -> inv chain -> DFF (a classic reg-to-reg path).
ChainFixture make_reg_chain(int len, const liberty::Library& lib) {
  ChainFixture f;
  f.chain_len = len;
  f.clk = f.nl.new_net("clk");
  f.nl.add_input_port("clk", f.clk);
  f.nl.set_clock(f.clk);
  f.d_in = f.nl.new_net("d_in");
  f.nl.add_input_port("d_in", f.d_in);
  f.q = f.nl.new_net("q0");
  f.nl.add_gate(Func::kDff, {f.d_in, f.clk}, {f.q});
  NetId cur = f.q;
  for (int i = 0; i < len; ++i) {
    const NetId out = f.nl.new_net();
    f.nl.add_gate(Func::kInv, {cur}, {out});
    cur = out;
  }
  f.last = cur;
  const NetId q2 = f.nl.new_net("q_end");
  f.nl.add_gate(Func::kDff, {cur, f.clk}, {q2});
  f.nl.add_output_port("q_out", q2);
  f.nl.bind(lib);
  return f;
}

extract::Parasitics zero_parasitics(const circuit::Netlist& nl) {
  return extract::Parasitics(static_cast<size_t>(nl.num_nets()));
}

TEST(Sta, ArrivalAccumulatesAlongChain) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(10, lib);
  sta::StaOptions opt;
  opt.clock_ns = 10.0;
  const auto t = sta::run_sta(f.nl, zero_parasitics(f.nl), opt);
  // Arrival at the end of the chain: clk->q + 10 inverter delays.
  EXPECT_GT(t.arrival_ps[static_cast<size_t>(f.last)],
            t.arrival_ps[static_cast<size_t>(f.q)] + 10 * 10.0);
  EXPECT_TRUE(t.met());
  EXPECT_GT(t.critical_path_ps, 100.0);
}

TEST(Sta, WnsGoesNegativeAtTightClock) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(30, lib);
  sta::StaOptions loose, tight;
  loose.clock_ns = 10.0;
  tight.clock_ns = 0.1;
  EXPECT_TRUE(sta::run_sta(f.nl, zero_parasitics(f.nl), loose).met());
  const auto t = sta::run_sta(f.nl, zero_parasitics(f.nl), tight);
  EXPECT_FALSE(t.met());
  EXPECT_LT(t.tns_ps, 0.0);
}

TEST(Sta, SetupTimeCountsAgainstEndpoint) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(1, lib);
  sta::StaOptions opt;
  opt.clock_ns = 1.0;
  const auto t = sta::run_sta(f.nl, zero_parasitics(f.nl), opt);
  // WNS = clock - arrival(D of end flop) - setup.
  const double arr_d = t.arrival_ps[static_cast<size_t>(f.last)];
  EXPECT_NEAR(t.wns_ps, 1000.0 - arr_d - 40.0, 1.0);
}

TEST(Sta, NetDelayAddsElmore) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(2, lib);
  auto par = zero_parasitics(f.nl);
  const auto t0 = sta::run_sta(f.nl, par, {});
  // Load the q net with wire RC.
  par[static_cast<size_t>(f.q)].wire_cap_ff = 20.0;
  par[static_cast<size_t>(f.q)].wire_res_kohm = 0.5;
  const auto t1 = sta::run_sta(f.nl, par, {});
  EXPECT_GT(t1.arrival_ps[static_cast<size_t>(f.last)],
            t0.arrival_ps[static_cast<size_t>(f.last)] + 10.0);
  EXPECT_DOUBLE_EQ(
      sta::net_delay_ps(par[static_cast<size_t>(f.q)], 0, 1.0),
      0.5 * (10.0 + 1.0));
}

TEST(Sta, LoadsIncludePinCaps) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(2, lib);
  const auto t = sta::run_sta(f.nl, zero_parasitics(f.nl), {});
  // q drives one INV_X1 pin (0.53 fF in the fixture).
  EXPECT_NEAR(t.load_ff[static_cast<size_t>(f.q)], 0.53, 1e-9);
}

TEST(Sta, RequiredTimesBackPropagate) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(5, lib);
  sta::StaOptions opt;
  opt.clock_ns = 2.0;
  const auto t = sta::run_sta(f.nl, zero_parasitics(f.nl), opt);
  // Required decreases from endpoint toward the source.
  EXPECT_LT(t.required_ps[static_cast<size_t>(f.q)],
            t.required_ps[static_cast<size_t>(f.last)]);
  // Slack roughly uniform along a single chain.
  const double s_start = t.required_ps[static_cast<size_t>(f.q)] -
                         t.arrival_ps[static_cast<size_t>(f.q)];
  const double s_end = t.required_ps[static_cast<size_t>(f.last)] -
                       t.arrival_ps[static_cast<size_t>(f.last)];
  EXPECT_NEAR(s_start, s_end, 1.0);
}

// --- Power -------------------------------------------------------------------

TEST(Power, InverterChainPreservesActivity) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(4, lib);
  power::PowerOptions opt;
  opt.seq_activity = 0.1;
  const auto p = power::run_power(f.nl, zero_parasitics(f.nl), nullptr, opt);
  EXPECT_NEAR(p.net_activity[static_cast<size_t>(f.q)], 0.1, 1e-9);
  EXPECT_NEAR(p.net_activity[static_cast<size_t>(f.last)], 0.1, 1e-9);
}

TEST(Power, XorSumsActivities) {
  const auto lib = test::make_test_library();
  circuit::Netlist nl;
  const NetId a = nl.new_net("a");
  const NetId b = nl.new_net("b");
  nl.add_input_port("a", a);
  nl.add_input_port("b", b);
  const NetId x = nl.new_net("x");
  nl.add_gate(Func::kXor2, {a, b}, {x});
  const NetId y = nl.new_net("y");
  nl.add_gate(Func::kAnd2, {a, b}, {y});
  nl.add_output_port("x", x);
  nl.add_output_port("y", y);
  nl.bind(lib);
  power::PowerOptions opt;
  opt.pi_activity = 0.2;
  const auto p = power::run_power(nl, zero_parasitics(nl), nullptr, opt);
  // XOR: boolean difference prob = 1 for each input -> a = 0.4.
  EXPECT_NEAR(p.net_activity[static_cast<size_t>(x)], 0.4, 1e-9);
  // AND: difference prob = P(other=1) = 0.5 -> a = 0.2.
  EXPECT_NEAR(p.net_activity[static_cast<size_t>(y)], 0.2, 1e-9);
}

TEST(Power, ClockPinsBurnTwoTogglesPerCycle) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(1, lib);
  power::PowerOptions opt;
  opt.clock_ns = 1.0;
  opt.vdd_v = 1.0;
  const auto p = power::run_power(f.nl, zero_parasitics(f.nl), nullptr, opt);
  EXPECT_NEAR(p.net_activity[static_cast<size_t>(f.clk)], 2.0, 1e-9);
  // Pin power includes the two DFF CK pins at a=2.
  EXPECT_GT(p.pin_uw, 0.0);
}

TEST(Power, WirePowerScalesWithCapAndFreq) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(2, lib);
  auto par = zero_parasitics(f.nl);
  par[static_cast<size_t>(f.q)].wire_cap_ff = 10.0;
  power::PowerOptions opt;
  opt.clock_ns = 1.0;
  opt.vdd_v = 1.0;
  opt.seq_activity = 0.1;
  const auto p1 = power::run_power(f.nl, par, nullptr, opt);
  // 0.5 * 0.1 * 10 fF * 1 V^2 * 1 GHz = 0.5 uW on that net.
  EXPECT_NEAR(p1.wire_uw, 0.5, 1e-9);
  opt.clock_ns = 2.0;
  const auto p2 = power::run_power(f.nl, par, nullptr, opt);
  EXPECT_NEAR(p2.wire_uw, 0.25, 1e-9);
}

TEST(Power, LeakageSumsCells) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(3, lib);
  const auto p = power::run_power(f.nl, zero_parasitics(f.nl), nullptr, {});
  // 2 DFF + 3 INV at 0.003 uW each.
  EXPECT_NEAR(p.leakage_uw, 5 * 0.003, 1e-9);
}

TEST(Power, TotalIsSumOfParts) {
  const auto lib = test::make_test_library();
  auto f = make_reg_chain(6, lib);
  auto par = zero_parasitics(f.nl);
  par[static_cast<size_t>(f.q)].wire_cap_ff = 3.0;
  const auto p = power::run_power(f.nl, par, nullptr, {});
  EXPECT_NEAR(p.total_uw, p.cell_internal_uw + p.net_switching_uw + p.leakage_uw,
              1e-9);
  EXPECT_NEAR(p.net_switching_uw, p.wire_uw + p.pin_uw, 1e-9);
}

TEST(Power, ActivityCappedAtOne) {
  const auto lib = test::make_test_library();
  circuit::Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(nl.new_net());
    std::string port = "i";  // appended: GCC 12 -O3 -Wrestrict
    port += std::to_string(i);
    nl.add_input_port(port, ins.back());
  }
  // XOR tree of highly active inputs.
  const NetId x1 = nl.new_net();
  nl.add_gate(Func::kXor2, {ins[0], ins[1]}, {x1});
  const NetId x2 = nl.new_net();
  nl.add_gate(Func::kXor2, {ins[2], ins[3]}, {x2});
  const NetId x3 = nl.new_net();
  nl.add_gate(Func::kXor2, {x1, x2}, {x3});
  nl.add_output_port("x", x3);
  nl.bind(lib);
  power::PowerOptions opt;
  opt.pi_activity = 0.9;
  const auto p = power::run_power(nl, zero_parasitics(nl), nullptr, opt);
  EXPECT_LE(p.net_activity[static_cast<size_t>(x3)], 1.0);
}

}  // namespace
}  // namespace m3d

namespace m3d {
namespace {

// Regression: arrivals must be monotone along every combinational edge even
// after optimization inserts/removes buffers and CTS rewires the clock
// (a Kahn-ordering bug once let DFF sources decrement uncounted deps).
TEST(Sta, ArrivalsMonotoneAfterFullFlow) {
  const auto lib = test::make_test_library();
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.clock_ns = 1.5;
  o.lib = &lib;
  const flow::FlowResult r = flow::run_flow(o);
  const tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  const auto par = extract::extract_from_routes(r.netlist, t, r.routes);
  sta::StaOptions so;
  so.clock_ns = 1.5;
  const auto timing = sta::run_sta(r.netlist, par, so);
  for (int i = 0; i < r.netlist.num_instances(); ++i) {
    const auto& inst = r.netlist.inst(i);
    if (inst.dead || inst.sequential() || inst.libcell == nullptr) continue;
    for (circuit::NetId in : inst.in_nets) {
      for (circuit::NetId out : inst.out_nets) {
        EXPECT_GE(timing.arrival_ps[static_cast<size_t>(out)] + 1e-6,
                  timing.arrival_ps[static_cast<size_t>(in)])
            << "inst " << i;
      }
    }
  }
}

}  // namespace
}  // namespace m3d

namespace m3d {
namespace {

TEST(Hold, NoViolationsOnHealthyDesign) {
  const auto lib = test::make_test_library();
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.clock_ns = 1.5;
  o.lib = &lib;
  const flow::FlowResult r = flow::run_flow(o);
  const tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  const auto par = extract::extract_from_routes(r.netlist, t, r.routes);
  const auto h = sta::run_hold_check(r.netlist, par);
  // Fixture hold = 5 ps; even the shortest reg-to-reg path has a full
  // clk->q plus at least one gate.
  EXPECT_EQ(h.violations, 0);
  EXPECT_GT(h.worst_slack_ps, 0.0);
}

TEST(Hold, DetectsArtificiallyLargeHold) {
  // Clone the fixture library with an absurd hold requirement.
  liberty::Library lib = test::make_test_library();
  liberty::Library harsh;
  harsh.name = lib.name;
  harsh.node = lib.node;
  harsh.style = lib.style;
  harsh.vdd_v = lib.vdd_v;
  for (liberty::LibCell c : lib.cells()) {
    if (c.sequential) c.hold_ps = 1e5;
    harsh.add(std::move(c));
  }
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.clock_ns = 1.5;
  o.lib = &harsh;
  const flow::FlowResult r = flow::run_flow(o);
  const tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  const auto par = extract::extract_from_routes(r.netlist, t, r.routes);
  const auto h = sta::run_hold_check(r.netlist, par);
  EXPECT_GT(h.violations, 0);
  EXPECT_LT(h.worst_slack_ps, 0.0);
}

}  // namespace
}  // namespace m3d

namespace m3d {
namespace {

/// The pre-index extract_from_placement, kept as the reference: every net
/// rescans all chip ports, and the level's unit and via RC are re-derived
/// per net.
extract::Parasitics extract_from_placement_reference(
    const circuit::Netlist& nl, const tech::Tech& tech) {
  auto via_rc = [&](route::Level level, double* r, double* c) {
    const tech::LayerLevel tl =
        level == route::kLocal          ? tech::LayerLevel::kLocal
        : level == route::kIntermediate ? tech::LayerLevel::kIntermediate
                                        : tech::LayerLevel::kGlobal;
    const int first = tech.stack().first_of(tl);
    double rr = 0.0, cc = 0.0;
    const int m1 = tech.stack().find("M1");
    for (int i = std::max(0, m1);
         i < first && i < static_cast<int>(tech.stack().cuts.size()); ++i) {
      rr += tech.cut(i).r_kohm;
      cc += tech.cut(i).c_ff;
    }
    *r = rr;
    *c = cc;
  };
  extract::Parasitics par(static_cast<size_t>(nl.num_nets()));
  const double node_scale = tech.node() == tech::Node::k7nm ? 7.0 / 45.0 : 1.0;
  const double t_local = 60.0 * node_scale;
  const double t_inter = 400.0 * node_scale;
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    geom::Rect box;
    if (net.driver.inst != circuit::kInvalid) box.expand(nl.inst(net.driver.inst).pos);
    for (const auto& s : net.sinks) {
      if (s.inst != circuit::kInvalid) box.expand(nl.inst(s.inst).pos);
    }
    for (const auto& port : nl.ports()) {
      if (port.net == n) box.expand(port.pos);
    }
    if (box.empty()) continue;
    const double hpwl = box.half_perimeter();
    const double wl = hpwl * (1.0 + 0.1 * std::max(0, net.fanout() - 1));
    const route::Level level =
        wl <= t_local ? route::kLocal
                      : (wl <= t_inter ? route::kIntermediate : route::kGlobal);
    double vr = 0.0, vc = 0.0;
    via_rc(level, &vr, &vc);
    auto& p = par[static_cast<size_t>(n)];
    p.wirelength_um = wl;
    p.wire_cap_ff = wl * extract::unit_c_ff_um(tech, level) + 2.0 * vc;
    p.wire_res_kohm = wl * extract::unit_r_kohm_um(tech, level) + 2.0 * vr;
  }
  return par;
}

/// Every field of every net equal to 0 ULP (bit patterns, not values).
void expect_bit_identical(const extract::Parasitics& got,
                          const extract::Parasitics& ref) {
  ASSERT_EQ(got.size(), ref.size());
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (size_t n = 0; n < ref.size(); ++n) {
    EXPECT_EQ(bits(got[n].wirelength_um), bits(ref[n].wirelength_um)) << n;
    EXPECT_EQ(bits(got[n].wire_cap_ff), bits(ref[n].wire_cap_ff)) << n;
    EXPECT_EQ(bits(got[n].wire_res_kohm), bits(ref[n].wire_res_kohm)) << n;
    ASSERT_EQ(got[n].sink_res_kohm.size(), ref[n].sink_res_kohm.size()) << n;
    for (size_t k = 0; k < ref[n].sink_res_kohm.size(); ++k) {
      EXPECT_EQ(bits(got[n].sink_res_kohm[k]), bits(ref[n].sink_res_kohm[k])) << n;
    }
  }
}

TEST(Extract, PlacementMatchesAllPortScanReferenceBitwise) {
  // LDPC at scale_shift 2: 1,602 chip ports, the case the per-net port
  // rescan made quadratic.
  const auto lib = test::make_test_library();
  gen::GenOptions go;
  go.scale_shift = 2;
  circuit::Netlist nl = gen::make_ldpc(go);
  ASSERT_EQ(nl.ports().size(), 1602u);
  nl.bind(lib);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const place::Die die = place::make_die(&nl, 0.33, tch.row_height_um());
  place::place_design(&nl, die, {});
  expect_bit_identical(extract::extract_from_placement(nl, tch),
                       extract_from_placement_reference(nl, tch));

  // Again after pre-route optimization has resized cells and inserted
  // buffers (new nets, rewired sinks); a tight clock forces buffering.
  opt::OptOptions oo;
  oo.clock_ns = 1.0;
  oo.rounds = 3;
  oo.die = &die;
  const opt::OptReport rep = opt::optimize(
      &nl, lib,
      [&](const circuit::Netlist& n) {
        return extract::extract_from_placement(n, tch);
      },
      oo);
  ASSERT_GT(rep.buffers_added, 0);
  expect_bit_identical(extract::extract_from_placement(nl, tch),
                       extract_from_placement_reference(nl, tch));
}

}  // namespace
}  // namespace m3d
