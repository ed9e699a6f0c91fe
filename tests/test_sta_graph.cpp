// Equivalence of sta::run_sta / sta::run_hold_check, which time a flat
// compiled graph (per-cell pin-cap and arc tables, CSR pin and sink arrays,
// bucketed levels, forward arc delays reused backward), with the
// per-instance-vector implementation they replaced, kept here as the
// oracle. Every TimingResult / HoldResult field must match to 0 ULP, on
// the serial pool and on a 4-thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "extract/extract.hpp"
#include "flow/flow.hpp"
#include "liberty/analytic.hpp"
#include "opt/opt.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "test_fixtures.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

// --- The oracle: run_sta and run_hold_check as they were before the
// compiled graph, minus the span and counters (which are not results).

constexpr double kInf = std::numeric_limits<double>::max() / 4;
constexpr double kPoLoadFf = 2.0;  // assumed load on primary outputs

/// Pin capacitance of a sink (0 for primary outputs).
double sink_cap_ff(const circuit::Netlist& nl, const circuit::PinRef& s) {
  if (s.inst == circuit::kInvalid) return kPoLoadFf;
  const circuit::Instance& inst = nl.inst(s.inst);
  if (inst.libcell == nullptr) return 0.0;
  const auto& pins = cells::input_pins(inst.func);
  return inst.libcell->input_cap_ff(pins[static_cast<size_t>(s.pin)]);
}

using sta::kClockSlewPs;
using sta::kInputSlewPs;
using sta::kSlewDegradeK;
using sta::net_delay_ps;

sta::TimingResult oracle_run_sta(const circuit::Netlist& nl,
                                 const extract::Parasitics& par,
                                 const sta::StaOptions& opt) {
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const double clock_ps = opt.clock_ns * 1000.0;
  assert(static_cast<int>(par.size()) == num_nets);

  sta::TimingResult r;
  r.arrival_ps.assign(static_cast<size_t>(num_nets), 0.0);
  r.slew_ps.assign(static_cast<size_t>(num_nets), kInputSlewPs);
  r.required_ps.assign(static_cast<size_t>(num_nets), kInf);
  r.inst_slack_ps.assign(static_cast<size_t>(num_inst), kInf);
  r.load_ff.assign(static_cast<size_t>(num_nets), 0.0);

  // Loads: each net writes only its own slot.
  exec::parallel_for(static_cast<size_t>(num_nets), [&](size_t nb, size_t ne) {
    for (size_t n = nb; n < ne; ++n) {
      const circuit::Net& net = nl.net(static_cast<circuit::NetId>(n));
      double load = par[n].wire_cap_ff;
      for (const auto& s : net.sinks) load += sink_cap_ff(nl, s);
      r.load_ff[n] = load;
    }
  });

  // Arrival/slew at each instance input pin.
  std::vector<std::vector<double>> arr_in(static_cast<size_t>(num_inst));
  std::vector<std::vector<double>> slew_in(static_cast<size_t>(num_inst));
  for (int i = 0; i < num_inst; ++i) {
    const size_t nin = nl.inst(i).in_nets.size();
    arr_in[static_cast<size_t>(i)].assign(nin, 0.0);
    slew_in[static_cast<size_t>(i)].assign(nin, kInputSlewPs);
  }

  auto propagate_net = [&](circuit::NetId n) {
    const circuit::Net& net = nl.net(n);
    const auto& p = par[static_cast<size_t>(n)];
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const double nd = net_delay_ps(p, k, sink_cap_ff(nl, s));
      const double elmore = nd;
      arr_in[static_cast<size_t>(s.inst)][static_cast<size_t>(s.pin)] =
          r.arrival_ps[static_cast<size_t>(n)] + nd;
      const double sl = r.slew_ps[static_cast<size_t>(n)];
      slew_in[static_cast<size_t>(s.inst)][static_cast<size_t>(s.pin)] =
          std::sqrt(sl * sl + kSlewDegradeK * kSlewDegradeK * elmore * elmore);
    }
  };

  // Sources: primary-input nets and DFF outputs.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_primary_input || net.is_clock) {
      r.arrival_ps[static_cast<size_t>(n)] = 0.0;
      r.slew_ps[static_cast<size_t>(n)] =
          net.is_clock ? kClockSlewPs : kInputSlewPs;
      propagate_net(n);
    }
  }
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const circuit::NetId q = inst.out_nets[0];
    const liberty::TimingArc* arc = inst.libcell->arc("CK", "Q");
    const double load = r.load_ff[static_cast<size_t>(q)];
    r.arrival_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_delay(kClockSlewPs, load) : 0.0;
    r.slew_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_slew(kClockSlewPs, load) : kClockSlewPs;
    propagate_net(q);
  }

  // Forward pass over combinational instances, one topological level at a
  // time.
  const std::vector<circuit::InstId> order = nl.topo_order();
  std::vector<int> level(static_cast<size_t>(num_inst), 0);
  std::vector<std::vector<circuit::InstId>> levels;
  for (circuit::InstId id : order) {
    const circuit::Instance& inst = nl.inst(id);
    int lv = 0;
    if (!inst.sequential()) {
      for (circuit::NetId in : inst.in_nets) {
        const auto& drv = nl.net(in).driver;
        if (drv.inst != circuit::kInvalid && !nl.inst(drv.inst).sequential()) {
          lv = std::max(lv, level[static_cast<size_t>(drv.inst)] + 1);
        }
      }
    }
    level[static_cast<size_t>(id)] = lv;
    if (inst.sequential() || inst.libcell == nullptr) continue;
    if (static_cast<size_t>(lv) >= levels.size()) {
      levels.resize(static_cast<size_t>(lv) + 1);
    }
    levels[static_cast<size_t>(lv)].push_back(id);
  }
  constexpr size_t kLevelGrain = 32;  // fixed => same chunks at any threads
  for (const auto& bucket : levels) {
    exec::parallel_for(
        bucket.size(),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const circuit::InstId id = bucket[k];
            const circuit::Instance& inst = nl.inst(id);
            const auto& in_pins = cells::input_pins(inst.func);
            const auto& out_pins = cells::output_pins(inst.func);
            for (size_t o = 0; o < inst.out_nets.size(); ++o) {
              const circuit::NetId out = inst.out_nets[o];
              const double load = r.load_ff[static_cast<size_t>(out)];
              double arr = 0.0, slew = kInputSlewPs;
              for (size_t p = 0; p < inst.in_nets.size(); ++p) {
                const liberty::TimingArc* arc =
                    inst.libcell->arc(in_pins[p], out_pins[o]);
                if (arc == nullptr) continue;
                const double in_slew = slew_in[static_cast<size_t>(id)][p];
                const double d = arc->worst_delay(in_slew, load);
                const double a = arr_in[static_cast<size_t>(id)][p] + d;
                if (a > arr) {
                  arr = a;
                  slew = arc->worst_slew(in_slew, load);
                }
              }
              r.arrival_ps[static_cast<size_t>(out)] = arr;
              r.slew_ps[static_cast<size_t>(out)] = slew;
              propagate_net(out);
            }
          }
        },
        kLevelGrain);
  }

  // Endpoint slacks: DFF D pins and primary outputs.
  r.wns_ps = kInf;
  r.tns_ps = 0.0;
  std::vector<std::vector<double>> req_in(static_cast<size_t>(num_inst));
  for (int i = 0; i < num_inst; ++i) {
    req_in[static_cast<size_t>(i)].assign(nl.inst(i).in_nets.size(), kInf);
  }
  auto note_endpoint = [&](double arrival, double required,
                           circuit::NetId net) {
    const double slack = required - arrival;
    if (slack < r.wns_ps) {
      r.wns_ps = slack;
    }
    if (slack < 0) r.tns_ps += slack;
    if (arrival > r.critical_path_ps) {
      r.critical_path_ps = arrival;
      r.critical_endpoint = net;
    }
  };
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    // D pin is input 0 of the DFF.
    const double arr = arr_in[static_cast<size_t>(i)][0];
    const double req = clock_ps - inst.libcell->setup_ps;
    req_in[static_cast<size_t>(i)][0] = req;
    note_endpoint(arr, req, inst.in_nets[0]);
  }
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (!net.is_primary_output) continue;
    note_endpoint(r.arrival_ps[static_cast<size_t>(n)], clock_ps, n);
  }
  if (r.wns_ps >= kInf / 2) r.wns_ps = clock_ps;  // no endpoints

  // Backward pass: required time at each net's driver pin, levels
  // highest-first.
  for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
    const auto& bucket = *lit;
    exec::parallel_for(
        bucket.size(),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const circuit::InstId id = bucket[k];
            const circuit::Instance& inst = nl.inst(id);
            const auto& in_pins = cells::input_pins(inst.func);
            const auto& out_pins = cells::output_pins(inst.func);
            // Required at each output net driver = min over sinks.
            for (size_t o = 0; o < inst.out_nets.size(); ++o) {
              const circuit::NetId out = inst.out_nets[o];
              const circuit::Net& net = nl.net(out);
              double req = net.is_primary_output ? clock_ps : kInf;
              const auto& p = par[static_cast<size_t>(out)];
              for (size_t sk = 0; sk < net.sinks.size(); ++sk) {
                const auto& s = net.sinks[sk];
                if (s.inst == circuit::kInvalid) continue;
                const double nd = net_delay_ps(p, sk, sink_cap_ff(nl, s));
                req = std::min(
                    req, req_in[static_cast<size_t>(s.inst)]
                               [static_cast<size_t>(s.pin)] - nd);
              }
              r.required_ps[static_cast<size_t>(out)] = req;
              // Push through the cell to its input pins.
              const double load = r.load_ff[static_cast<size_t>(out)];
              for (size_t pi = 0; pi < inst.in_nets.size(); ++pi) {
                const liberty::TimingArc* arc =
                    inst.libcell->arc(in_pins[pi], out_pins[o]);
                if (arc == nullptr) continue;
                const double d =
                    arc->worst_delay(slew_in[static_cast<size_t>(id)][pi], load);
                req_in[static_cast<size_t>(id)][pi] =
                    std::min(req_in[static_cast<size_t>(id)][pi], req - d);
              }
            }
          }
        },
        kLevelGrain);
  }
  // Required at source nets (DFF outputs / PIs) for completeness.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if (r.required_ps[static_cast<size_t>(n)] < kInf) continue;
    const circuit::Net& net = nl.net(n);
    double req = net.is_primary_output ? clock_ps : kInf;
    const auto& p = par[static_cast<size_t>(n)];
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const double nd = net_delay_ps(p, k, sink_cap_ff(nl, s));
      req = std::min(req, req_in[static_cast<size_t>(s.inst)][static_cast<size_t>(s.pin)] - nd);
    }
    r.required_ps[static_cast<size_t>(n)] = req;
  }

  // Per-instance slack.
  for (int i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (inst.dead || inst.libcell == nullptr) continue;
    double slack = kInf;
    for (circuit::NetId out : inst.out_nets) {
      slack = std::min(slack, r.required_ps[static_cast<size_t>(out)] -
                                  r.arrival_ps[static_cast<size_t>(out)]);
    }
    r.inst_slack_ps[static_cast<size_t>(i)] = slack;
  }
  return r;
}

sta::HoldResult oracle_run_hold_check(const circuit::Netlist& nl,
                                      const extract::Parasitics& par) {
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  std::vector<double> early(static_cast<size_t>(num_nets), 0.0);
  std::vector<double> load(static_cast<size_t>(num_nets), 0.0);
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    double l = par[static_cast<size_t>(n)].wire_cap_ff;
    for (const auto& s : net.sinks) {
      if (s.inst == circuit::kInvalid) continue;
      const auto& si = nl.inst(s.inst);
      if (si.libcell == nullptr) continue;
      const auto& pins = cells::input_pins(si.func);
      l += si.libcell->input_cap_ff(pins[static_cast<size_t>(s.pin)]);
    }
    load[static_cast<size_t>(n)] = l;
  }
  std::vector<std::vector<double>> early_in(static_cast<size_t>(num_inst));
  for (int i = 0; i < num_inst; ++i) {
    early_in[static_cast<size_t>(i)].assign(nl.inst(i).in_nets.size(), 0.0);
  }
  auto push = [&](circuit::NetId n) {
    const circuit::Net& net = nl.net(n);
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      const double nd =
          net_delay_ps(par[static_cast<size_t>(n)], k, sink_cap_ff(nl, s));
      early_in[static_cast<size_t>(s.inst)][static_cast<size_t>(s.pin)] =
          early[static_cast<size_t>(n)] + nd;
    }
  };
  constexpr double kExternallyTimed = 1e7;
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if (nl.net(n).is_primary_input || nl.net(n).is_clock) {
      early[static_cast<size_t>(n)] = kExternallyTimed;
      push(n);
    }
  }
  for (int i = 0; i < num_inst; ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const circuit::NetId q = inst.out_nets[0];
    const liberty::TimingArc* arc = inst.libcell->arc("CK", "Q");
    double d = 0.0;
    if (arc != nullptr) {
      d = std::min(arc->delay[0].at(kClockSlewPs, load[static_cast<size_t>(q)]),
                   arc->delay[1].at(kClockSlewPs, load[static_cast<size_t>(q)]));
    }
    early[static_cast<size_t>(q)] = d;
    push(q);
  }
  for (circuit::InstId id : nl.topo_order()) {
    const auto& inst = nl.inst(id);
    if (inst.sequential() || inst.libcell == nullptr) continue;
    const auto& in_pins = cells::input_pins(inst.func);
    const auto& out_pins = cells::output_pins(inst.func);
    for (size_t o = 0; o < inst.out_nets.size(); ++o) {
      const circuit::NetId out = inst.out_nets[o];
      double best = std::numeric_limits<double>::max();
      for (size_t p = 0; p < inst.in_nets.size(); ++p) {
        const liberty::TimingArc* arc =
            inst.libcell->arc(in_pins[p], out_pins[o]);
        if (arc == nullptr) continue;
        const double d =
            std::min(arc->delay[0].at(kInputSlewPs,
                                      load[static_cast<size_t>(out)]),
                     arc->delay[1].at(kInputSlewPs,
                                      load[static_cast<size_t>(out)]));
        best = std::min(best, early_in[static_cast<size_t>(id)][p] + d);
      }
      early[static_cast<size_t>(out)] =
          best == std::numeric_limits<double>::max() ? 0.0 : best;
      push(out);
    }
  }
  sta::HoldResult res;
  res.worst_slack_ps = std::numeric_limits<double>::max();
  for (int i = 0; i < num_inst; ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead || !inst.sequential() || inst.libcell == nullptr) continue;
    const double arr = early_in[static_cast<size_t>(i)][0];
    if (arr > kExternallyTimed / 2) continue;  // PI-fed: externally timed
    const double slack = arr - inst.libcell->hold_ps;
    if (slack < res.worst_slack_ps) res.worst_slack_ps = slack;
    if (slack < 0) ++res.violations;
  }
  if (res.worst_slack_ps == std::numeric_limits<double>::max()) {
    res.worst_slack_ps = 0.0;
  }
  return res;
}

// --- 0-ULP comparison ----------------------------------------------------

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* field) {
  ASSERT_EQ(got.size(), want.size()) << field;
  for (size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) {
      ADD_FAILURE() << field << "[" << i << "]: " << got[i] << " vs oracle "
                    << want[i];
      return;  // the first mismatch names the field; the rest is noise
    }
  }
}

void expect_same_timing(const sta::TimingResult& got,
                        const sta::TimingResult& want) {
  expect_same_bits(got.arrival_ps, want.arrival_ps, "arrival_ps");
  expect_same_bits(got.slew_ps, want.slew_ps, "slew_ps");
  expect_same_bits(got.required_ps, want.required_ps, "required_ps");
  expect_same_bits(got.inst_slack_ps, want.inst_slack_ps, "inst_slack_ps");
  expect_same_bits(got.load_ff, want.load_ff, "load_ff");
  EXPECT_EQ(bits(got.wns_ps), bits(want.wns_ps)) << "wns_ps";
  EXPECT_EQ(bits(got.tns_ps), bits(want.tns_ps)) << "tns_ps";
  EXPECT_EQ(bits(got.critical_path_ps), bits(want.critical_path_ps))
      << "critical_path_ps";
  EXPECT_EQ(got.critical_endpoint, want.critical_endpoint)
      << "critical_endpoint";
}

void expect_same_hold(const sta::HoldResult& got, const sta::HoldResult& want) {
  EXPECT_EQ(bits(got.worst_slack_ps), bits(want.worst_slack_ps))
      << "worst_slack_ps " << got.worst_slack_ps << " vs "
      << want.worst_slack_ps;
  EXPECT_EQ(got.violations, want.violations);
}

/// Setup and hold against the oracle, on the serial pool and on 4 threads
/// (the oracle runs serially: it is thread-count invariant by contract).
void expect_matches_oracle(const circuit::Netlist& nl,
                           const extract::Parasitics& par,
                           const sta::StaOptions& opt) {
  exec::set_default_threads(1);
  const sta::TimingResult want = oracle_run_sta(nl, par, opt);
  const sta::HoldResult want_hold = oracle_run_hold_check(nl, par);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    exec::set_default_threads(threads);
    expect_same_timing(sta::run_sta(nl, par, opt), want);
    expect_same_hold(sta::run_hold_check(nl, par), want_hold);
  }
  exec::set_default_threads(0);  // restore the environment-resolved pool
}

// --- Inputs ----------------------------------------------------------------

const liberty::Library& analytic_lib() {
  static const liberty::Library lib = liberty::analytic_library();
  return lib;
}

/// LDPC at its bench scale (scale_shift 2) and the paper's 0.33
/// utilisation through the whole flow at a fixed 8.5 ns clock, shared by
/// the LDPC cases: the final netlist carries pre-route optimization's
/// buffers and post-route sizing, and its routes give sign-off parasitics.
const flow::FlowResult& ldpc_flow() {
  static const flow::FlowResult r = [] {
    flow::FlowOptions o;
    o.bench = gen::Bench::kLdpc;
    o.scale_shift = 2;
    o.target_util = 0.33;
    o.clock_ns = 8.5;
    o.lib = &analytic_lib();
    o.check_level = check::Level::kNone;
    return flow::run_flow(o);
  }();
  return r;
}

const tech::Tech& tech2d() {
  static const tech::Tech t(tech::Node::k45nm, tech::Style::k2D);
  return t;
}

sta::StaOptions at_clock(double clock_ns) {
  sta::StaOptions o;
  o.clock_ns = clock_ns;
  return o;
}

TEST(StaGraph, MatchesOracleOnLdpcWithPlacementParasitics) {
  const auto& r = ldpc_flow();
  const auto par = extract::extract_from_placement(r.netlist, tech2d());
  expect_matches_oracle(r.netlist, par, at_clock(8.5));
}

TEST(StaGraph, MatchesOracleOnLdpcWithRoutedParasitics) {
  const auto& r = ldpc_flow();
  ASSERT_GT(r.netlist.count_buffers(), 0) << "optimizer buffers covered";
  const auto par = extract::extract_from_routes(r.netlist, tech2d(), r.routes);
  expect_matches_oracle(r.netlist, par, at_clock(8.5));
  // A clock tight enough that most endpoints fail exercises tns and the
  // negative-slack side of every min fold.
  expect_matches_oracle(r.netlist, par, at_clock(0.5));
}

TEST(StaGraph, MatchesOracleAfterOptimizeRemovesBuffers) {
  // DES under a tight clock leaves optimizer buffers in the netlist; a
  // second optimize at a relaxed clock removes the ones with comfortable
  // slack, leaving dead instances and sink-less nets for the timer.
  const auto lib = test::make_test_library();
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.clock_ns = 0.6;
  o.lib = &lib;
  o.check_level = check::Level::kNone;
  circuit::Netlist nl = flow::run_flow(o).netlist;
  ASSERT_GT(nl.count_buffers(), 0) << "no optimizer buffer to remove";
  const auto placed = [](const circuit::Netlist& n) {
    return extract::extract_from_placement(n, tech2d());
  };
  opt::OptOptions relaxed;
  relaxed.clock_ns = 20.0;
  const opt::OptReport rep = opt::optimize(&nl, lib, placed, relaxed);
  ASSERT_GT(rep.buffers_removed, 0);
  int dead = 0;
  for (int i = 0; i < nl.num_instances(); ++i) dead += nl.inst(i).dead ? 1 : 0;
  ASSERT_GT(dead, 0);
  expect_matches_oracle(nl, placed(nl), at_clock(0.6));
  expect_matches_oracle(nl, placed(nl), at_clock(20.0));
}

TEST(StaGraph, MatchesOracleOnFpuMultiOutputCells) {
  const auto lib = test::make_test_library();
  flow::FlowOptions o;
  o.bench = gen::Bench::kFpu;
  o.scale_shift = 4;
  o.clock_ns = 2.0;
  o.lib = &lib;
  o.check_level = check::Level::kNone;
  const flow::FlowResult r = flow::run_flow(o);
  bool multi_output = false;
  for (int i = 0; i < r.netlist.num_instances(); ++i) {
    multi_output |= r.netlist.inst(i).out_nets.size() > 1;
  }
  ASSERT_TRUE(multi_output) << "no two-output cell to cover";
  const auto par = extract::extract_from_routes(r.netlist, tech2d(), r.routes);
  expect_matches_oracle(r.netlist, par, at_clock(2.0));
}

/// Sink and cell corner cases no generated benchmark has: a primary-output
/// sink on a net's sink list, an instance without a libcell, and a libcell
/// missing one of its arcs.
TEST(StaGraph, MatchesOracleOnHandBuiltCornerCases) {
  using cells::Func;
  liberty::Library lib = test::make_test_library();
  // NAND2 without its B -> Y arc.
  liberty::Library pruned;
  pruned.name = lib.name;
  pruned.node = lib.node;
  pruned.style = lib.style;
  pruned.vdd_v = lib.vdd_v;
  for (liberty::LibCell c : lib.cells()) {
    if (c.func == Func::kNand2) {
      std::erase_if(c.arcs, [](const liberty::TimingArc& a) {
        return a.from == "B";
      });
    }
    pruned.add(std::move(c));
  }
  circuit::Netlist nl;
  const circuit::NetId clk = nl.new_net("clk");
  nl.add_input_port("clk", clk);
  nl.set_clock(clk);
  const circuit::NetId a = nl.new_net("a");
  const circuit::NetId b = nl.new_net("b");
  nl.add_input_port("a", a);
  nl.add_input_port("b", b);
  const circuit::NetId q = nl.new_net("q");
  nl.add_gate(Func::kDff, {a, clk}, {q});
  const circuit::NetId n1 = nl.new_net("n1");
  nl.add_gate(Func::kNand2, {q, b}, {n1});
  const circuit::NetId n2 = nl.new_net("n2");
  const circuit::InstId unbound = nl.add_gate(Func::kInv, {n1}, {n2});
  // The unbound inverter's output feeds a timed arc (to a primary output)
  // and the B pin of a NAND2 without a B arc.
  const circuit::NetId n5 = nl.new_net("n5");
  nl.add_gate(Func::kInv, {n2}, {n5});
  const circuit::NetId n3 = nl.new_net("n3");
  nl.add_gate(Func::kNand2, {q, n2}, {n3});
  const circuit::NetId n4 = nl.new_net("n4");
  nl.add_gate(Func::kXor2, {n3, n1}, {n4});
  const circuit::NetId q2 = nl.new_net("q2");
  nl.add_gate(Func::kDff, {n4, clk}, {q2});
  // Every hold path starts at q, so its load reaches the hold result.
  const circuit::NetId q3 = nl.new_net("q3");
  nl.add_gate(Func::kDff, {n1, clk}, {q3});
  nl.add_output_port("y", n4);
  nl.add_output_port("q2", q2);
  nl.add_output_port("q3", q3);
  nl.add_output_port("z", n5);
  nl.bind(pruned);
  nl.inst(unbound).libcell = nullptr;
  // A primary-output pin on the sink lists of a primary-input net, a flop
  // output and a gate output, between real sinks.
  nl.net(b).sinks.insert(nl.net(b).sinks.begin(), circuit::PinRef{});
  nl.net(q).sinks.insert(nl.net(q).sinks.begin() + 1, circuit::PinRef{});
  nl.net(n1).sinks.insert(nl.net(n1).sinks.begin() + 1, circuit::PinRef{});

  extract::Parasitics par(static_cast<size_t>(nl.num_nets()));
  for (size_t n = 0; n < par.size(); ++n) {
    par[n].wire_cap_ff = 0.75 + 0.5 * static_cast<double>(n);
    par[n].wire_res_kohm = 0.1 + 0.03 * static_cast<double>(n);
    const size_t fanout = nl.net(static_cast<circuit::NetId>(n)).sinks.size();
    for (size_t k = 0; k + 1 < fanout; ++k) {
      par[n].sink_res_kohm.push_back(0.05 * static_cast<double>(k + 1));
    }
  }
  for (const double clock_ns : {0.05, 0.3, 5.0}) {
    SCOPED_TRACE(testing::Message() << "clock " << clock_ns << " ns");
    expect_matches_oracle(nl, par, at_clock(clock_ns));
  }
}

// Power reads sink pin caps from the per-cell table; the pin-cap total
// must equal the name-keyed sum it replaced, bit for bit.
TEST(StaGraph, PowerPinCapsMatchNameKeyedSum) {
  const auto& r = ldpc_flow();
  const auto par = extract::extract_from_placement(r.netlist, tech2d());
  const auto timing = sta::run_sta(r.netlist, par, at_clock(8.5));
  power::PowerOptions po;
  po.clock_ns = 8.5;
  const power::PowerResult p = power::run_power(r.netlist, par, &timing, po);
  // The name-keyed sum over every net power counts.
  std::vector<double> act = p.net_activity;
  double pin_cap_pf = 0.0;
  for (circuit::NetId n = 0; n < r.netlist.num_nets(); ++n) {
    const circuit::Net& net = r.netlist.net(n);
    if (net.sinks.empty() && !net.is_primary_output) continue;
    if (act[static_cast<size_t>(n)] <= 0.0) continue;
    double pin_c = 0.0;
    for (const auto& s : net.sinks) {
      if (s.inst == circuit::kInvalid) continue;
      const circuit::Instance& si = r.netlist.inst(s.inst);
      if (si.libcell == nullptr) continue;
      const auto& pins = cells::input_pins(si.func);
      pin_c += si.libcell->input_cap_ff(pins[static_cast<size_t>(s.pin)]);
    }
    pin_cap_pf += pin_c / 1000.0;
  }
  EXPECT_EQ(bits(p.pin_cap_pf), bits(pin_cap_pf));
}

// --- The optimizer's final analysis ------------------------------------------

void expect_same_parasitics(const extract::Parasitics& got,
                            const extract::Parasitics& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto same = [](double a, double b) { return bits(a) == bits(b); };
  for (size_t n = 0; n < got.size(); ++n) {
    const auto& g = got[n];
    const auto& w = want[n];
    if (!same(g.wire_cap_ff, w.wire_cap_ff) ||
        !same(g.wire_res_kohm, w.wire_res_kohm) ||
        !same(g.wirelength_um, w.wirelength_um) ||
        !std::equal(g.sink_res_kohm.begin(), g.sink_res_kohm.end(),
                    w.sink_res_kohm.begin(), w.sink_res_kohm.end(), same)) {
      ADD_FAILURE() << "net " << n << ": parasitics differ from a fresh "
                    << "extraction";
      return;
    }
  }
}

const liberty::Library& des_lib() {
  static const liberty::Library lib = test::make_test_library();
  return lib;
}

/// DES at its preset scale through the whole flow at a 2 ns clock: an
/// optimized, row-legal netlist with its die and routes.
const flow::FlowResult& des_flow() {
  static const flow::FlowResult r = [] {
    flow::FlowOptions o = flow::preset(gen::Bench::kDes, tech::Node::k45nm);
    o.clock_ns = 2.0;
    o.lib = &des_lib();
    o.check_level = check::Level::kNone;
    return flow::run_flow(o);
  }();
  return r;
}

opt::ParasiticFn placed_fn() {
  return [](const circuit::Netlist& n) {
    return extract::extract_from_placement(n, tech2d());
  };
}

opt::ParasiticFn routed_fn(const route::RouteResult& routes) {
  return [&routes](const circuit::Netlist& n) {
    return extract::extract_from_routes(n, tech2d(), routes);
  };
}

/// The report's analysis against a fresh extraction and STA of `nl`.
void expect_report_is_fresh_analysis(const circuit::Netlist& nl,
                                     const opt::OptReport& rep,
                                     const opt::ParasiticFn& parasitics,
                                     double clock_ns) {
  const extract::Parasitics par = parasitics(nl);
  expect_same_parasitics(rep.parasitics, par);
  expect_same_timing(rep.timing, sta::run_sta(nl, par, at_clock(clock_ns)));
  EXPECT_EQ(bits(rep.wns_ps), bits(rep.timing.wns_ps));
  EXPECT_EQ(rep.met, rep.timing.met());
}

TEST(Opt, ReportCarriesTheFinalAnalysis) {
  const flow::FlowResult& r = des_flow();
  constexpr double kTightNs = 0.6;  // forces upsizing and buffering
  {
    SCOPED_TRACE("pre-route");
    circuit::Netlist nl = r.netlist;
    opt::OptOptions o;
    o.clock_ns = kTightNs;
    o.die = &r.die;
    o.allow_buffering = true;
    o.buffer_net_wl_um = 120.0;
    const opt::OptReport rep = opt::optimize(&nl, des_lib(), placed_fn(), o);
    ASSERT_GT(rep.buffers_added, 0);
    // relegalize_rows shoved cells that were there before the call, so the
    // final placement extraction differs from the last loop analysis.
    int moved = 0;
    for (int i = 0; i < r.netlist.num_instances(); ++i) {
      if (nl.inst(i).dead) continue;
      moved += nl.inst(i).pos != r.netlist.inst(i).pos ? 1 : 0;
    }
    ASSERT_GT(moved, 0);
    expect_report_is_fresh_analysis(nl, rep, placed_fn(), kTightNs);
  }
  {
    SCOPED_TRACE("post-route");
    circuit::Netlist nl = r.netlist;
    opt::OptOptions o;
    o.clock_ns = kTightNs;
    o.die = &r.die;
    o.allow_buffering = false;
    const opt::OptReport rep =
        opt::optimize(&nl, des_lib(), routed_fn(r.routes), o);
    ASSERT_GT(rep.upsized, 0);
    expect_report_is_fresh_analysis(nl, rep, routed_fn(r.routes), kTightNs);
  }
}

TEST(Opt, UnchangedNetlistIsTimedOnce) {
  const flow::FlowResult& r = des_flow();
  // Every analysis calls the ParasiticFn once; an optimizer that re-timed
  // each one would make exactly that many STA runs.
  struct Counted {
    int analyses = 0;
    double sta_runs = 0.0;
    double rounds = 0.0;
    opt::OptReport rep;
  };
  const auto run = [&r](int rounds, double clock_ns) {
    Counted c;
    circuit::Netlist nl = r.netlist;
    opt::OptOptions o;
    o.clock_ns = clock_ns;
    o.rounds = rounds;
    o.die = &r.die;
    o.allow_buffering = false;
    const opt::ParasiticFn routed = routed_fn(r.routes);
    util::MetricsRegistry reg;
    {
      const util::ScopedMetricsSink sink(reg);
      c.rep = opt::optimize(&nl, des_lib(),
                            [&](const circuit::Netlist& n) {
                              ++c.analyses;
                              return routed(n);
                            },
                            o);
    }
    c.sta_runs = reg.counter("sta.runs");
    c.rounds = reg.counter("opt.rounds");
    return c;
  };
  {
    // No round: the fix-up's analysis finds timing met, and the final
    // status re-extracts the same routed parasitics of the same netlist.
    SCOPED_TRACE("rounds = 0, timing met");
    const Counted c = run(0, r.clock_ns);
    ASSERT_TRUE(c.rep.met);
    EXPECT_EQ(c.analyses, 2);
    EXPECT_EQ(c.sta_runs, 1.0);
  }
  {
    // Post-route sizing and recovery at a 1.5 ns clock: the loop ends on a
    // round with no edit, so the fix-up's first analysis and the final
    // status (routed parasitics read no positions) both reuse the last
    // timing. 11 analyses here, 9 of them timed.
    SCOPED_TRACE("post-route sizing");
    constexpr int kRounds = 12;
    const Counted c = run(kRounds, 1.5);
    ASSERT_GT(c.rep.upsized, 0);
    ASSERT_LT(c.rounds, kRounds);
    EXPECT_EQ(c.analyses, 11);
    EXPECT_EQ(c.sta_runs, c.analyses - 2);
  }
}

}  // namespace
}  // namespace m3d
