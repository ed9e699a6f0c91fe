#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "exec/exec.hpp"
#include "obs/trace.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::sta {
namespace {

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

}  // namespace

double net_delay_ps(const extract::NetParasitics& par, size_t sink_idx,
                    double sink_pin_cap_ff) {
  // Elmore with the wire cap split around the sink resistance.
  return par.sink_res(sink_idx) * (0.5 * par.wire_cap_ff + sink_pin_cap_ff);
}

TimingResult run_sta(const circuit::Netlist& nl, const extract::Parasitics& par,
                     const StaOptions& opt) {
  const obs::Span span("sta.run");
  util::count("sta.runs");
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const double clock_ps = opt.clock_ns * 1000.0;
  assert(static_cast<int>(par.size()) == num_nets);

  TimingResult r;
  r.arrival_ps.assign(static_cast<size_t>(num_nets), 0.0);
  r.slew_ps.assign(static_cast<size_t>(num_nets), opt.primary_input_slew_ps);
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
    slew_in[static_cast<size_t>(i)].assign(nin, opt.primary_input_slew_ps);
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
          std::sqrt(sl * sl + opt.slew_degrade_k * opt.slew_degrade_k * elmore * elmore);
    }
  };

  // Sources: primary-input nets and DFF outputs.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_primary_input || net.is_clock) {
      r.arrival_ps[static_cast<size_t>(n)] = 0.0;
      r.slew_ps[static_cast<size_t>(n)] =
          net.is_clock ? opt.clock_slew_ps : opt.primary_input_slew_ps;
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
        arc != nullptr ? arc->worst_delay(opt.clock_slew_ps, load) : 0.0;
    r.slew_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_slew(opt.clock_slew_ps, load) : opt.clock_slew_ps;
    propagate_net(q);
  }

  // Forward pass over combinational instances, one topological level at a
  // time. Levels use the same edge rule as topo_order (combinational
  // drivers only), so every value an instance reads (its arr_in/slew_in,
  // written by its drivers' propagate_net) is finalized by the barrier
  // between levels. Within a level all writes are disjoint — an instance
  // touches only its own output nets' arrival/slew and its sink pins'
  // arr_in/slew_in, each of which has exactly one driver — so the chunks
  // can run concurrently and the result is bit-identical to serial.
  const std::vector<circuit::InstId> order = nl.topo_order();
  util::count("sta.arrivals_propagated", static_cast<double>(order.size()));
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
  util::set_gauge("sta.levels", static_cast<double>(levels.size()));
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
              double arr = 0.0, slew = opt.primary_input_slew_ps;
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

  // Backward pass: required time at each net's driver pin. Levels run
  // highest-first; an instance reads req_in of its sinks (all at strictly
  // higher levels, or DFF D pins pre-set above) and writes only its own
  // output nets' required_ps and its own req_in entries, so within a level
  // the chunks are independent and the result matches the serial reverse
  // topological sweep bit for bit.
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

HoldResult run_hold_check(const circuit::Netlist& nl,
                          const extract::Parasitics& par,
                          const StaOptions& opt) {
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  // Earliest arrival per net driver pin; min over arcs with *min* table
  // lookups (we reuse the NLDM tables; min over rise/fall).
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
  // Primary inputs are externally timed: their paths cannot create hold
  // violations at internal flops, so they carry a huge early arrival.
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
      d = std::min(arc->delay[0].at(opt.clock_slew_ps, load[static_cast<size_t>(q)]),
                   arc->delay[1].at(opt.clock_slew_ps, load[static_cast<size_t>(q)]));
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
            std::min(arc->delay[0].at(opt.primary_input_slew_ps,
                                      load[static_cast<size_t>(out)]),
                     arc->delay[1].at(opt.primary_input_slew_ps,
                                      load[static_cast<size_t>(out)]));
        best = std::min(best, early_in[static_cast<size_t>(id)][p] + d);
      }
      early[static_cast<size_t>(out)] =
          best == std::numeric_limits<double>::max() ? 0.0 : best;
      push(out);
    }
  }
  HoldResult res;
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

std::string report_critical_path(const circuit::Netlist& nl,
                                 const TimingResult& timing) {
  std::string out = util::strf("critical path: %.1f ps, WNS %+.1f ps\n",
                               timing.critical_path_ps, timing.wns_ps);
  circuit::NetId n = timing.critical_endpoint;
  int hops = 0;
  while (n != circuit::kInvalid && hops++ < 64) {
    const circuit::Net& net = nl.net(n);
    out += util::strf("  net %-20s arr=%8.1f slew=%6.1f\n", net.name.c_str(),
                      timing.arrival_ps[static_cast<size_t>(n)],
                      timing.slew_ps[static_cast<size_t>(n)]);
    if (net.driver.inst == circuit::kInvalid) break;
    const circuit::Instance& d = nl.inst(net.driver.inst);
    if (d.sequential()) break;
    // Walk to the input with the latest arrival.
    circuit::NetId best = circuit::kInvalid;
    double best_arr = -1.0;
    for (circuit::NetId in : d.in_nets) {
      if (timing.arrival_ps[static_cast<size_t>(in)] > best_arr) {
        best_arr = timing.arrival_ps[static_cast<size_t>(in)];
        best = in;
      }
    }
    n = best;
  }
  return out;
}

}  // namespace m3d::sta
