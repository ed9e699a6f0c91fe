#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "exec/exec.hpp"
#include "obs/trace.hpp"
#include "sta/cell_tables.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::sta {
namespace {

constexpr double kInf = std::numeric_limits<double>::max() / 4;
constexpr double kPoLoadFf = 2.0;  // assumed load on primary outputs
constexpr int kNoSlot = -1;        // sink slot of a primary output
constexpr size_t kLevelGrain = 32;  // fixed => same chunks at any threads

// Instance and net kinds, resolved once per call.
enum : uint8_t {
  kDead = 1,     // instance removed by optimization
  kSeq = 2,      // sequential instance
  kBound = 4,    // instance with a libcell
  kSource = 8,   // net: primary input or clock
  kClock = 16,   // net: clock
  kPo = 32,      // net: primary output
};

/// The netlist compiled into flat arrays for one timing call. Instance i's
/// input pins are the slots [pin_off[i], pin_off[i+1]) of every per-pin
/// array, its output nets out_net[out_off[i], out_off[i+1]), and its arcs
/// the slots arc_off[i] + out * num_in + in; net n's sinks are
/// [sink_off[n], sink_off[n+1]) in Net::sinks order. Rebuilt on every
/// call: nothing here outlives the netlist edits between calls.
struct Graph {
  explicit Graph(const circuit::Netlist& nl) : cells(nl) {}

  CellTables cells;
  std::vector<uint8_t> inst_kind;
  std::vector<int> pin_off;  // [num_inst + 1]
  std::vector<int> out_off;  // [num_inst + 1]
  std::vector<int> arc_off;  // [num_inst + 1]
  std::vector<circuit::NetId> pin_net;  // by pin slot: Instance::in_nets
  std::vector<circuit::NetId> out_net;  // Instance::out_nets
  std::vector<uint8_t> net_kind;
  std::vector<int> sink_off;  // [num_nets + 1]
  std::vector<circuit::InstId> sink_inst;  // kInvalid: primary output
  std::vector<int> sink_slot;              // kNoSlot: primary output
  std::vector<double> sink_cap_ff;         // kPoLoadFf: primary output
  std::vector<double> sink_delay_ps;       // net_delay_ps to the sink
  /// By net: wire cap plus every sink's cap, summed in sink order.
  std::vector<double> load_ff;
  /// Live instances Kahn's algorithm ordered (Netlist::topo_order's set).
  size_t num_ordered = 0;
  /// Timed instances (combinational, with a libcell) bucketed by level:
  /// level l is level_inst[level_off[l], level_off[l+1]), in topological
  /// order within the level.
  std::vector<int> level_off;
  std::vector<circuit::InstId> level_inst;

  bool is(circuit::InstId i, uint8_t kind) const {
    return (inst_kind[static_cast<size_t>(i)] & kind) != 0;
  }
  /// Combinational and bound: propagated level by level.
  bool timed(circuit::InstId i) const {
    return (inst_kind[static_cast<size_t>(i)] & (kSeq | kBound)) == kBound;
  }
  /// Live, sequential and bound: a timing start and end point.
  bool flop(circuit::InstId i) const {
    return (inst_kind[static_cast<size_t>(i)] & (kDead | kSeq | kBound)) ==
           (kSeq | kBound);
  }
  size_t num_levels() const { return level_off.size() - 1; }
  const circuit::InstId* level(size_t l) const {
    return level_inst.data() + level_off[l];
  }
  size_t level_size(size_t l) const {
    return static_cast<size_t>(level_off[l + 1] - level_off[l]);
  }
};

/// Kahn's algorithm with Netlist::topo_order's queue discipline (the same
/// order), fixing each instance's level as it leaves the queue, when all
/// of its combinational drivers already have. Levels follow topo_order's
/// edge rule: only combinational drivers count, flops and primary inputs
/// are sources.
void levelize(const std::vector<circuit::InstId>& comb_driver, Graph* g) {
  const size_t num_inst = g->inst_kind.size();
  std::vector<int> pending(num_inst, 0);
  std::vector<int> level(num_inst, 0);
  std::vector<circuit::InstId> order;
  order.reserve(num_inst);
  for (circuit::InstId i = 0; i < static_cast<circuit::InstId>(num_inst); ++i) {
    if (g->is(i, kDead)) continue;
    int deps = 0;
    if (!g->is(i, kSeq)) {
      for (int p = g->pin_off[static_cast<size_t>(i)];
           p < g->pin_off[static_cast<size_t>(i) + 1]; ++p) {
        const circuit::NetId in = g->pin_net[static_cast<size_t>(p)];
        deps += comb_driver[static_cast<size_t>(in)] != circuit::kInvalid ? 1 : 0;
      }
    }
    pending[static_cast<size_t>(i)] = deps;
    if (deps == 0) order.push_back(i);
  }
  size_t num_levels = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    const circuit::InstId id = order[head];
    if (g->is(id, kSeq)) continue;  // level 0; flops release no one
    int lv = 0;
    for (int p = g->pin_off[static_cast<size_t>(id)];
         p < g->pin_off[static_cast<size_t>(id) + 1]; ++p) {
      const circuit::InstId d =
          comb_driver[static_cast<size_t>(g->pin_net[static_cast<size_t>(p)])];
      if (d != circuit::kInvalid) {
        lv = std::max(lv, level[static_cast<size_t>(d)] + 1);
      }
    }
    level[static_cast<size_t>(id)] = lv;
    if (g->is(id, kBound)) {
      num_levels = std::max(num_levels, static_cast<size_t>(lv) + 1);
    }
    for (int o = g->out_off[static_cast<size_t>(id)];
         o < g->out_off[static_cast<size_t>(id) + 1]; ++o) {
      const size_t out = static_cast<size_t>(g->out_net[static_cast<size_t>(o)]);
      for (int k = g->sink_off[out]; k < g->sink_off[out + 1]; ++k) {
        const circuit::InstId si = g->sink_inst[static_cast<size_t>(k)];
        if (si == circuit::kInvalid || g->is(si, kDead | kSeq)) continue;
        if (--pending[static_cast<size_t>(si)] == 0) order.push_back(si);
      }
    }
  }
  g->num_ordered = order.size();

  // Stable counting sort of the timed instances by level.
  g->level_off.assign(num_levels + 1, 0);
  for (circuit::InstId id : order) {
    if (!g->timed(id)) continue;
    ++g->level_off[static_cast<size_t>(level[static_cast<size_t>(id)]) + 1];
  }
  for (size_t l = 0; l < num_levels; ++l) g->level_off[l + 1] += g->level_off[l];
  g->level_inst.resize(static_cast<size_t>(g->level_off[num_levels]));
  std::vector<int> cursor(g->level_off.begin(), g->level_off.end() - 1);
  for (circuit::InstId id : order) {
    if (!g->timed(id)) continue;
    const size_t lv = static_cast<size_t>(level[static_cast<size_t>(id)]);
    g->level_inst[static_cast<size_t>(cursor[lv]++)] = id;
  }
}

Graph compile(const circuit::Netlist& nl, const extract::Parasitics& par) {
  const size_t num_inst = static_cast<size_t>(nl.num_instances());
  const size_t num_nets = static_cast<size_t>(nl.num_nets());
  assert(par.size() == num_nets);
  Graph g(nl);
  g.inst_kind.resize(num_inst);
  g.pin_off.assign(num_inst + 1, 0);
  g.out_off.assign(num_inst + 1, 0);
  g.arc_off.assign(num_inst + 1, 0);
  for (size_t i = 0; i < num_inst; ++i) {
    const circuit::Instance& inst = nl.inst(static_cast<circuit::InstId>(i));
    const size_t nin = inst.in_nets.size();
    assert(inst.libcell == nullptr ||
           g.cells.of(static_cast<circuit::InstId>(i))->num_in == nin);
    g.inst_kind[i] = static_cast<uint8_t>((inst.dead ? kDead : 0) |
                                          (inst.sequential() ? kSeq : 0) |
                                          (inst.libcell != nullptr ? kBound : 0));
    g.pin_off[i + 1] = g.pin_off[i] + static_cast<int>(nin);
    g.out_off[i + 1] = g.out_off[i] + static_cast<int>(inst.out_nets.size());
    g.arc_off[i + 1] = g.arc_off[i] + static_cast<int>(nin * inst.out_nets.size());
    g.pin_net.insert(g.pin_net.end(), inst.in_nets.begin(), inst.in_nets.end());
    g.out_net.insert(g.out_net.end(), inst.out_nets.begin(), inst.out_nets.end());
  }
  g.net_kind.resize(num_nets);
  g.sink_off.assign(num_nets + 1, 0);
  std::vector<circuit::InstId> comb_driver(num_nets, circuit::kInvalid);
  for (size_t n = 0; n < num_nets; ++n) {
    const circuit::Net& net = nl.net(static_cast<circuit::NetId>(n));
    g.net_kind[n] = static_cast<uint8_t>(
        (net.is_primary_input || net.is_clock ? kSource : 0) |
        (net.is_clock ? kClock : 0) | (net.is_primary_output ? kPo : 0));
    g.sink_off[n + 1] = g.sink_off[n] + static_cast<int>(net.sinks.size());
    const circuit::InstId d = net.driver.inst;
    if (d != circuit::kInvalid && !g.is(d, kSeq)) comb_driver[n] = d;
  }
  const size_t num_sinks = static_cast<size_t>(g.sink_off[num_nets]);
  g.sink_inst.resize(num_sinks);
  g.sink_slot.resize(num_sinks);
  g.sink_cap_ff.resize(num_sinks);
  g.sink_delay_ps.resize(num_sinks);
  g.load_ff.resize(num_nets);
  // Each net writes only its own sink range and load slot.
  exec::parallel_for(num_nets, [&](size_t nb, size_t ne) {
    for (size_t n = nb; n < ne; ++n) {
      const auto& sinks = nl.net(static_cast<circuit::NetId>(n)).sinks;
      const extract::NetParasitics& p = par[n];
      const size_t base = static_cast<size_t>(g.sink_off[n]);
      double load = p.wire_cap_ff;
      for (size_t k = 0; k < sinks.size(); ++k) {
        const circuit::PinRef& s = sinks[k];
        const bool po = s.inst == circuit::kInvalid;
        const double cap = po ? kPoLoadFf : g.cells.pin_cap_ff(s.inst, s.pin);
        g.sink_inst[base + k] = s.inst;
        g.sink_slot[base + k] =
            po ? kNoSlot : g.pin_off[static_cast<size_t>(s.inst)] + s.pin;
        g.sink_cap_ff[base + k] = cap;
        g.sink_delay_ps[base + k] = net_delay_ps(p, k, cap);
        load += cap;
      }
      g.load_ff[n] = load;
    }
  });
  levelize(comb_driver, &g);
  return g;
}

}  // namespace

double net_delay_ps(const extract::NetParasitics& par, size_t sink_idx,
                    double sink_pin_cap_ff) {
  // Elmore with the wire cap split around the sink resistance.
  return par.sink_res(sink_idx) * (0.5 * par.wire_cap_ff + sink_pin_cap_ff);
}

// The passes below fold in the same order as a per-instance sweep over
// Net::sinks and the cell's pins: every load, max over input arcs and min
// over sinks and outputs visits its operands in that order, so the flat
// arrays change where values live, never how they combine.
TimingResult run_sta(const circuit::Netlist& nl, const extract::Parasitics& par,
                     const StaOptions& opt) {
  const obs::Span span("sta.run");
  util::count("sta.runs");
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const double clock_ps = opt.clock_ns * 1000.0;

  Graph g = compile(nl, par);
  TimingResult r;
  r.arrival_ps.assign(static_cast<size_t>(num_nets), 0.0);
  r.slew_ps.assign(static_cast<size_t>(num_nets), kInputSlewPs);
  r.required_ps.assign(static_cast<size_t>(num_nets), kInf);
  r.inst_slack_ps.assign(static_cast<size_t>(num_inst), kInf);
  r.load_ff = std::move(g.load_ff);

  // Arrival/slew/required at each instance input pin, and the delay of
  // each arc as the forward pass evaluated it.
  const size_t num_pins = g.pin_net.size();
  std::vector<double> arr_in(num_pins, 0.0);
  std::vector<double> slew_in(num_pins, kInputSlewPs);
  std::vector<double> req_in(num_pins, kInf);
  std::vector<double> arc_delay(static_cast<size_t>(g.arc_off.back()), 0.0);

  const double k2 = kSlewDegradeK * kSlewDegradeK;
  auto propagate_net = [&](circuit::NetId n) {
    const double arr = r.arrival_ps[static_cast<size_t>(n)];
    const double sl = r.slew_ps[static_cast<size_t>(n)];
    for (int k = g.sink_off[static_cast<size_t>(n)];
         k < g.sink_off[static_cast<size_t>(n) + 1]; ++k) {
      const int slot = g.sink_slot[static_cast<size_t>(k)];
      if (slot == kNoSlot) continue;
      const double nd = g.sink_delay_ps[static_cast<size_t>(k)];
      arr_in[static_cast<size_t>(slot)] = arr + nd;
      slew_in[static_cast<size_t>(slot)] = std::sqrt(sl * sl + k2 * nd * nd);
    }
  };

  // Sources: primary-input nets and DFF outputs.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    const uint8_t kind = g.net_kind[static_cast<size_t>(n)];
    if ((kind & kSource) == 0) continue;
    r.arrival_ps[static_cast<size_t>(n)] = 0.0;
    r.slew_ps[static_cast<size_t>(n)] =
        (kind & kClock) != 0 ? kClockSlewPs : kInputSlewPs;
    propagate_net(n);
  }
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    if (!g.flop(i)) continue;
    const circuit::NetId q =
        g.out_net[static_cast<size_t>(g.out_off[static_cast<size_t>(i)])];
    const liberty::TimingArc* arc = g.cells.of(i)->ck_q;
    const double load = r.load_ff[static_cast<size_t>(q)];
    r.arrival_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_delay(kClockSlewPs, load) : 0.0;
    r.slew_ps[static_cast<size_t>(q)] =
        arc != nullptr ? arc->worst_slew(kClockSlewPs, load) : kClockSlewPs;
    propagate_net(q);
  }

  // Forward pass over combinational instances, one level at a time. Every
  // value an instance reads (its arr_in/slew_in, written by its drivers'
  // propagate_net) is finalized by the barrier between levels. Within a
  // level all writes are disjoint — an instance touches only its own
  // output nets' arrival/slew, its own arc delays and its sink pins'
  // arr_in/slew_in, each of which has exactly one driver — so the chunks
  // can run concurrently and the result is bit-identical to serial.
  util::count("sta.arrivals_propagated", static_cast<double>(g.num_ordered));
  util::set_gauge("sta.levels", static_cast<double>(g.num_levels()));
  for (size_t l = 0; l < g.num_levels(); ++l) {
    const circuit::InstId* bucket = g.level(l);
    exec::parallel_for(
        g.level_size(l),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const size_t id = static_cast<size_t>(bucket[k]);
            const CellTable& cell = *g.cells.of(bucket[k]);
            const size_t pin0 = static_cast<size_t>(g.pin_off[id]);
            const size_t nin = static_cast<size_t>(g.pin_off[id + 1]) - pin0;
            const size_t out0 = static_cast<size_t>(g.out_off[id]);
            const size_t nout = static_cast<size_t>(g.out_off[id + 1]) - out0;
            double* delay = arc_delay.data() + g.arc_off[id];
            for (size_t o = 0; o < nout; ++o) {
              const circuit::NetId out = g.out_net[out0 + o];
              const double load = r.load_ff[static_cast<size_t>(out)];
              double arr = 0.0, slew = kInputSlewPs;
              for (size_t p = 0; p < nin; ++p) {
                const liberty::TimingArc* arc = cell.arc(p, o);
                if (arc == nullptr) continue;
                const double in_slew = slew_in[pin0 + p];
                const double d = arc->worst_delay(in_slew, load);
                delay[o * nin + p] = d;
                const double a = arr_in[pin0 + p] + d;
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
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    if (!g.flop(i)) continue;
    // D pin is input 0 of the DFF.
    const size_t d_pin = static_cast<size_t>(g.pin_off[static_cast<size_t>(i)]);
    const double req = clock_ps - nl.inst(i).libcell->setup_ps;
    req_in[d_pin] = req;
    note_endpoint(arr_in[d_pin], req, g.pin_net[d_pin]);
  }
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if ((g.net_kind[static_cast<size_t>(n)] & kPo) == 0) continue;
    note_endpoint(r.arrival_ps[static_cast<size_t>(n)], clock_ps, n);
  }
  if (r.wns_ps >= kInf / 2) r.wns_ps = clock_ps;  // no endpoints

  // Required at a net's driver pin: min over its sinks' required times
  // less their net delays, starting from the primary-output requirement.
  auto net_required = [&](circuit::NetId n) {
    double req = (g.net_kind[static_cast<size_t>(n)] & kPo) != 0 ? clock_ps : kInf;
    for (int k = g.sink_off[static_cast<size_t>(n)];
         k < g.sink_off[static_cast<size_t>(n) + 1]; ++k) {
      const int slot = g.sink_slot[static_cast<size_t>(k)];
      if (slot == kNoSlot) continue;
      req = std::min(req, req_in[static_cast<size_t>(slot)] -
                              g.sink_delay_ps[static_cast<size_t>(k)]);
    }
    return req;
  };

  // Backward pass: required time at each net's driver pin. Levels run
  // highest-first; an instance reads req_in of its sinks (all at strictly
  // higher levels, or DFF D pins pre-set above) and writes only its own
  // output nets' required_ps and its own req_in entries, so within a level
  // the chunks are independent and the result matches the serial reverse
  // topological sweep bit for bit. Arc delays are the forward pass's: the
  // same arc at the same input slew and load.
  for (size_t l = g.num_levels(); l-- > 0;) {
    const circuit::InstId* bucket = g.level(l);
    exec::parallel_for(
        g.level_size(l),
        [&](size_t kb, size_t ke) {
          for (size_t k = kb; k < ke; ++k) {
            const size_t id = static_cast<size_t>(bucket[k]);
            const CellTable& cell = *g.cells.of(bucket[k]);
            const size_t pin0 = static_cast<size_t>(g.pin_off[id]);
            const size_t nin = static_cast<size_t>(g.pin_off[id + 1]) - pin0;
            const size_t out0 = static_cast<size_t>(g.out_off[id]);
            const size_t nout = static_cast<size_t>(g.out_off[id + 1]) - out0;
            const double* delay = arc_delay.data() + g.arc_off[id];
            for (size_t o = 0; o < nout; ++o) {
              const circuit::NetId out = g.out_net[out0 + o];
              const double req = net_required(out);
              r.required_ps[static_cast<size_t>(out)] = req;
              // Push through the cell to its input pins.
              for (size_t p = 0; p < nin; ++p) {
                if (cell.arc(p, o) == nullptr) continue;
                req_in[pin0 + p] = std::min(req_in[pin0 + p], req - delay[o * nin + p]);
              }
            }
          }
        },
        kLevelGrain);
  }
  // Required at source nets (DFF outputs / PIs) for completeness.
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if (r.required_ps[static_cast<size_t>(n)] < kInf) continue;
    r.required_ps[static_cast<size_t>(n)] = net_required(n);
  }

  // Per-instance slack.
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    if ((g.inst_kind[static_cast<size_t>(i)] & (kDead | kBound)) != kBound) continue;
    double slack = kInf;
    for (int o = g.out_off[static_cast<size_t>(i)];
         o < g.out_off[static_cast<size_t>(i) + 1]; ++o) {
      const size_t out = static_cast<size_t>(g.out_net[static_cast<size_t>(o)]);
      slack = std::min(slack, r.required_ps[out] - r.arrival_ps[out]);
    }
    r.inst_slack_ps[static_cast<size_t>(i)] = slack;
  }
  return r;
}

HoldResult run_hold_check(const circuit::Netlist& nl,
                          const extract::Parasitics& par) {
  const int num_nets = nl.num_nets();
  const int num_inst = nl.num_instances();
  const Graph g = compile(nl, par);
  // Hold loads count only bound instance pins: no primary-output load.
  std::vector<double> load(static_cast<size_t>(num_nets), 0.0);
  for (size_t n = 0; n < static_cast<size_t>(num_nets); ++n) {
    double l = par[n].wire_cap_ff;
    for (int k = g.sink_off[n]; k < g.sink_off[n + 1]; ++k) {
      const circuit::InstId si = g.sink_inst[static_cast<size_t>(k)];
      if (si == circuit::kInvalid || !g.is(si, kBound)) continue;
      l += g.sink_cap_ff[static_cast<size_t>(k)];
    }
    load[n] = l;
  }
  // Earliest arrival per net driver pin and per instance input pin; min
  // over arcs with *min* table lookups (min over rise/fall).
  std::vector<double> early(static_cast<size_t>(num_nets), 0.0);
  std::vector<double> early_in(g.pin_net.size(), 0.0);
  auto push = [&](circuit::NetId n) {
    for (int k = g.sink_off[static_cast<size_t>(n)];
         k < g.sink_off[static_cast<size_t>(n) + 1]; ++k) {
      const int slot = g.sink_slot[static_cast<size_t>(k)];
      if (slot == kNoSlot) continue;
      early_in[static_cast<size_t>(slot)] =
          early[static_cast<size_t>(n)] + g.sink_delay_ps[static_cast<size_t>(k)];
    }
  };
  // Primary inputs are externally timed: their paths cannot create hold
  // violations at internal flops, so they carry a huge early arrival.
  constexpr double kExternallyTimed = 1e7;
  for (circuit::NetId n = 0; n < num_nets; ++n) {
    if ((g.net_kind[static_cast<size_t>(n)] & kSource) == 0) continue;
    early[static_cast<size_t>(n)] = kExternallyTimed;
    push(n);
  }
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    if (!g.flop(i)) continue;
    const circuit::NetId q =
        g.out_net[static_cast<size_t>(g.out_off[static_cast<size_t>(i)])];
    const liberty::TimingArc* arc = g.cells.of(i)->ck_q;
    double d = 0.0;
    if (arc != nullptr) {
      d = std::min(arc->delay[0].at(kClockSlewPs, load[static_cast<size_t>(q)]),
                   arc->delay[1].at(kClockSlewPs, load[static_cast<size_t>(q)]));
    }
    early[static_cast<size_t>(q)] = d;
    push(q);
  }
  // Levels in order are a topological order of the timed instances.
  for (const circuit::InstId inst : g.level_inst) {
    const size_t id = static_cast<size_t>(inst);
    const CellTable& cell = *g.cells.of(inst);
    const size_t pin0 = static_cast<size_t>(g.pin_off[id]);
    const size_t nin = static_cast<size_t>(g.pin_off[id + 1]) - pin0;
    const size_t out0 = static_cast<size_t>(g.out_off[id]);
    const size_t nout = static_cast<size_t>(g.out_off[id + 1]) - out0;
    for (size_t o = 0; o < nout; ++o) {
      const circuit::NetId out = g.out_net[out0 + o];
      double best = std::numeric_limits<double>::max();
      for (size_t p = 0; p < nin; ++p) {
        const liberty::TimingArc* arc = cell.arc(p, o);
        if (arc == nullptr) continue;
        const double d =
            std::min(arc->delay[0].at(kInputSlewPs,
                                      load[static_cast<size_t>(out)]),
                     arc->delay[1].at(kInputSlewPs,
                                      load[static_cast<size_t>(out)]));
        best = std::min(best, early_in[pin0 + p] + d);
      }
      early[static_cast<size_t>(out)] =
          best == std::numeric_limits<double>::max() ? 0.0 : best;
      push(out);
    }
  }
  HoldResult res;
  res.worst_slack_ps = std::numeric_limits<double>::max();
  for (circuit::InstId i = 0; i < num_inst; ++i) {
    if (!g.flop(i)) continue;
    const double arr = early_in[static_cast<size_t>(g.pin_off[static_cast<size_t>(i)])];
    if (arr > kExternallyTimed / 2) continue;  // PI-fed: externally timed
    const double slack = arr - nl.inst(i).libcell->hold_ps;
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
