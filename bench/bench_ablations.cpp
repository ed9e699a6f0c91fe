// Ablations for the design choices DESIGN.md calls out: router
// rip-up-and-reroute iterations, CTS fanout bound, and the max-transition
// limit driving buffer insertion. Runs on a mid-size DES and on the
// random-logic generator (structure-free control).
#include <cstdio>

#include "cts/cts.hpp"
#include "extract/extract.hpp"
#include "gen/gen.hpp"
#include "flow/warm.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

using namespace m3d;

namespace {

struct Prepared {
  circuit::Netlist nl;
  place::Die die;
};

Prepared prepare(const liberty::Library& lib, const tech::Tech& tch) {
  Prepared p;
  gen::GenOptions o;
  o.scale_shift = 3;
  p.nl = gen::make_ldpc(o);  // the congested benchmark (paper S6)
  p.nl.bind(lib);
  synth::SynthOptions so;
  so.clock_ns = 1.0;
  synth::synthesize(&p.nl, lib,
                    synth::make_statistical_wlm(8e3, tch), so);
  p.die = place::make_die(&p.nl, 0.55, tch.row_height_um());
  place::place_design(&p.nl, p.die, {});
  return p;
}

}  // namespace

int main() {
  const liberty::Library& lib = m3d::flow::characterized_libraries().library(
      tech::Node::k45nm, tech::Style::k2D);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);

  {
    util::Table t(
        "Ablation 1: router rip-up-and-reroute iterations (LDPC at an\n"
        "aggressive 55% utilization, 45nm 2D).");
    t.set_header({"rrr_iters", "WL mm", "overflow edges", "max congestion"});
    Prepared p = prepare(lib, tch);
    for (int iters : {0, 1, 2, 4, 8}) {
      route::RouteOptions ro;
      ro.rrr_iters = iters;
      const auto r = route::global_route(p.nl, p.die, tch, ro);
      t.add_row({util::strf("%d", iters),
                 util::strf("%.3f", r.total_wl_um / 1000.0),
                 util::strf("%d", r.overflow_edges),
                 util::strf("%.2f", r.max_congestion)});
    }
    t.print();
    std::printf("\n");
  }
  {
    util::Table t("Ablation 2: CTS max sinks per buffer (LDPC, 45nm 2D).");
    t.set_header({"max_sinks", "clock buffers", "levels", "clock-net WL mm"});
    for (int fan : {8, 16, 24, 48}) {
      Prepared p = prepare(lib, tch);
      cts::CtsOptions co;
      co.max_sinks_per_buffer = fan;
      const auto r = cts::build_clock_tree(&p.nl, lib, co);
      // Clock wirelength: route and sum the nets driven by clock buffers.
      const auto routes = route::global_route(p.nl, p.die, tch, {});
      double clock_wl = 0.0;
      for (int i = 0; i < p.nl.num_instances(); ++i) {
        const auto& inst = p.nl.inst(i);
        if (inst.dead || !inst.from_optimizer ||
            inst.func != cells::Func::kBuf) {
          continue;
        }
        clock_wl += routes.nets[static_cast<size_t>(inst.out_nets[0])].total_wl();
      }
      t.add_row({util::strf("%d", fan), util::strf("%d", r.buffers_added),
                 util::strf("%d", r.levels),
                 util::strf("%.3f", clock_wl / 1000.0)});
    }
    t.print();
    std::printf("\n");
  }
  {
    util::Table t(
        "Ablation 3: max-transition limit vs buffer/upsize effort\n"
        "(random logic, 10% long wires, 45nm 2D).");
    t.set_header({"max_slew ps", "upsized", "buffers added", "timing met"});
    for (double slew : {120.0, 200.0, 400.0}) {
      gen::RandomLogicOptions ro;
      ro.num_gates = 3000;
      circuit::Netlist nl = gen::make_random_logic(ro);
      nl.bind(lib);
      synth::SynthOptions so;
      so.clock_ns = 200.0;  // loose: isolates slew-driven effort from timing
      synth::synthesize(&nl, lib, synth::make_statistical_wlm(8e3, tch), so);
      const place::Die die = place::make_die(&nl, 0.8, tch.row_height_um());
      place::place_design(&nl, die, {});
      opt::OptOptions oo;
      oo.clock_ns = 200.0;
      oo.max_slew_ps = slew;
      const auto rep = opt::optimize(
          &nl, lib,
          [&](const circuit::Netlist& n) {
            return extract::extract_from_placement(n, tch);
          },
          oo);
      t.add_row({util::strf("%.0f", slew), util::strf("%d", rep.upsized),
                 util::strf("%d", rep.buffers_added),
                 rep.met ? "yes" : "no"});
    }
    t.print();
  }
  std::printf(
      "\nExpected shapes: overflow falls with RRR iterations at slight WL\n"
      "cost; smaller CTS fanout buys more levels/buffers; tighter slew\n"
      "limits force more sizing/buffering.\n");
  return 0;
}
