#include "gmi/gmi.hpp"

#include <cassert>

#include "cts/cts.hpp"
#include "extract/extract.hpp"
#include "opt/opt.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"

namespace m3d::gmi {

flow::FlowResult run_gmi_flow(const flow::FlowOptions& opt, GmiExtra* extra) {
  assert(opt.lib != nullptr && opt.clock_ns > 0.0);
  // Planar cells, but the routing sees the richer monolithic stack (a
  // stand-in for each tier's own local metal).
  const tech::Tech cell_tech(opt.node, tech::Style::k2D);
  tech::Tech route_tech(opt.node, tech::Style::kTMI);

  flow::FlowResult res;
  res.style = tech::Style::kTMI;  // reported as a 3D style
  res.clock_ns = opt.clock_ns;

  gen::GenOptions gopt;
  gopt.scale_shift = opt.scale_shift;
  gopt.seed = opt.seed;
  res.netlist = gen::make_benchmark(opt.bench, gopt);
  circuit::Netlist& nl = res.netlist;
  res.bench_name = nl.name + "-GMI";

  // Synthesis: G-MI wires are shorter than 2D (halved footprint), though
  // less so than T-MI; scale the statistical WLM accordingly.
  double cell_area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto* c = opt.lib->pick(nl.inst(i).func, nl.inst(i).drive);
    if (c != nullptr) cell_area += c->area_um2();
  }
  synth::Wlm wlm = synth::make_statistical_wlm(
      cell_area / std::max(0.2, opt.target_util) / 2.0, cell_tech);
  wlm = wlm.scaled(1.0);  // the halved-area estimate already shortens it
  synth::SynthOptions sopt;
  sopt.clock_ns = opt.clock_ns;
  synth::synthesize(&nl, *opt.lib, wlm, sopt);

  // Tier assignment by min-cut.
  GmiExtra local;
  GmiExtra& ex = extra != nullptr ? *extra : local;
  ex.partition = partition_tiers(nl);
  ex.routing_mivs = ex.partition.cut_nets;

  // Two tiers: half the core area, interleaved half-height row lanes.
  res.die = place::make_die(&nl, opt.target_util * 2.0,
                            cell_tech.row_height_um() / 2.0);
  place::PlaceOptions popt;
  popt.seed = opt.seed;
  place::place_design(&nl, res.die, popt);
  cts::build_clock_tree(&nl, *opt.lib);

  opt::OptOptions oopt;
  oopt.clock_ns = opt.clock_ns;
  opt::optimize(&nl, *opt.lib,
                [&](const circuit::Netlist& n) {
                  return extract::extract_from_placement(n, route_tech);
                },
                oopt);

  route::RouteOptions ropt;
  ropt.seed = opt.seed;
  res.routes = route::global_route(nl, res.die, route_tech, ropt);

  // Extraction, with one MIV on every tier-crossing net.
  const auto add_mivs = [&](extract::Parasitics par) {
    const auto& miv = route_tech.cut(route_tech.miv_cut_index());
    for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
      const auto& net = nl.net(n);
      if (net.is_clock || net.sinks.empty()) continue;
      bool t0 = false, t1 = false;
      auto mark = [&](circuit::InstId i) {
        if (i == circuit::kInvalid ||
            i >= static_cast<int>(ex.partition.tier_of.size())) {
          return;
        }
        const int t = ex.partition.tier_of[static_cast<size_t>(i)];
        if (t == 0) t0 = true;
        if (t == 1) t1 = true;
      };
      mark(net.driver.inst);
      for (const auto& s : net.sinks) mark(s.inst);
      if (t0 && t1) {
        par[static_cast<size_t>(n)].wire_cap_ff += miv.c_ff;
        par[static_cast<size_t>(n)].wire_res_kohm += miv.r_kohm;
      }
    }
    return par;
  };

  opt::OptOptions oopt2 = oopt;
  oopt2.allow_buffering = false;
  opt::optimize(&nl, *opt.lib,
                [&](const circuit::Netlist& n) {
                  return add_mivs(extract::extract_from_routes(n, route_tech,
                                                               res.routes));
                },
                oopt2);

  const auto par = add_mivs(extract::extract_from_routes(nl, route_tech, res.routes));
  sta::StaOptions sta_opt;
  sta_opt.clock_ns = opt.clock_ns;
  const auto timing = sta::run_sta(nl, par, sta_opt);
  power::PowerOptions pw;
  pw.clock_ns = opt.clock_ns;
  pw.vdd_v = opt.lib->vdd_v;
  pw.pi_activity = opt.pi_activity;
  pw.seq_activity = opt.seq_activity;
  const auto power = power::run_power(nl, par, &timing, pw);

  res.footprint_um2 = res.die.core.area();
  res.cells = 0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.inst(i).dead) ++res.cells;
  }
  res.buffers = nl.count_buffers();
  res.utilization = place::utilization(nl, res.die) / 2.0;  // per tier
  res.total_wl_um = res.routes.total_wl_um;
  res.wns_ps = timing.wns_ps;
  res.timing_met = timing.met();
  res.routed = res.routes.routed;
  res.total_uw = power.total_uw;
  res.cell_uw = power.cell_internal_uw;
  res.net_uw = power.net_switching_uw;
  res.leak_uw = power.leakage_uw;
  res.wire_uw = power.wire_uw;
  res.pin_uw = power.pin_uw;
  res.wire_cap_pf = power.wire_cap_pf;
  res.pin_cap_pf = power.pin_cap_pf;
  res.longest_path_ns = timing.critical_path_ps / 1000.0;
  util::info(util::strf("gmi %s: wl=%.3fmm wns=%+.0fps P=%.1fuW mivs=%d (%s)",
                        res.bench_name.c_str(), res.total_wl_um / 1000.0,
                        res.wns_ps, res.total_uw, ex.routing_mivs,
                        res.timing_met ? "met" : "VIOLATED"));
  return res;
}

}  // namespace m3d::gmi
