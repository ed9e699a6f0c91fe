#include "replay.hpp"

#include <algorithm>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "check/check.hpp"
#include "cts/cts.hpp"
#include "extract/extract.hpp"
#include "gen/gen.hpp"
#include "liberty/characterize.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "synth/wlm.hpp"
#include "tech/tech.hpp"

namespace perfbench {

using namespace m3d;

double SpanRecorder::self_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_s;
}

long SpanRecorder::calls(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.calls;
}

void SpanRecorder::close() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur =
      std::chrono::duration<double>(Clock::now() - open.start).count();
  Totals& t = totals_[open.name];
  t.self_s += dur - open.child_s;
  ++t.calls;
  if (stack_.empty()) {
    root_s_ += dur;
  } else {
    stack_.back().child_s += dur;
  }
}

FlowFigures figures_of(const flow::FlowResult& r) {
  return {r.cells, r.total_wl_um, r.wns_ps, r.total_uw, r.checks.errors()};
}

namespace {

// run_flow's default wire-load model (statistical, core area from a
// pre-bind cell-area estimate, x0.75 for T-MI styles).
synth::Wlm default_wlm(const flow::FlowOptions& opt,
                       const circuit::Netlist& nl, const tech::Tech& tch) {
  double cell_area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead) continue;
    const auto* c = opt.lib->pick(inst.func, inst.drive);
    if (c != nullptr) cell_area += c->area_um2();
  }
  const double core = cell_area / std::max(0.2, opt.target_util);
  const synth::Wlm wlm = synth::make_statistical_wlm(core, tch);
  return tch.is_3d() ? wlm.scaled(0.75) : wlm;
}

}  // namespace

FlowFigures replay_flow(const flow::FlowOptions& opt, SpanRecorder* spans) {
  const liberty::Library& lib = *opt.lib;
  const tech::Tech tch(opt.node, opt.style);

  circuit::Netlist nl = spans->time("gen", [&] {
    gen::GenOptions g;
    g.scale_shift = opt.scale_shift;
    g.seed = opt.seed;
    return gen::make_benchmark(opt.bench, g);
  });
  spans->time("synth", [&] {
    synth::SynthOptions s;
    s.clock_ns = opt.clock_ns;
    synth::synthesize(&nl, lib, default_wlm(opt, nl, tch), s);
  });
  place::Die die = spans->time("place", [&] {
    place::Die d = place::make_die(&nl, opt.target_util, tch.row_height_um());
    place::PlaceOptions p;
    p.target_util = opt.target_util;
    p.seed = opt.seed;
    place::place_design(&nl, d, p);
    return d;
  });
  spans->time("cts", [&] {
    cts::CtsOptions c;
    c.die = &die;
    cts::build_clock_tree(&nl, lib, c);
  });

  opt::OptOptions pre;
  pre.clock_ns = opt.clock_ns;
  pre.die = &die;
  pre.allow_buffering = true;
  pre.buffer_net_wl_um = 120.0;  // 45 nm
  spans->time("opt", [&] {
    opt::optimize(&nl, lib,
                  [&](const circuit::Netlist& n) {
                    return spans->time("extract", [&] {
                      return extract::extract_from_placement(n, tch);
                    });
                  },
                  pre);
  });
  const route::RouteResult routes = spans->time("route", [&] {
    route::RouteOptions r;
    r.seed = opt.seed;
    r.local_blockage_frac = tch.is_3d() ? 0.03 : 0.0;
    return route::global_route(nl, die, tch, r);
  });
  opt::OptOptions post = pre;
  post.allow_buffering = false;
  spans->time("opt", [&] {
    opt::optimize(&nl, lib,
                  [&](const circuit::Netlist& n) {
                    return spans->time("extract", [&] {
                      return extract::extract_from_routes(n, tch, routes);
                    });
                  },
                  post);
  });

  const extract::Parasitics par = spans->time(
      "extract", [&] { return extract::extract_from_routes(nl, tch, routes); });
  const sta::TimingResult timing = spans->time("sta", [&] {
    sta::StaOptions s;
    s.clock_ns = opt.clock_ns;
    return sta::run_sta(nl, par, s);
  });
  const power::PowerResult pw = spans->time("power", [&] {
    power::PowerOptions p;
    p.clock_ns = opt.clock_ns;
    p.vdd_v = lib.vdd_v;
    p.pi_activity = opt.pi_activity;
    p.seq_activity = opt.seq_activity;
    return power::run_power(nl, par, &timing, p);
  });
  const int check_errors = spans->time("check", [&] {
    check::CheckResult cr = check::check_netlist(nl);
    cr.merge(check::check_timing(nl, timing));
    cr.merge(check::check_power(nl, pw));
    cr.merge(check::check_placement(nl, die));
    cr.merge(check::check_routing(nl, routes, tch));
    cr.merge(check::check_library(lib));
    return cr.errors();
  });

  FlowFigures f;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.inst(i).dead) ++f.cells;
  }
  f.wl_um = routes.total_wl_um;
  f.wns_ps = timing.wns_ps;
  f.total_uw = pw.total_uw;
  f.check_errors = check_errors;
  return f;
}

liberty::Library replay_library(tech::Style style, double vdd_v,
                                SpanRecorder* spans, double* cell_max_s) {
  const tech::Tech tch(tech::Node::k45nm, style);
  std::vector<std::pair<cells::Func, int>> jobs;
  for (cells::Func f : cells::all_comb_funcs()) {
    for (int d : cells::drive_options(f)) jobs.emplace_back(f, d);
  }
  for (int d : cells::drive_options(cells::Func::kDff)) {
    jobs.emplace_back(cells::Func::kDff, d);
  }
  liberty::Library lib;
  lib.name = std::string("nangatelite_") + tech::to_string(style) + "_45nm";
  lib.node = tech::Node::k45nm;
  lib.style = style;
  lib.vdd_v = vdd_v;
  *cell_max_s = 0.0;
  for (const auto& [func, drive] : jobs) {
    const auto [spec, layout] = spans->time("cells.layout", [&] {
      cells::CellSpec s = cells::make_spec(func, drive);
      cells::CellLayout l = style == tech::Style::k2D ? cells::layout_2d(s, tch)
                                                      : cells::fold_tmi(s, tch);
      return std::make_pair(std::move(s), std::move(l));
    });
    const double before = spans->self_s("liberty.char");
    lib.add(spans->time("liberty.char", [&] {
      return liberty::characterize_cell(spec, layout, vdd_v);
    }));
    *cell_max_s = std::max(*cell_max_s, spans->self_s("liberty.char") - before);
  }
  return lib;
}

}  // namespace perfbench
