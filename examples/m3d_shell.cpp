// m3d_shell: an interactive command-line driver over the whole library —
// the "EDA tool" face of the reproduction. Reads commands from stdin (or a
// script via `m3d_shell < script.tcl`).
//
//   load_bench <FPU|AES|LDPC|DES|M256> [scale_shift]
//   read_verilog <file>            write_verilog <file>
//   use_style <2D|T-MI|T-MI+M>     use_node <45nm|7nm>
//   synth <clock_ns>               place [utilization]
//   cts                            route
//   optimize                       extract
//   report_timing                  report_power
//   report_design                  report_metrics
//   write_report <file>            write_def <file>
//   write_gds <file>               write_lib <file>
//   help                           quit
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "cells/gds.hpp"
#include "circuit/verilog.hpp"
#include "cts/cts.hpp"
#include "extract/extract.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "flow/warm.hpp"
#include "gen/gen.hpp"
#include "liberty/liberty_writer.hpp"
#include "opt/opt.hpp"
#include "place/def.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"
#include "synth/synth.hpp"
#include "tech/layers.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"

using namespace m3d;

namespace {

struct Session {
  tech::Node node = tech::Node::k45nm;
  tech::Style style = tech::Style::k2D;

  circuit::Netlist nl;
  bool have_design = false;
  double clock_ns = 1.0;
  place::Die die;
  bool placed = false;
  std::optional<route::RouteResult> routes;

  const liberty::Library& active_lib() const {
    const tech::Style lib_style = tech::cell_style(style);
    flow::WarmContext& libs = flow::characterized_libraries();
    if (!libs.warmed(node, lib_style)) {
      std::printf("loading library (store %s)...\n",
                  libs.store()->dir().c_str());
    }
    return libs.library(node, lib_style);
  }

  tech::Tech tech_now() const { return tech::Tech(node, style); }

  extract::Parasitics parasitics() {
    const tech::Tech t = tech_now();
    if (routes.has_value()) {
      return extract::extract_from_routes(nl, t, *routes);
    }
    if (placed) return extract::extract_from_placement(nl, t);
    return synth::wlm_parasitics(
        nl, synth::make_statistical_wlm(nl.total_cell_area_um2() / 0.8, t));
  }
};

void cmd_help() {
  std::printf(
      "commands:\n"
      "  load_bench <FPU|AES|LDPC|DES|M256> [scale_shift]\n"
      "  read_verilog <file> | write_verilog <file>\n"
      "  use_style <2D|T-MI|T-MI+M> | use_node <45nm|7nm>\n"
      "  synth <clock_ns> | place [util] | cts | route | optimize\n"
      "  report_timing | report_power | report_design | report_metrics\n"
      "  write_report <f> | write_def <f> | write_gds <f> | write_lib <f>\n"
      "  help | quit\n");
}

}  // namespace

int main() {
  util::set_default_log_level(util::LogLevel::kWarn);
  Session s;
  std::printf("monolith3d shell — 'help' for commands\n");
  std::string line;
  while (std::printf("m3d> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    if (!(is >> cmd) || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      cmd_help();
    } else if (cmd == "load_bench") {
      std::string name;
      int shift = -1;
      is >> name >> shift;
      bool found = false;
      for (gen::Bench b : gen::all_benches()) {
        if (name == gen::to_string(b)) {
          gen::GenOptions o;
          o.scale_shift = shift >= 0
                              ? shift
                              : flow::preset(b, tech::Node::k45nm).scale_shift;
          s.nl = gen::make_benchmark(b, o);
          s.nl.bind(s.active_lib());
          s.have_design = true;
          s.placed = false;
          s.routes.reset();
          std::printf("loaded %s: %d cells, %d nets\n", s.nl.name.c_str(),
                      s.nl.num_instances(), s.nl.num_nets());
          found = true;
        }
      }
      if (!found) std::printf("unknown benchmark '%s'\n", name.c_str());
    } else if (cmd == "read_verilog") {
      std::string path;
      is >> path;
      circuit::Netlist nl;
      std::string err;
      if (circuit::read_verilog(path, s.active_lib(), &nl, &err)) {
        s.nl = std::move(nl);
        s.have_design = true;
        s.placed = false;
        s.routes.reset();
        std::printf("read %s: %d cells\n", path.c_str(), s.nl.num_instances());
      } else {
        std::printf("error: %s\n", err.c_str());
      }
    } else if (cmd == "write_verilog") {
      std::string path;
      is >> path;
      std::printf("%s\n", s.have_design && circuit::write_verilog(path, s.nl)
                              ? "written" : "failed");
    } else if (cmd == "use_style") {
      std::string v;
      is >> v;
      if (v == "2D") s.style = tech::Style::k2D;
      else if (v == "T-MI") s.style = tech::Style::kTMI;
      else if (v == "T-MI+M") s.style = tech::Style::kTMIPlusM;
      else { std::printf("unknown style\n"); continue; }
      if (s.have_design) s.nl.bind(s.active_lib());
      std::printf("style = %s\n", tech::to_string(s.style));
    } else if (cmd == "use_node") {
      std::string v;
      is >> v;
      s.node = (v == "7nm") ? tech::Node::k7nm : tech::Node::k45nm;
      if (s.have_design) s.nl.bind(s.active_lib());
      std::printf("node = %s\n", tech::to_string(s.node));
    } else if (cmd == "synth") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      is >> s.clock_ns;
      const tech::Tech t = s.tech_now();
      synth::SynthOptions so;
      so.clock_ns = s.clock_ns;
      const auto rep = synth::synthesize(
          &s.nl, s.active_lib(),
          synth::make_statistical_wlm(s.nl.total_cell_area_um2() / 0.8, t), so);
      std::printf("synth: %d cells, %.0f um2, wns(wlm) %+.0f ps\n", rep.cells,
                  rep.cell_area_um2, rep.wns_ps);
    } else if (cmd == "place") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      double util = 0.8;
      is >> util;
      s.die = place::make_die(&s.nl, util, s.tech_now().row_height_um());
      place::place_design(&s.nl, s.die, {});
      s.placed = true;
      s.routes.reset();
      std::printf("placed: die %.1f x %.1f um, hpwl %.3f mm\n",
                  s.die.core.width(), s.die.core.height(),
                  place::total_hpwl_um(s.nl) / 1000.0);
    } else if (cmd == "cts") {
      if (!s.placed) { std::printf("place first\n"); continue; }
      const auto r = cts::build_clock_tree(&s.nl, s.active_lib());
      std::printf("cts: %d sinks, %d buffers, %d levels\n", r.sinks,
                  r.buffers_added, r.levels);
    } else if (cmd == "route") {
      if (!s.placed) { std::printf("place first\n"); continue; }
      const tech::Tech t = s.tech_now();
      s.routes = route::global_route(s.nl, s.die, t, {});
      std::printf("routed: %.3f mm, %ld vias, overflow %d (%s)\n",
                  s.routes->total_wl_um / 1000.0, s.routes->total_vias,
                  s.routes->overflow_edges,
                  s.routes->routed ? "clean" : "OVERFLOW");
    } else if (cmd == "optimize") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      opt::OptOptions oo;
      oo.clock_ns = s.clock_ns;
      oo.allow_buffering = !s.routes.has_value();
      const auto rep = opt::optimize(
          &s.nl, s.active_lib(),
          [&](const circuit::Netlist&) { return s.parasitics(); }, oo);
      std::printf("opt: wns %+.0f ps (%s), +%d/-%d sizes, +%d/-%d bufs\n",
                  rep.wns_ps, rep.met ? "met" : "violated", rep.upsized,
                  rep.downsized, rep.buffers_added, rep.buffers_removed);
    } else if (cmd == "report_timing") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      sta::StaOptions so;
      so.clock_ns = s.clock_ns;
      const auto t = sta::run_sta(s.nl, s.parasitics(), so);
      std::printf("%s", sta::report_critical_path(s.nl, t).c_str());
    } else if (cmd == "report_power") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      sta::StaOptions so;
      so.clock_ns = s.clock_ns;
      const auto par = s.parasitics();
      const auto t = sta::run_sta(s.nl, par, so);
      power::PowerOptions po;
      po.clock_ns = s.clock_ns;
      po.vdd_v = s.active_lib().vdd_v;
      const auto p = power::run_power(s.nl, par, &t, po);
      std::printf(
          "power @ %.3f ns: total %.1f uW = cell %.1f + net %.1f (wire %.1f /"
          " pin %.1f) + leak %.2f\n",
          s.clock_ns, p.total_uw, p.cell_internal_uw, p.net_switching_uw,
          p.wire_uw, p.pin_uw, p.leakage_uw);
    } else if (cmd == "report_design") {
      if (!s.have_design) { std::printf("no design\n"); continue; }
      std::printf(
          "%s: %d cells (%d buffers, %d flops), %d signal nets, area %.0f"
          " um2, style %s @ %s\n",
          s.nl.name.c_str(), s.nl.num_instances(), s.nl.count_buffers(),
          s.nl.count_sequential(), s.nl.num_signal_nets(),
          s.nl.total_cell_area_um2(), tech::to_string(s.style),
          tech::to_string(s.node));
    } else if (cmd == "report_metrics") {
      // Everything the instrumentation collected so far in this session.
      std::printf("%s\n", report::metrics_to_json().dump().c_str());
    } else if (cmd == "write_report") {
      std::string path;
      is >> path;
      if (path.empty()) path = "m3d_metrics.json";
      std::printf("%s\n", report::write_metrics_json(path)
                              ? ("written " + path).c_str() : "failed");
    } else if (cmd == "write_def") {
      std::string path;
      is >> path;
      std::printf("%s\n", s.placed && place::write_def(path, s.nl, s.die)
                              ? "written" : "failed (place first?)");
    } else if (cmd == "write_gds") {
      std::string path;
      is >> path;
      std::printf("%s\n", cells::write_library_gds(path, s.tech_now())
                              ? "written" : "failed");
    } else if (cmd == "write_lib") {
      std::string path;
      is >> path;
      std::printf("%s\n", liberty::write_liberty(path, s.active_lib())
                              ? "written" : "failed");
    } else {
      std::printf("unknown command '%s' ('help' lists commands)\n", cmd.c_str());
    }
  }
  return 0;
}
