// Figs 3, 8, 10: SVG snapshots — routed LDPC and DES (Fig 3), AES placement
// and routing at 2D vs T-MI relative sizes (Fig 8), and per-level congestion
// heat maps (Fig 10). Written to ./out_figs/.
#include <cstdio>
#include <sys/stat.h>

#include "common.hpp"
#include "util/svg.hpp"

using namespace m3d;
using namespace m3d::bench;

namespace {

void draw_placement(util::SvgWriter* svg, const flow::FlowResult& r) {
  for (int i = 0; i < r.netlist.num_instances(); ++i) {
    const auto& inst = r.netlist.inst(i);
    if (inst.dead || !inst.placed || inst.libcell == nullptr) continue;
    const bool seq = inst.sequential();
    svg->rect(inst.pos.x - inst.libcell->width_um / 2,
              inst.pos.y - inst.libcell->height_um / 2, inst.libcell->width_um,
              inst.libcell->height_um, seq ? "#c2544d" : "#5b8dbf", 0.85);
  }
}

void draw_congestion(util::SvgWriter* svg, const flow::FlowResult& r,
                     int level) {
  const auto& routes = r.routes;
  const double gc = routes.gcell_um;
  for (int j = 0; j < routes.ny; ++j) {
    for (int i = 0; i < routes.nx; ++i) {
      double use = 0.0, cap = 1e-9;
      if (i + 1 < routes.nx) {
        use += routes.usage_h[static_cast<size_t>(level)]
                             [static_cast<size_t>(j * (routes.nx - 1) + i)];
        cap += routes.cap_h[static_cast<size_t>(level)];
      }
      if (j + 1 < routes.ny) {
        use += routes.usage_v[static_cast<size_t>(level)]
                             [static_cast<size_t>(j * routes.nx + i)];
        cap += routes.cap_v[static_cast<size_t>(level)];
      }
      const double ratio = std::min(1.0, use / cap);
      if (ratio <= 0.01) continue;
      const int red = static_cast<int>(40 + 215 * ratio);
      const int green = static_cast<int>(200 - 160 * ratio);
      svg->rect(i * gc, j * gc, gc, gc,
                util::strf("rgb(%d,%d,60)", red, green), 0.9);
    }
  }
}

void save(const util::SvgWriter& svg, const std::string& path) {
  if (svg.save(path)) {
    std::printf("  wrote %s\n", path.c_str());
  } else {
    std::printf("  FAILED to write %s\n", path.c_str());
  }
}

}  // namespace

int main() {
  ::mkdir("out_figs", 0755);
  std::printf("Figs 3/8/10: writing layout snapshots to ./out_figs/\n");

  // Fig 3: LDPC and DES routed (2D) — congestion view plus footprint note.
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kDes, gen::Bench::kAes}) {
    flow::FlowOptions o = preset(b, tech::Node::k45nm);
    const Cmp base = compare_cached(o);
    o.clock_ns = base.flat.clock_ns;
    for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
      flow::FlowOptions run = o;
      run.style = style;
      run.lib = &library(run.node, style);
      const flow::FlowResult r = flow::run_flow(run);
      const char* sname = style == tech::Style::k2D ? "2d" : "tmi";
      {
        util::SvgWriter svg(r.die.core.width(), r.die.core.height(), 700);
        draw_placement(&svg, r);
        save(svg, util::strf("out_figs/%s_%s_placement.svg",
                             gen::to_string(b), sname));
      }
      for (int level = 0; level < route::kNumLevels; ++level) {
        util::SvgWriter svg(r.die.core.width(), r.die.core.height(), 700);
        draw_congestion(&svg, r, level);
        const char* lname =
            level == 0 ? "local" : (level == 1 ? "intermediate" : "global");
        save(svg, util::strf("out_figs/%s_%s_route_%s.svg", gen::to_string(b),
                             sname, lname));
      }
      std::printf("  %s %s: footprint %.0fx%.0f um, wl %.3f mm\n",
                  gen::to_string(b), sname, r.die.core.width(),
                  r.die.core.height(), r.total_wl_um / 1000.0);
    }
  }
  std::printf(
      "\nFig 3/8 claims visible in the SVGs: the T-MI die is 40%% smaller at\n"
      "the same utilization; DES shows tight local clusters while LDPC\n"
      "spreads congestion across the whole core (Fig 10: LDPC leans on\n"
      "intermediate/global layers far more than DES).\n");
  return 0;
}
