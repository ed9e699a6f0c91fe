// Fig 10: local / intermediate / global metal layer usage for LDPC and
// M256 (T-MI designs). The paper shows LDPC using far more global metal.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Fig 10: wirelength by routing level (mm and % of total), 45nm T-MI.\n"
      "Paper: both local and intermediate heavily used; LDPC uses much more\n"
      "global metal than M256/DES.");
  t.set_header({"circuit", "style", "local mm", "intermediate mm", "global mm",
                "local %", "inter %", "global %", "routed"});
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kM256, gen::Bench::kDes}) {
    flow::FlowOptions o = preset(b, tech::Node::k45nm);
    const Cmp base = compare_cached(o);
    o.clock_ns = base.flat.clock_ns;
    for (tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
      flow::FlowOptions run = o;
      run.style = style;
      run.lib = &library(run.node, style);
      const flow::FlowResult r = flow::run_flow(run);
      const auto& wl = r.routes.wl_by_level;
      const double total = r.routes.total_wl_um + 1e-9;
      t.add_row({gen::to_string(b), tech::to_string(style),
                 util::strf("%.3f", wl[0] / 1000.0),
                 util::strf("%.3f", wl[1] / 1000.0),
                 util::strf("%.3f", wl[2] / 1000.0),
                 util::strf("%.1f", 100.0 * wl[0] / total),
                 util::strf("%.1f", 100.0 * wl[1] / total),
                 util::strf("%.1f", 100.0 * wl[2] / total),
                 r.routed ? "yes" : "NO"});
    }
    t.add_separator();
  }
  t.print();
  return 0;
}
