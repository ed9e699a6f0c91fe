// Table 14: detailed 7nm layout results (same format as Table 13).
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Table 14: detailed layout results, 7nm (percent-of-2D in parens).");
  t.set_header({"circuit", "type", "footprint um2", "#cells", "#buffers",
                "util %", "WL mm", "WNS ps", "total uW", "cell uW", "net uW",
                "leak uW", "routed"});
  for (gen::Bench b : gen::all_benches()) {
    const Cmp c = compare_cached(preset(b, tech::Node::k7nm));
    auto row = [&](const char* type, const flow::FlowResult& m,
                   const flow::FlowResult& base) {
      t.add_row({gen::to_string(b), type,
                 util::strf("%.1f (%.1f)", m.footprint_um2,
                            100.0 * m.footprint_um2 / base.footprint_um2),
                 util::strf("%d", m.cells),
                 util::strf("%d (%.1f)", m.buffers,
                            base.buffers > 0 ? 100.0 * m.buffers / base.buffers
                                             : 100.0),
                 util::strf("%.1f", 100.0 * m.utilization),
                 util::strf("%.4f (%.1f)", m.total_wl_um / 1000.0,
                            100.0 * m.total_wl_um / base.total_wl_um),
                 util::strf("%+.0f", m.wns_ps),
                 util::strf("%.2f (%.1f)", m.total_uw,
                            100.0 * m.total_uw / base.total_uw),
                 util::strf("%.2f", m.cell_uw), util::strf("%.2f", m.net_uw),
                 util::strf("%.3f", m.leak_uw),
                 m.routed ? "yes" : "NO"});
    };
    row("2D", c.flat, c.flat);
    row("3D", c.tmi, c.flat);
    t.add_separator();
  }
  t.print();
  return 0;
}
