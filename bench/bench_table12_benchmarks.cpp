// Table 12: benchmark circuits and synthesis results for 45nm and 7nm.
#include <cstdio>

#include "common.hpp"
#include "synth/synth.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  for (tech::Node node : {tech::Node::k45nm, tech::Node::k7nm}) {
    util::Table t(util::strf(
        "Table 12 (%s node): benchmark circuits and synthesis results.\n"
        "Target clock = our tightest closable 2D clock (the paper picks\n"
        "its own absolute targets; sizes are at our reduced default scale).",
        tech::to_string(node)));
    t.set_header({"circuit", "target clk ns", "#cells", "cell area um2",
                  "#nets", "avg fanout", "#DFF", "routed"});
    for (gen::Bench b : gen::all_benches()) {
      flow::FlowOptions o = preset(b, node);
      // Reuse the table 4/7 cached clock, then synthesize standalone for
      // the statistics.
      const Cmp c = compare_cached(o);
      gen::GenOptions go;
      go.scale_shift = o.scale_shift;
      circuit::Netlist nl = gen::make_benchmark(b, go);
      const tech::Tech tch(node, tech::Style::k2D);
      synth::SynthOptions so;
      so.clock_ns = c.flat.clock_ns;
      synth::synthesize(&nl, *o.lib, synth::make_statistical_wlm(
                                         c.flat.footprint_um2, tch),
                        so);
      int live = 0;
      for (int i = 0; i < nl.num_instances(); ++i) {
        if (!nl.inst(i).dead) ++live;
      }
      t.add_row({gen::to_string(b), util::strf("%.2f", c.flat.clock_ns),
                 util::strf("%d", live),
                 util::strf("%.1f", nl.total_cell_area_um2()),
                 util::strf("%d", nl.num_signal_nets()),
                 util::strf("%.2f", nl.average_fanout()),
                 util::strf("%d", nl.count_sequential()), routed_str(c)});
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Paper sizes for reference (45nm): FPU 9.7k / AES 13.9k / LDPC 38.3k /\n"
      "DES 51.2k / M256 202.9k cells, average fanout 2.23-2.40.\n");
  return 0;
}
