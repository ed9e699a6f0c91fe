// Table 4: 45nm full-flow iso-performance comparison — percentage change of
// T-MI over 2D for footprint, wirelength and power components.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  struct PaperRow {
    double fp, wl, p, cell, net, leak;
  };
  const PaperRow paper[] = {{-41.7, -26.3, -14.5, -9.4, -19.5, -11.1},
                            {-42.4, -23.6, -10.9, -7.6, -13.9, -9.5},
                            {-43.2, -33.6, -32.1, -12.8, -39.2, -21.7},
                            {-40.9, -21.5, -4.1, -1.6, -7.7, -1.4},
                            {-43.4, -28.4, -17.5, -10.7, -22.2, -12.9}};

  util::Table t(
      "Table 4: 45nm layout results — % difference of T-MI over 2D\n"
      "(iso-performance; timing closed on both designs). Paper values in\n"
      "the second line of each row.");
  t.set_header({"circuit", "footprint", "wirelen", "total pwr", "cell pwr",
                "net pwr", "leakage", "clk ns", "met", "routed"});
  // All five circuits are independent experiments: fan them out across the
  // exec pool and print the rows in order afterwards.
  std::vector<flow::FlowOptions> jobs;
  for (gen::Bench b : gen::all_benches()) {
    jobs.push_back(preset(b, tech::Node::k45nm));
  }
  const std::vector<Cmp> results = compare_cached_all(jobs);
  int i = 0;
  for (gen::Bench b : gen::all_benches()) {
    const Cmp& c = results[static_cast<size_t>(i)];
    t.add_row({gen::to_string(b),
               pct_str(c.tmi.footprint_um2, c.flat.footprint_um2),
               pct_str(c.tmi.total_wl_um, c.flat.total_wl_um),
               pct_str(c.tmi.total_uw, c.flat.total_uw),
               pct_str(c.tmi.cell_uw, c.flat.cell_uw),
               pct_str(c.tmi.net_uw, c.flat.net_uw),
               pct_str(c.tmi.leak_uw, c.flat.leak_uw),
               util::strf("%.2f", c.flat.clock_ns),
               c.flat.timing_met && c.tmi.timing_met ? "yes" : "NO",
               routed_str(c)});
    const PaperRow& p = paper[i++];
    t.add_row({"  (paper)", util::strf("%+.1f%%", p.fp),
               util::strf("%+.1f%%", p.wl), util::strf("%+.1f%%", p.p),
               util::strf("%+.1f%%", p.cell), util::strf("%+.1f%%", p.net),
               util::strf("%+.1f%%", p.leak), "-", "-", "-"});
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nKey claims reproduced: ~40%% footprint reduction, 20-30%% shorter\n"
      "wires, largest power benefit on the wire-dominated LDPC, smallest on\n"
      "the pin-cap-dominated DES. (Benchmarks run at reduced scale — see\n"
      "EXPERIMENTS.md for the scale note.)\n");
  return 0;
}
