// Clock-sweep example (the paper's Fig 4 study on one circuit): run the
// iso-performance comparison at several target clock periods and watch the
// T-MI power benefit grow as timing tightens.
//
//   ./build/examples/clock_sweep [circuit] [scale_shift]
//   circuit in {FPU, AES, LDPC, DES, M256}, default AES
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "flow/flow.hpp"
#include "flow/warm.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

using namespace m3d;

int main(int argc, char** argv) {
  gen::Bench bench = gen::Bench::kAes;
  if (argc > 1) {
    bool found = false;
    for (gen::Bench b : gen::all_benches()) {
      if (std::strcmp(argv[1], gen::to_string(b)) == 0) {
        bench = b;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown circuit '%s'\n", argv[1]);
      return 1;
    }
  }
  flow::WarmContext& libs = flow::characterized_libraries();
  const liberty::Library& lib2d =
      libs.library(tech::Node::k45nm, tech::Style::k2D);
  const liberty::Library& lib3d =
      libs.library(tech::Node::k45nm, tech::Style::kTMI);

  flow::FlowOptions base = flow::preset(bench, tech::Node::k45nm);
  if (argc > 2) base.scale_shift = std::atoi(argv[2]);
  base.lib = &lib2d;

  // Find the tightest closable 2D clock, then sweep relaxation factors.
  const flow::CompareResult tightest =
      flow::run_iso_comparison(base, lib2d, lib3d);
  const double base_clk = tightest.flat.clock_ns;

  util::Table t(util::strf("%s: T-MI power benefit vs target clock "
                           "(tightest 2D-closable clock = %.3f ns)",
                           gen::to_string(bench), base_clk));
  t.set_header({"clock ns", "2D uW", "T-MI uW", "total", "cell", "net", "met"});
  for (double factor : {1.5, 1.25, 1.1, 1.0}) {
    flow::FlowOptions o = base;
    o.clock_ns = base_clk * factor;
    const flow::CompareResult c = flow::run_iso_comparison(o, lib2d, lib3d);
    auto pct = [](double v3, double v2) {
      return util::strf("%+.1f%%", 100.0 * (v3 / v2 - 1.0));
    };
    t.add_row({util::strf("%.3f", c.flat.clock_ns),
               util::strf("%.1f", c.flat.total_uw),
               util::strf("%.1f", c.tmi.total_uw),
               pct(c.tmi.total_uw, c.flat.total_uw),
               pct(c.tmi.cell_uw, c.flat.cell_uw),
               pct(c.tmi.net_uw, c.flat.net_uw),
               c.flat.timing_met && c.tmi.timing_met ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nThe benefit grows as the clock tightens: 2D must burn more\n"
              "buffers and larger cells to make timing (paper Section 4.4).\n");
  return 0;
}
