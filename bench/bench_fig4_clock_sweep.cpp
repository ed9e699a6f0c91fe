// Fig 4: power reduction rate of T-MI over 2D as a function of the target
// clock period (slow / medium / fast), for AES and M256.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Fig 4: power reduction rate (T-MI over 2D) under various target\n"
      "clock periods. Paper trend: the faster the clock, the larger the\n"
      "benefit (AES @0.8ns: total ~11%; M256 @2.4ns: ~17%).");
  t.set_header({"circuit", "corner", "clock ns", "total pwr", "cell pwr",
                "net pwr", "leakage", "met"});
  for (gen::Bench b : {gen::Bench::kAes, gen::Bench::kM256}) {
    // Baseline: the tightest closable clock, then relaxed corners.
    const Cmp base = compare_cached(preset(b, tech::Node::k45nm));
    const double base_clk = base.flat.clock_ns;
    const struct {
      const char* name;
      double factor;
    } corners[] = {{"slow", 2.0}, {"medium", 1.35}, {"fast", 1.0}};
    for (const auto& corner : corners) {
      flow::FlowOptions o = preset(b, tech::Node::k45nm);
      o.clock_ns = base_clk * corner.factor;
      const Cmp c = compare_cached(o);
      t.add_row({gen::to_string(b), corner.name,
                 util::strf("%.2f", c.flat.clock_ns),
                 pct_str(c.tmi.total_uw, c.flat.total_uw),
                 pct_str(c.tmi.cell_uw, c.flat.cell_uw),
                 pct_str(c.tmi.net_uw, c.flat.net_uw),
                 pct_str(c.tmi.leak_uw, c.flat.leak_uw),
                 c.flat.timing_met && c.tmi.timing_met ? "yes" : "NO"});
    }
    t.add_separator();
  }
  t.print();
  std::printf(
      "\nKey claim: the power benefit of T-MI grows as the target clock\n"
      "tightens (2D needs more upsizing/buffering to make timing).\n");
  return 0;
}
