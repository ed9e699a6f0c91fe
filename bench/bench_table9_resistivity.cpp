// Table 9: impact of 50% lower local+intermediate metal resistivity at 7nm
// on M256 ("-m" rows).
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Table 9: lower metal resistivity at 7nm, M256. Paper: -17.8% power\n"
      "delta in both cases — lower resistivity does not shrink the T-MI\n"
      "benefit.");
  t.set_header({"design", "WL mm", "total uW", "cell uW", "net uW", "leak uW",
                "power delta"});
  const double scales[] = {1.0, 0.5};
  const char* names[] = {"M256", "M256-m"};
  for (int i = 0; i < 2; ++i) {
    flow::FlowOptions o = preset(gen::Bench::kM256, tech::Node::k7nm);
    o.resistivity_scale = scales[i];
    const Cmp c = compare_cached(o);
    auto row = [&](const char* suffix, const flow::FlowResult& m,
                   const flow::FlowResult& base, bool show) {
      t.add_row({std::string(names[i]) + suffix,
                 util::strf("%.3f", m.total_wl_um / 1000.0),
                 util::strf("%.2f", m.total_uw), util::strf("%.2f", m.cell_uw),
                 util::strf("%.2f", m.net_uw), util::strf("%.3f", m.leak_uw),
                 show ? pct_str(m.total_uw, base.total_uw) : "-"});
    };
    row("-2D", c.flat, c.flat, false);
    row("-3D", c.tmi, c.flat, true);
    t.add_separator();
  }
  t.print();
  return 0;
}
