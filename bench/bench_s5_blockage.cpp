// Supplement S5 / Fig 7: impact of the MIV/MB1 routing blockages inside
// T-MI cells on design quality (AES). Paper: negligible at ~80% utilization
// (+0.1% WL, -0.1% power).
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "S5: AES T-MI with and without the MIV/MB1 local-routing blockages.\n"
      "Paper: negligible differences at 80% utilization.");
  t.set_header({"setting", "WL mm", "WNS ps", "total uW", "delta WL",
                "delta pwr"});
  flow::FlowOptions with = preset(gen::Bench::kAes, tech::Node::k45nm);
  const Cmp base = compare_cached(with);
  with.clock_ns = base.flat.clock_ns;
  flow::FlowOptions without = with;
  without.local_blockage_frac = 0.0;
  const Cmp cw = compare_cached(with);
  const Cmp cn = compare_cached(without);
  t.add_row({"AES-3D (with blockages)",
             util::strf("%.3f", cw.tmi.total_wl_um / 1e3),
             util::strf("%+.0f", cw.tmi.wns_ps),
             util::strf("%.1f", cw.tmi.total_uw), "-", "-"});
  t.add_row({"AES-3D (no blockages)",
             util::strf("%.3f", cn.tmi.total_wl_um / 1e3),
             util::strf("%+.0f", cn.tmi.wns_ps),
             util::strf("%.1f", cn.tmi.total_uw),
             pct_str(cn.tmi.total_wl_um, cw.tmi.total_wl_um),
             pct_str(cn.tmi.total_uw, cw.tmi.total_uw)});
  t.print();
  return 0;
}
