// Table 15 (supplement S7): layout results of the T-MI designs synthesized
// with vs without the custom T-MI wire load model.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Table 15: T-MI designs with ('-3D') and without ('-3D-n') the T-MI\n"
      "WLM. Paper: negligible for FPU/AES/DES, up to +10% WL and power for\n"
      "LDPC and +4-6% for M256 without it.");
  t.set_header({"design", "WL mm", "WNS ps", "total uW", "delta WL",
                "delta pwr", "routed"});
  for (gen::Bench b : gen::all_benches()) {
    flow::FlowOptions with = preset(b, tech::Node::k45nm);
    const Cmp base = compare_cached(with);
    with.clock_ns = base.flat.clock_ns;
    flow::FlowOptions without = with;
    without.tmi_wlm = false;
    const Cmp cw = compare_cached(with);
    const Cmp cn = compare_cached(without);
    t.add_row({std::string(gen::to_string(b)) + "-3D",
               util::strf("%.3f", cw.tmi.total_wl_um / 1000.0),
               util::strf("%+.0f", cw.tmi.wns_ps),
               util::strf("%.1f", cw.tmi.total_uw), "-", "-",
               cw.tmi.routed ? "yes" : "NO"});
    t.add_row({std::string(gen::to_string(b)) + "-3D-n",
               util::strf("%.3f", cn.tmi.total_wl_um / 1000.0),
               util::strf("%+.0f", cn.tmi.wns_ps),
               util::strf("%.1f", cn.tmi.total_uw),
               pct_str(cn.tmi.total_wl_um, cw.tmi.total_wl_um),
               pct_str(cn.tmi.total_uw, cw.tmi.total_uw), cn.tmi.routed ? "yes" : "NO"});
    t.add_separator();
  }
  t.print();
  return 0;
}
