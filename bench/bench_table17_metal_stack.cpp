// Table 17 (supplement S9): the modified T-MI metal stack (T-MI+M: 2 extra
// local + 2 extra intermediate layers instead of 3 local) on LDPC and M256
// at 7nm.
#include <cstdio>

#include "common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  util::Table t(
      "Table 17: impact of the modified metal stack (T-MI+M) at 7nm.\n"
      "Paper: total power improves by ~2.4-2.8% over plain T-MI.");
  t.set_header({"design", "WL mm", "total uW", "cell uW", "net uW", "leak uW",
                "vs T-MI", "routed"});
  for (gen::Bench b : {gen::Bench::kLdpc, gen::Bench::kM256}) {
    flow::FlowOptions o = preset(b, tech::Node::k7nm);
    const Cmp base = compare_cached(o);
    o.clock_ns = base.flat.clock_ns;
    o.style = tech::Style::kTMIPlusM;
    const Cmp plus = compare_cached(o);
    auto row = [&](const char* name, const flow::FlowResult& m,
                   const flow::FlowResult* ref) {
      t.add_row({name, util::strf("%.3f", m.total_wl_um / 1000.0),
                 util::strf("%.2f", m.total_uw), util::strf("%.2f", m.cell_uw),
                 util::strf("%.2f", m.net_uw), util::strf("%.3f", m.leak_uw),
                 ref != nullptr ? pct_str(m.total_uw, ref->total_uw) : "-",
                 m.routed ? "yes" : "NO"});
    };
    row((std::string(gen::to_string(b)) + "-3D").c_str(), base.tmi, nullptr);
    row((std::string(gen::to_string(b)) + "-3D+M").c_str(), plus.tmi,
        &base.tmi);
    t.add_separator();
  }
  t.print();
  return 0;
}
