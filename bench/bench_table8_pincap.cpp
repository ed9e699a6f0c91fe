// Table 8: impact of lower cell pin capacitance at 7nm (DES, the most
// pin-cap-dominated circuit): -20/40/60% reduced pin caps.
#include <cstdio>

#include "common.hpp"
#include "liberty/library.hpp"

using namespace m3d;
using namespace m3d::bench;

namespace {

liberty::Library scale_pin_caps(const liberty::Library& in, double factor) {
  liberty::Library rebuilt;
  rebuilt.name = in.name + util::strf("_p%.0f", 100.0 * (1.0 - factor));
  rebuilt.node = in.node;
  rebuilt.style = in.style;
  rebuilt.vdd_v = in.vdd_v;
  for (liberty::LibCell c : in.cells()) {
    for (auto& [pin, cap] : c.pin_cap_ff) cap *= factor;
    rebuilt.add(std::move(c));
  }
  return rebuilt;
}

}  // namespace

int main() {
  util::Table t(
      "Table 8: impact of lower cell pin cap at 7nm on DES. '-pNN' = NN%\n"
      "reduced pin caps. Paper: the T-MI power benefit does *not* grow as\n"
      "pin caps shrink (-3.4% -> -1.8/-2.7/-2.3%), because the cell power\n"
      "then dominates.");
  t.set_header({"design", "WL mm", "total uW", "cell uW", "net uW", "leak uW",
                "power delta"});
  const double factors[] = {1.0, 0.8, 0.6, 0.4};
  const char* names[] = {"DES", "DES-p20", "DES-p40", "DES-p60"};
  for (int i = 0; i < 4; ++i) {
    const liberty::Library lib2 =
        scale_pin_caps(library(tech::Node::k7nm, tech::Style::k2D), factors[i]);
    const liberty::Library lib3 =
        scale_pin_caps(library(tech::Node::k7nm, tech::Style::kTMI), factors[i]);
    flow::FlowOptions o = preset(gen::Bench::kDes, tech::Node::k7nm);
    o.lib = &lib2;
    // Modified libraries cannot go through compare_cached: run directly.
    const flow::CompareResult r = flow::run_iso_comparison(o, lib2, lib3);
    auto row = [&](const char* suffix, const flow::FlowResult& m,
                   const flow::FlowResult& base) {
      t.add_row({std::string(names[i]) + suffix,
                 util::strf("%.3f", m.total_wl_um / 1000.0),
                 util::strf("%.2f", m.total_uw), util::strf("%.2f", m.cell_uw),
                 util::strf("%.2f", m.net_uw), util::strf("%.3f", m.leak_uw),
                 suffix[1] == '3' ? pct_str(m.total_uw, base.total_uw) : "-"});
    };
    row("-2D", r.flat, r.flat);
    row("-3D", r.tmi, r.flat);
    t.add_separator();
  }
  t.print();
  return 0;
}
