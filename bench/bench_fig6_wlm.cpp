// Fig 6: fanout vs wirelength in the 2D wire load models, extracted from
// preliminary layouts of each benchmark (as the paper does in S2).
#include <cstdio>

#include "common.hpp"
#include "synth/synth.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  const int fanouts[] = {1, 2, 3, 4, 6, 8, 12, 16, 20};
  util::Table t(
      "Fig 6: fanout vs estimated wirelength (um) in the per-circuit 2D\n"
      "WLMs, extracted from placed preliminary layouts. Paper shape:\n"
      "monotone growth, distinct per circuit, LDPC steepest.");
  std::vector<std::string> header{"circuit"};
  for (int f : fanouts) header.push_back(util::strf("f=%d", f));
  t.set_header(header);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const auto& lib = library(tech::Node::k45nm, tech::Style::k2D);
  for (gen::Bench b : gen::all_benches()) {
    const flow::FlowOptions p = flow::preset(b, tech::Node::k45nm);
    gen::GenOptions go;
    go.scale_shift = p.scale_shift;
    circuit::Netlist nl = gen::make_benchmark(b, go);
    nl.bind(lib);
    synth::SynthOptions so;
    so.clock_ns = 100.0;  // preliminary layout: no timing pressure
    synth::synthesize(&nl, lib, synth::make_statistical_wlm(1e4, tch), so);
    place::Die die = place::make_die(&nl, p.target_util, tch.row_height_um());
    place::place_design(&nl, die, {});
    const synth::Wlm wlm = synth::extract_wlm(nl, tch);
    std::vector<std::string> row{gen::to_string(b)};
    for (int f : fanouts) row.push_back(util::strf("%.1f", wlm.wl_um(f)));
    t.add_row(row);
  }
  t.print();
  return 0;
}
