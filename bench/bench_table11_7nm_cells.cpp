// Table 11: 7nm cell characterization (input cap, delay, output slew, cell
// energy, leakage) produced by applying the paper's ITRS scaling to our
// SPICE-characterized 45nm library.
#include <cstdio>

#include "common.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  const auto& l45 = library(tech::Node::k45nm, tech::Style::k2D);
  const auto& l7 = library(tech::Node::k7nm, tech::Style::k2D);
  util::Table t(
      "Table 11: 7nm cell characterization (avg over rise/fall at input\n"
      "slew 19ps / load 3.2 fF at 45nm; scaled corner at 7nm). Paper rows\n"
      "for reference.");
  t.set_header({"quantity", "cell", "45nm", "7nm", "paper 45nm", "paper 7nm"});
  struct P {
    const char* cell;
    double cap45, cap7, d45, d7, sl45, sl7, e45, e7, lk45, lk7;
  };
  const P paper[] = {
      {"INV", 0.463, 0.125, 44.27, 25.56, 31.35, 15.13, 0.446, 0.020, 2844, 2583},
      {"NAND2", 0.523, 0.082, 49.24, 30.50, 35.89, 19.29, 0.680, 0.020, 4962, 2906},
      {"DFF", 0.877, 0.097, 124.70, 27.07, 34.55, 8.25, 3.425, 0.604, 42965, 23241}};
  const char* names[] = {"INV_X1", "NAND2_X1", "DFF_X1"};
  for (int i = 0; i < 3; ++i) {
    const auto* c45 = l45.find(names[i]);
    const auto* c7 = l7.find(names[i]);
    const double slew45 = 19.0, load45 = 3.2;
    const double slew7 = slew45 * 0.42, load7 = load45 * 0.179;
    const auto& a45 = c45->arcs[0];
    const auto& a7 = c7->arcs[0];
    t.add_row({"input cap (fF)", names[i],
               util::strf("%.3f", c45->max_input_cap_ff()),
               util::strf("%.3f", c7->max_input_cap_ff()),
               util::strf("%.3f", paper[i].cap45), util::strf("%.3f", paper[i].cap7)});
    t.add_row({"cell delay (ps)", names[i],
               util::strf("%.2f", a45.worst_delay(slew45, load45)),
               util::strf("%.2f", a7.worst_delay(slew7, load7)),
               util::strf("%.2f", paper[i].d45), util::strf("%.2f", paper[i].d7)});
    t.add_row({"output slew (ps)", names[i],
               util::strf("%.2f", a45.worst_slew(slew45, load45)),
               util::strf("%.2f", a7.worst_slew(slew7, load7)),
               util::strf("%.2f", paper[i].sl45), util::strf("%.2f", paper[i].sl7)});
    t.add_row({"cell energy (fJ)", names[i],
               util::strf("%.3f", a45.avg_energy(slew45, load45)),
               util::strf("%.3f", a7.avg_energy(slew7, load7)),
               util::strf("%.3f", paper[i].e45), util::strf("%.3f", paper[i].e7)});
    t.add_row({"leakage (pW)", names[i],
               util::strf("%.0f", c45->leakage_uw * 1e6),
               util::strf("%.0f", c7->leakage_uw * 1e6),
               util::strf("%.0f", paper[i].lk45), util::strf("%.0f", paper[i].lk7)});
    t.add_separator();
  }
  t.print();
  return 0;
}
