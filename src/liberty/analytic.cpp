#include "liberty/analytic.hpp"

#include <string>
#include <utility>

#include "cells/spec.hpp"

namespace m3d::liberty {

Library analytic_library(tech::Style style) {
  Library lib;
  lib.name = "testlib";
  lib.node = tech::Node::k45nm;
  lib.style = tech::cell_style(style);
  lib.vdd_v = 1.1;
  const bool folded = lib.style == tech::Style::kTMI;
  const double height = folded ? 0.84 : 1.4;

  auto table = [](double v00, double slew_k, double load_k) {
    NldmTable t;
    t.slew_ps = {10.0, 50.0, 200.0};
    t.load_ff = {0.5, 4.0, 16.0};
    t.value.resize(9);
    for (size_t si = 0; si < 3; ++si) {
      for (size_t li = 0; li < 3; ++li) {
        t.value[si * 3 + li] =
            v00 + slew_k * t.slew_ps[si] + load_k * t.load_ff[li];
      }
    }
    return t;
  };

  auto add_cell = [&](cells::Func func, int drive) {
    LibCell c;
    c.name = cells::cell_name(func, drive);
    c.func = func;
    c.drive = drive;
    c.height_um = height;
    const int n_in = cells::num_inputs(func);
    c.width_um = 0.4 * (1 + n_in) * (0.7 + 0.3 * drive);
    c.sequential = cells::is_sequential(func);
    c.leakage_uw = 0.003 * drive;
    c.setup_ps = c.sequential ? 40.0 : 0.0;
    c.hold_ps = c.sequential ? 5.0 : 0.0;
    const double base = 12.0 + 6.0 * n_in + (c.sequential ? 60.0 : 0.0);
    const double dfac = static_cast<double>(drive);
    // The folded variant is ~2% better except the DFF (~5% worse), like the
    // characterized library.
    const double f3d = folded ? (c.sequential ? 1.05 : 0.98) : 1.0;
    for (const auto& pin : cells::input_pins(func)) {
      c.pin_cap_ff[pin] = 0.35 + 0.18 * drive;
    }
    auto make_arc = [&](const std::string& from, const std::string& to) {
      TimingArc arc;
      arc.from = from;
      arc.to = to;
      for (int e = 0; e < 2; ++e) {
        arc.delay[e] = table(base * f3d, 0.12, 9.0 / dfac);
        arc.out_slew[e] = table(8.0, 0.05, 6.0 / dfac);
        arc.energy[e] = table(0.25 * dfac * f3d, 0.0002, 0.004);
      }
      return arc;
    };
    if (c.sequential) {
      c.arcs.push_back(make_arc("CK", "Q"));
    } else {
      for (const auto& in : cells::input_pins(func)) {
        for (const auto& out : cells::output_pins(func)) {
          c.arcs.push_back(make_arc(in, out));
        }
      }
    }
    lib.add(std::move(c));
  };

  for (cells::Func f : cells::all_comb_funcs()) {
    for (int d : cells::drive_options(f)) add_cell(f, d);
  }
  for (int d : cells::drive_options(cells::Func::kDff)) {
    add_cell(cells::Func::kDff, d);
  }
  return lib;
}

}  // namespace m3d::liberty
