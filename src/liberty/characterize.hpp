// Cell characterization: builds a transistor + parasitic-RC circuit from a
// CellSpec and its extracted CellLayout, sweeps input slew x output load with
// the transient simulator, and fills NLDM tables — our stand-in for Encounter
// Library Characterizer + SPICE (paper Section 3.2).
#pragma once

#include <string>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "liberty/library.hpp"
#include "spice/circuit.hpp"

namespace m3d::liberty {

/// The NLDM grid: the combinational cells' input slews and every cell's
/// output loads. The DFF's slew axis, its setup and hold times and the
/// silicon model are constants of characterize.cpp.
struct CharOptions {
  // Grid anchors chosen to hit the paper's Table 2 corners exactly.
  std::vector<double> slews_ps = {7.5, 37.5, 150.0};
  std::vector<double> loads_ff = {0.8, 3.2, 12.8};
};

/// Builds the characterization circuit (transistors + per-net lumped RC).
/// Exposed for tests. Net center nodes carry the net names; VSS is ground.
spice::Circuit make_cell_circuit(const cells::CellSpec& spec,
                                 const cells::CellLayout& layout,
                                 cells::SiliconModel silicon);

/// An NLDM point of one arc's output-edge tables that held no positive
/// value after the sweep, either because its simulation failed or because
/// it measured a value <= 0, and that was filled from its nearest valid
/// neighbour: the shipped value there was not simulated.
struct PatchedPoint {
  std::string cell;
  std::string from, to;  // the arc's pins
  bool out_rise = false;  // the output edge whose tables were filled
  double slew_ps = 0.0, load_ff = 0.0;
  bool delay = false, out_slew = false, energy = false;  // the tables filled
};

/// Characterizes one cell at 45nm. `layout` must be the matching 2D or
/// folded layout of `spec`. Points filled from a neighbour are counted in
/// `liberty.patched_points` and, when `patched` is given, appended to it.
LibCell characterize_cell(const cells::CellSpec& spec,
                          const cells::CellLayout& layout, double vdd_v,
                          const CharOptions& opt = {},
                          std::vector<PatchedPoint>* patched = nullptr);

/// Characterizes the full 66-cell NangateLite library for the given style at
/// 45nm (folded layouts for T-MI styles). Use scale_to_7nm() for 7nm. Logs
/// one warning listing every patched point, when there are any.
Library build_library_45nm(tech::Style style);

}  // namespace m3d::liberty
