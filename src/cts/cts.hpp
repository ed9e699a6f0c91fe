// Clock tree synthesis: a buffered, geometry-balanced clock distribution
// tree over the DFF clock pins (recursive median bisection — an H-tree-like
// topology). The tree's buffers and nets are ordinary netlist objects, so
// routing, extraction and power analysis see the clock network exactly like
// the paper's flow does; timing keeps the ideal-clock (zero-skew) view.
//
// Because T-MI halves the die, its clock tree is shorter and lighter — a
// real contributor to the paper's net-power gap.
#pragma once

#include "circuit/netlist.hpp"
#include "liberty/library.hpp"
#include "place/place.hpp"

namespace m3d::cts {

struct CtsOptions {
  int max_sinks_per_buffer = 24;
  /// When set, clock buffers are snapped onto the row grid inside this die
  /// (place::snap_to_row) so CTS preserves placement legality.
  const place::Die* die = nullptr;
};

struct CtsResult {
  int buffers_added = 0;
  int levels = 0;
  int sinks = 0;  // DFF clock pins served
};

/// Builds the clock tree in place. Requires placement (buffer positions are
/// derived from sink centroids). No-op when the design has no clock or no
/// sequential cells.
CtsResult build_clock_tree(circuit::Netlist* nl, const liberty::Library& lib,
                           const CtsOptions& opt = {});

}  // namespace m3d::cts
