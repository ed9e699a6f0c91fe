// Placement: die/row construction, quadratic (conjugate-gradient) global
// placement with fixed boundary pads, area-diffusion spreading, and
// Tetris-style row legalization. The T-MI flow uses exactly the same code —
// only the row height (0.84um vs 1.4um) and the resulting die differ, which
// is the paper's point: 2D EDA algorithms carry over to T-MI unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "geom/rect.hpp"
#include "liberty/library.hpp"

namespace m3d::place {

struct Die {
  geom::Rect core;
  double row_height_um = 1.4;
  int num_rows = 0;

  double row_y(int row) const { return core.ylo + (row + 0.5) * row_height_um; }
};

struct PlaceOptions {
  double target_util = 0.8;  // paper: ~80% (LDPC 33%, M256 68%)
  uint64_t seed = 1;
};

/// Builds a near-square die sized for the netlist at the target utilization
/// and assigns port (pad) positions around the boundary.
Die make_die(circuit::Netlist* nl, double target_util, double row_height_um);

/// Global placement + spreading + legalization. All instances end up at
/// legal row positions inside the die. Equivalent to global_spread ->
/// legalize -> detail_place -> relegalize_rows; the stages are public so the
/// kernel benchmarks (bench_kernels) can time them in isolation.
void place_design(circuit::Netlist* nl, const Die& die, const PlaceOptions& opt);

/// Spread (pre-legalization) cell centers: `movable[k]` — the live
/// instances in id order — sits at (x[k], y[k]).
struct SpreadPlacement {
  std::vector<circuit::InstId> movable;
  std::vector<double> x, y;
};

/// Stages 1-2 of place_design: quadratic (CG) global placement with pad
/// anchors, then capacity-balanced bisection spreading. Ports must already
/// carry pad positions (make_die).
SpreadPlacement global_spread(circuit::Netlist* nl, const Die& die,
                              const PlaceOptions& opt);

/// Stage 3: Tetris row legalization of a spread placement. Each cell packs
/// into the cheapest nearby row, searched outward from its target row with
/// an expanding frontier that stops as soon as the row-distance term alone
/// exceeds the best cost found — same result as the old all-rows scan
/// (identical visit order and tie-break), near-O(1) rows touched per cell.
void legalize(circuit::Netlist* nl, const Die& die,
              const SpreadPlacement& spread);

/// Stage 4: detailed placement — median-seeking equal-width swap passes
/// priced by the incremental HPWL engine (place/hpwl.hpp). Swap decisions
/// are bit-identical to from-scratch net evaluation; the cached total is
/// verified against total_hpwl_um at every pass boundary.
void detail_place(circuit::Netlist* nl, const Die& die, int passes = 2);

/// Snaps a cell center onto the nearest row center line and clamps it (by
/// half of `width_um`) inside the core. Buffer insertion (opt, cts) runs
/// every new cell through this so the whole flow maintains the placement
/// legality invariant checked by check::check_placement.
geom::Pt snap_to_row(const Die& die, geom::Pt pos, double width_um = 0.0);

/// Incremental row re-legalization: removes cell overlaps introduced after
/// global legalization (optimizer upsizing widens cells in place) with a
/// deterministic per-row shove — left-to-right, then right-to-left when the
/// row spills past the core edge. Order-preserving; each cell moves by at
/// most the accumulated width growth in its row.
void relegalize_rows(circuit::Netlist* nl, const Die& die);

/// Half-perimeter wirelength over signal nets (clock excluded), um.
double total_hpwl_um(const circuit::Netlist& nl);

/// Final placement density: cell area / core area (the paper's
/// "utilization" column).
double utilization(const circuit::Netlist& nl, const Die& die);

}  // namespace m3d::place
