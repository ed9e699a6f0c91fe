// A* maze search on one routing level of the global router's gcell grid.
//
// The router's rip-up-and-reroute calls `maze_route` once per level it
// tries for an overflowing two-pin connection. The search reads a frozen,
// read-only view of that level's cached edge costs, so any number of
// searches may run concurrently against the same grid.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace m3d::route {

struct Cell {
  int x, y;
};

/// Read-only view of one level's edge costs on an nx x ny gcell grid.
/// `cost_h` holds the (nx - 1) * ny horizontal edges, the edge between
/// (i, j) and (i + 1, j) at h_idx(i, j); `cost_v` holds the nx * (ny - 1)
/// vertical edges, the edge between (i, j) and (i, j + 1) at v_idx(i, j).
struct CostView {
  int nx = 0, ny = 0;
  const double* cost_h = nullptr;
  const double* cost_v = nullptr;

  size_t h_idx(int i, int j) const { return static_cast<size_t>(j * (nx - 1) + i); }
  size_t v_idx(int i, int j) const { return static_cast<size_t>(j * nx + i); }
};

/// Sum of the edge costs along `path`, from its first cell to its last.
double path_cost(const CostView& view, const std::vector<Cell>& path);

/// A* maze route from `a` to `b`, constrained to the bbox of (a, b)
/// inflated by `margin` gcells and clipped to the grid. The heuristic is the
/// Manhattan distance, ties in f break toward the lower window index, and
/// the result is the gcell path including both endpoints. Returns an empty
/// path on failure.
///
/// The search also stops, returning an empty path, when it pops an f above
/// `f_limit`. Until then it runs exactly as an unbounded search.
std::vector<Cell> maze_route(const CostView& view, const Cell& a, const Cell& b,
                             int margin,
                             double f_limit = std::numeric_limits<double>::infinity());

/// The `f_limit` for a search whose path is wanted only if its path_cost is
/// below `reject_at`: the search then stops only where the unbounded one
/// would return no path or one costing `reject_at` or more.
///
/// With every edge cost at least 1, the Manhattan heuristic is consistent.
/// Popped f values then only rise, up to rounding, and the path returned
/// costs at least every f popped before it, up to rounding and the 1e-12
/// relax tolerance per edge. Those errors stay below 1e-11 of the path's
/// cost: a few ulps per pop over at most ~15k pops, and 1e-12 per edge of
/// a path whose edges each cost at least 1. The limit adds a slack of 1e-9
/// of `reject_at` (plus 1e-9), ample against those errors and tiny next to
/// the router's 4.0 cost of a level change.
double maze_f_limit(double reject_at);

}  // namespace m3d::route
