// A* maze search on one routing level of the global router's gcell grid.
//
// The router's rip-up-and-reroute calls `maze_route` once per level it
// tries for an overflowing two-pin connection. The search reads a frozen,
// read-only view of that level's cached edge costs, so any number of
// searches may run concurrently against the same grid.
#pragma once

#include <cstddef>
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

/// A* maze route from `a` to `b`, constrained to the bbox of (a, b)
/// inflated by `margin` gcells and clipped to the grid. The heuristic is the
/// Manhattan distance, ties in f break toward the lower window index, and
/// the result is the gcell path including both endpoints. Returns an empty
/// path on failure.
std::vector<Cell> maze_route(const CostView& view, const Cell& a, const Cell& b,
                             int margin);

}  // namespace m3d::route
