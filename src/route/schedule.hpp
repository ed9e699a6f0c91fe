// Batch schedule of one rip-up-and-reroute iteration.
//
// The router reroutes the overflowing two-pins of an iteration in batches
// whose maze windows are pairwise disjoint, so each batch's searches can run
// concurrently against a frozen grid. A window depends only on its two-pin's
// pins, which rerouting never changes, and the iteration's list of two-pins
// is fixed before any batch runs; so the whole schedule is computed up
// front, from the windows alone.
#pragma once

#include <vector>

namespace m3d::route {

/// A maze search window: the inclusive gcell ranges [xlo, xhi] x [ylo, yhi].
struct Window {
  int xlo, xhi, ylo, yhi;
};

inline bool overlaps(const Window& a, const Window& b) {
  return a.xlo <= b.xhi && b.xlo <= a.xhi && a.ylo <= b.yhi && b.ylo <= a.yhi;
}

/// Batches as CSR: batch k holds the window indices
/// members[start[k]] .. members[start[k + 1] - 1], in increasing order.
struct Schedule {
  std::vector<int> start{0};
  std::vector<int> members;

  int batches() const { return static_cast<int>(start.size()) - 1; }
};

/// First-fit batching of `windows` in order: each window joins the
/// lowest-numbered batch none of whose earlier members overlaps it, or
/// opens a new batch. This is exactly what repeated greedy rounds give —
/// round k scans the windows the first k rounds deferred, in order, and
/// keeps each that overlaps none of the round's earlier picks — since a
/// window reaches round k's scan only after clashing with a member of each
/// lower batch, and the members a round has picked when it reaches a window
/// are that batch's members that precede the window.
///
/// Windows must lie on the nx x ny grid. A coarse tile grid of per-tile
/// batch bitsets finds each window's batch without scanning the batches
/// below it one by one (see schedule.cpp).
Schedule schedule_batches(const std::vector<Window>& windows, int nx, int ny);

}  // namespace m3d::route
