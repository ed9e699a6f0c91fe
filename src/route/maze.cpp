#include "route/maze.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>

#include "obs/mem.hpp"

namespace m3d::route {
namespace {

/// Per-thread maze scratch: the per-cell search records plus the open set,
/// an indexed 4-ary min-heap with decrease-key.
///
/// Cells use epoch-stamped lazy reset: one packed {dist, parent, stamp,
/// slot} record per cell, allocated once per thread, and a cell is
/// (re)initialized the first time an epoch touches it, so repeated maze
/// calls do no allocation and no O(window) clearing. Each maze call is
/// entirely thread-private — every read goes through touch(), so no state
/// leaks across calls.
///
/// The heap holds at most one entry per cell, and the cell's `slot` is that
/// entry's position (-1 while the cell is not queued). It orders entries by
/// (f, idx) — the total order in which
/// std::priority_queue<std::pair<double, int>, ..., std::greater<>> pops —
/// and an entry carries its cell's coordinates, which saves each pop a
/// divide and a modulo.
struct MazeScratch {
  struct Node {
    double dist;
    int parent;
    uint32_t stamp;
    int slot;
  };
  struct Entry {
    double f;
    int idx;
    int x, y;
  };
  // obs::vector: the maze arrays are the router's dominant allocations, so
  // they opt into the counting allocator for the per-stage memory profile.
  obs::vector<Node> nodes;
  obs::vector<Entry> heap;
  uint32_t epoch = 0;

  /// Starts a maze over `cells` cells with an empty open set; grows the
  /// array if needed and invalidates every previous record by bumping the
  /// epoch.
  void begin(size_t cells) {
    if (nodes.size() < cells) nodes.resize(cells, Node{0.0, -1, 0, -1});
    if (++epoch == 0) {  // wrapped: stale stamps could alias the new epoch
      for (Node& n : nodes) n.stamp = 0;
      epoch = 1;
    }
    heap.clear();
  }

  /// Cell `i`'s record, lazily initialized for the current epoch.
  Node& touch(size_t i) {
    Node& n = nodes[i];
    if (n.stamp != epoch) {
      n.stamp = epoch;
      n.dist = 1e18;
      n.parent = -1;
      n.slot = -1;
    }
    return n;
  }

  /// Queues `e` for its cell `n`, or moves the cell's queued entry to the
  /// new key. A queued cell's f only falls: the caller lowers `dist` before
  /// requeueing, and f = dist + h with a fixed h per cell.
  void push_or_decrease(const Entry& e, Node& n) {
    size_t i = heap.size();
    if (n.slot < 0) {
      heap.push_back(e);
    } else {
      i = static_cast<size_t>(n.slot);
      assert(!less(heap[i], e));
    }
    while (i > 0) {
      const size_t up = (i - 1) / 4;
      if (!less(e, heap[up])) break;
      place(i, heap[up]);
      i = up;
    }
    place(i, e);
  }

  /// Removes and returns the minimum entry; its cell is no longer queued.
  Entry pop() {
    const Entry top = heap.front();
    nodes[static_cast<size_t>(top.idx)].slot = -1;
    const Entry last = heap.back();
    heap.pop_back();
    const size_t n = heap.size();
    if (n == 0) return top;
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t end = std::min(first + 4, n);
      for (size_t c = first + 1; c < end; ++c) {
        if (less(heap[c], heap[best])) best = c;
      }
      if (!less(heap[best], last)) break;
      place(i, heap[best]);
      i = best;
    }
    place(i, last);
    return top;
  }

 private:
  static bool less(const Entry& a, const Entry& b) {
    return a.f < b.f || (a.f == b.f && a.idx < b.idx);
  }
  void place(size_t i, const Entry& e) {
    heap[i] = e;
    nodes[static_cast<size_t>(e.idx)].slot = static_cast<int>(i);
  }
};

}  // namespace

std::vector<Cell> maze_route(const CostView& view, const Cell& a, const Cell& b,
                             int margin) {
  const int xlo = std::max(0, std::min(a.x, b.x) - margin);
  const int xhi = std::min(view.nx - 1, std::max(a.x, b.x) + margin);
  const int ylo = std::max(0, std::min(a.y, b.y) - margin);
  const int yhi = std::min(view.ny - 1, std::max(a.y, b.y) + margin);
  const int w = xhi - xlo + 1, h = yhi - ylo + 1;
  auto idx = [&](int x, int y) { return static_cast<size_t>((y - ylo) * w + (x - xlo)); };
  thread_local MazeScratch scratch;
  scratch.begin(static_cast<size_t>(w * h));
  const double* cost_h = view.cost_h;
  const double* cost_v = view.cost_v;
  MazeScratch::Node& start = scratch.touch(idx(a.x, a.y));
  start.dist = 0.0;
  scratch.push_or_decrease({std::abs(a.x - b.x) + std::abs(a.y - b.y) * 1.0,
                            static_cast<int>(idx(a.x, a.y)), a.x, a.y},
                           start);
  while (!scratch.heap.empty()) {
    const MazeScratch::Entry top = scratch.pop();
    const int ci = top.idx;
    const int cx = top.x;
    const int cy = top.y;
    if (cx == b.x && cy == b.y) break;
    const double d = scratch.nodes[static_cast<size_t>(ci)].dist;
    // Every queued entry is live, but past dist ~2^24 rounding in f = dist
    // + h can exceed 1e-9, and the lazy-deletion kernel this one replaced
    // skipped such an entry as stale. Skipping it too keeps every path
    // identical to that kernel's.
    if (top.f - (std::abs(cx - b.x) + std::abs(cy - b.y)) > d + 1e-9) continue;
    // Neighbours in the fixed order +x, -x, +y, -y; `ec` is the cached cost
    // of the edge between the current cell and (nx2, ny2).
    auto relax = [&](int nx2, int ny2, double ec) {
      const double nd = d + ec;
      const size_t nidx = idx(nx2, ny2);
      MazeScratch::Node& n = scratch.touch(nidx);
      if (nd < n.dist - 1e-12) {
        n.dist = nd;
        n.parent = ci;
        scratch.push_or_decrease({nd + std::abs(nx2 - b.x) + std::abs(ny2 - b.y),
                                  static_cast<int>(nidx), nx2, ny2},
                                 n);
      }
    };
    if (cx < xhi) relax(cx + 1, cy, cost_h[view.h_idx(cx, cy)]);
    if (cx > xlo) relax(cx - 1, cy, cost_h[view.h_idx(cx - 1, cy)]);
    if (cy < yhi) relax(cx, cy + 1, cost_v[view.v_idx(cx, cy)]);
    if (cy > ylo) relax(cx, cy - 1, cost_v[view.v_idx(cx, cy - 1)]);
  }
  if (scratch.touch(idx(b.x, b.y)).dist >= 1e17) return {};
  std::vector<Cell> path;
  int ci = static_cast<int>(idx(b.x, b.y));
  while (ci >= 0) {
    path.push_back({xlo + ci % w, ylo + ci / w});
    ci = scratch.nodes[static_cast<size_t>(ci)].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace m3d::route
