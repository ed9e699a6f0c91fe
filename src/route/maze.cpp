#include "route/maze.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "obs/mem.hpp"

namespace m3d::route {
namespace {

/// Per-thread maze scratch: the per-cell search records plus the open set,
/// an indexed 4-ary min-heap with decrease-key.
///
/// One packed 16-byte {dist, parent, slot} record per window cell,
/// allocated once per thread; begin() fills the window's records with
/// {1e18, -1, -1}, so repeated maze calls do no allocation and every read
/// sees only the current call's state. The fill is a few microseconds
/// against a search of ~100 us, and it costs no stamp test per relaxation.
///
/// The heap holds at most one entry per cell, and the cell's `slot` is that
/// entry's position (-1 while the cell is not queued). It orders entries by
/// (f, idx) — the total order in which
/// std::priority_queue<std::pair<double, int>, ..., std::greater<>> pops —
/// and an entry carries its cell's coordinates, which saves each pop a
/// divide and a modulo. Entries are 16 bytes, so a node's four children
/// fill 64 contiguous bytes.
struct MazeScratch {
  struct Node {
    double dist;
    int parent;
    int slot;
  };
  struct Entry {
    double f;
    int idx;
    int16_t x, y;
  };
  static_assert(sizeof(Node) == 16 && sizeof(Entry) == 16);
  // obs::vector: the maze arrays are the router's dominant allocations, so
  // they opt into the counting allocator for the per-stage memory profile.
  obs::vector<Node> nodes;
  obs::vector<Entry> heap;

  /// Starts a maze over `cells` cells with an empty open set: every cell
  /// unreached, unparented and unqueued.
  void begin(size_t cells) {
    if (nodes.size() < cells) nodes.resize(cells);
    std::fill_n(nodes.begin(), cells, Node{1e18, -1, -1});
    heap.clear();
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
  ///
  /// A node with four children picks the smallest by two pairwise `less`
  /// results and one select. Entries are distinct under (f, idx) — one per
  /// cell — so the minimum is unique and any comparison order finds the
  /// child the left-to-right scan finds.
  Entry pop() {
    const Entry top = heap.front();
    nodes[static_cast<size_t>(top.idx)].slot = -1;
    const Entry last = heap.back();
    heap.pop_back();
    const size_t n = heap.size();
    if (n == 0) return top;
    const Entry* h = heap.data();
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      size_t best;
      if (first + 3 < n) {
        const size_t m01 = first + less(h[first + 1], h[first]);
        const size_t m23 = first + 2 + less(h[first + 3], h[first + 2]);
        best = less(h[m23], h[m01]) ? m23 : m01;
      } else {
        if (first >= n) break;
        best = first;
        for (size_t c = first + 1; c < n; ++c) {
          if (less(h[c], h[best])) best = c;
        }
      }
      if (!less(h[best], last)) break;
      place(i, h[best]);
      i = best;
    }
    place(i, last);
    return top;
  }

 private:
  /// (f, idx) order without short-circuit branches.
  static size_t less(const Entry& a, const Entry& b) {
    return static_cast<size_t>(a.f < b.f) |
           (static_cast<size_t>(a.f == b.f) & static_cast<size_t>(a.idx < b.idx));
  }
  void place(size_t i, const Entry& e) {
    heap[i] = e;
    nodes[static_cast<size_t>(e.idx)].slot = static_cast<int>(i);
  }
};

}  // namespace

double path_cost(const CostView& view, const std::vector<Cell>& path) {
  double cost = 0.0;
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    const Cell& p = path[k];
    const Cell& q = path[k + 1];
    if (p.y == q.y) {
      cost += view.cost_h[view.h_idx(std::min(p.x, q.x), p.y)];
    } else {
      cost += view.cost_v[view.v_idx(p.x, std::min(p.y, q.y))];
    }
  }
  return cost;
}

double maze_f_limit(double reject_at) {
  return reject_at + 1e-9 * (1.0 + std::abs(reject_at));
}

std::vector<Cell> maze_route(const CostView& view, const Cell& a, const Cell& b,
                             int margin, double f_limit) {
  assert(view.nx <= INT16_MAX && view.ny <= INT16_MAX);
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
  const int target = static_cast<int>(idx(b.x, b.y));
  MazeScratch::Node& start = scratch.nodes[idx(a.x, a.y)];
  start.dist = 0.0;
  scratch.push_or_decrease({std::abs(a.x - b.x) + std::abs(a.y - b.y) * 1.0,
                            static_cast<int>(idx(a.x, a.y)), static_cast<int16_t>(a.x),
                            static_cast<int16_t>(a.y)},
                           start);
  while (!scratch.heap.empty()) {
    const MazeScratch::Entry top = scratch.pop();
    if (top.f > f_limit) return {};
    const int ci = top.idx;
    if (ci == target) break;
    const int cx = top.x;
    const int cy = top.y;
    const double d = scratch.nodes[static_cast<size_t>(ci)].dist;
    // Every queued entry is live, but past dist ~2^24 rounding in f = dist
    // + h can exceed 1e-9, and the lazy-deletion kernel this one replaced
    // skipped such an entry as stale. Skipping it too keeps every path
    // identical to that kernel's.
    if (top.f - (std::abs(cx - b.x) + std::abs(cy - b.y)) > d + 1e-9) continue;
    // Neighbours in the fixed order +x, -x, +y, -y; `ec` is the cached cost
    // of the edge between the current cell and (nx2, ny2), whose window
    // index is `nidx`.
    auto relax = [&](int nidx, int nx2, int ny2, double ec) {
      const double nd = d + ec;
      MazeScratch::Node& n = scratch.nodes[static_cast<size_t>(nidx)];
      if (nd < n.dist - 1e-12) {
        n.dist = nd;
        n.parent = ci;
        scratch.push_or_decrease({nd + std::abs(nx2 - b.x) + std::abs(ny2 - b.y),
                                  nidx, static_cast<int16_t>(nx2),
                                  static_cast<int16_t>(ny2)},
                                 n);
      }
    };
    if (cx < xhi) relax(ci + 1, cx + 1, cy, cost_h[view.h_idx(cx, cy)]);
    if (cx > xlo) relax(ci - 1, cx - 1, cy, cost_h[view.h_idx(cx - 1, cy)]);
    if (cy < yhi) relax(ci + w, cx, cy + 1, cost_v[view.v_idx(cx, cy)]);
    if (cy > ylo) relax(ci - w, cx, cy - 1, cost_v[view.v_idx(cx, cy - 1)]);
  }
  if (scratch.nodes[static_cast<size_t>(target)].dist >= 1e17) return {};
  std::vector<Cell> path;
  int ci = target;
  while (ci >= 0) {
    path.push_back({xlo + ci % w, ylo + ci / w});
    ci = scratch.nodes[static_cast<size_t>(ci)].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace m3d::route
