#include "route/maze.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "obs/mem.hpp"

namespace m3d::route {
namespace {

/// Per-thread maze scratch: the per-cell search records plus the open set.
///
/// One packed 16-byte {dist, parent, slot} record per window cell,
/// allocated once per thread; begin() fills the window's records with
/// {1e18, -1, -1}, so repeated maze calls do no allocation and every read
/// sees only the current call's state. The fill is a few microseconds
/// against a search of ~100 us, and it costs no stamp test per relaxation.
///
/// The open set holds at most one entry per cell and pops them in (f, idx)
/// order — the total order in which
/// std::priority_queue<std::pair<double, int>, ..., std::greater<>> pops.
/// It has two levels. An entry whose band(f) is at most `cur` sits in an
/// indexed 4-ary min-heap with decrease-key; a later one waits, unordered,
/// in ring bucket band & (kMazeRingBands - 1). band() is monotone in f, so
/// every heap entry has a smaller f than every bucketed entry: the heap
/// minimum is the global minimum, and entries pop in exactly the order a
/// single heap over all of them pops. When the heap runs dry, refill()
/// advances `cur` to the lowest bucketed band and moves that band's
/// entries into the heap.
///
/// A cell's `slot` says where its entry is: its heap position (>= 0), -1
/// while the cell is not queued, or -2 - k while it waits in bucket record
/// k. A bucket is a doubly linked list of records drawn from one pooled
/// array, so filing, moving and unfiling an entry is O(1); freed records
/// are reused, and the pool grows only to the most entries ever bucketed
/// at once. Entries are 16 bytes and carry their cell's coordinates,
/// which saves each pop a divide and a modulo; a heap node's four children
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
  /// A bucketed entry and its neighbours in its bucket's list: `next` is
  /// the next record or -1; `prev` is the previous record, or -1 - r at the
  /// head of bucket r. A free record's `next` links the free list.
  struct Record {
    Entry e;
    int next, prev;
  };
  static_assert(sizeof(Node) == 16 && sizeof(Entry) == 16 && sizeof(Record) == 24);
  static constexpr int kRing = kMazeRingBands;
  static constexpr int kWords = kRing / 64;
  static_assert(kRing % 64 == 0 && (kRing & (kRing - 1)) == 0);
  /// Bands are clamped to +-kBandCap, which keeps them monotone and leaves
  /// room for `cur + 1` and `cur - 1` without overflow.
  static constexpr int64_t kBandCap = int64_t{1} << 62;

  // obs::vector: the maze arrays are the router's dominant allocations, so
  // they opt into the counting allocator for the per-stage memory profile.
  obs::vector<Node> nodes;
  obs::vector<Entry> heap;
  obs::vector<Record> records;
  int free_record = -1;                     // head of the free list
  std::array<uint64_t, kWords> occupied{};  // bit r set iff bucket r is non-empty
  std::array<int, kRing> head{};            // bucket r's first record, while bit r is set
  int64_t cur = 0;                          // highest band the heap may hold
  size_t bucketed = 0;                      // entries in the ring

  /// The band of key f: trunc(f * kMazeBandsPerUnit), clamped. A rounded
  /// product by a positive constant, truncation and clamping are each
  /// monotone, so f <= g implies band(f) <= band(g).
  static int64_t band(double f) {
    const double s = f * kMazeBandsPerUnit;
    if (!(s < static_cast<double>(kBandCap))) return kBandCap;
    if (s <= -static_cast<double>(kBandCap)) return -kBandCap;
    return static_cast<int64_t>(s);
  }

  /// Starts a maze over `cells` cells with an empty open set whose first
  /// entry has key `f0`: every cell unreached, unparented and unqueued.
  void begin(size_t cells, double f0) {
    if (nodes.size() < cells) nodes.resize(cells);
    std::fill_n(nodes.begin(), cells, Node{1e18, -1, -1});
    heap.clear();
    records.clear();
    free_record = -1;
    occupied.fill(0);
    bucketed = 0;
    cur = band(f0);
  }

  /// Queues `e` for its cell `n`, or moves the cell's queued entry to the
  /// new key. A queued cell's f only falls: the caller lowers `dist` before
  /// requeueing, and f = dist + h with a fixed h per cell. So a heap entry
  /// keeps a band of at most `cur` and moves up in place; a bucketed entry
  /// moves to its new band's bucket, or into the heap once that band is
  /// `cur` or lower.
  void push_or_decrease(const Entry& e, Node& n) {
    if (n.slot >= 0) {
      assert(!less(heap[static_cast<size_t>(n.slot)], e));
      sift_up(static_cast<size_t>(n.slot), e);
      return;
    }
    const int64_t b = band(e.f);
    if (n.slot < -1) {
      const int k = -2 - n.slot;
      Record& rec = records[static_cast<size_t>(k)];
      if (b > cur && ring(b) == ring(band(rec.e.f))) {
        rec.e.f = e.f;
        return;
      }
      unfile(k);
      release(k);
      n.slot = -1;
    }
    if (b <= cur) {
      heap.push_back(e);
      sift_up(heap.size() - 1, e);
    } else {
      const int k = acquire();
      records[static_cast<size_t>(k)].e = e;
      file(k, ring(b));
      n.slot = -2 - k;
    }
  }

  /// Removes the minimum entry into `top` and returns true, or returns
  /// false when the open set is empty. The popped cell is no longer queued.
  ///
  /// A node with four children picks the smallest by two pairwise `less`
  /// results and one select. Entries are distinct under (f, idx) — one per
  /// cell — so the minimum is unique and any comparison order finds the
  /// child the left-to-right scan finds.
  bool pop(Entry& top) {
    if (heap.empty() && !refill()) return false;
    top = heap.front();
    nodes[static_cast<size_t>(top.idx)].slot = -1;
    const Entry last = heap.back();
    heap.pop_back();
    const size_t n = heap.size();
    if (n == 0) return true;
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
    return true;
  }

 private:
  /// (f, idx) order without short-circuit branches.
  static size_t less(const Entry& a, const Entry& b) {
    return static_cast<size_t>(a.f < b.f) |
           (static_cast<size_t>(a.f == b.f) & static_cast<size_t>(a.idx < b.idx));
  }
  static int ring(int64_t b) { return static_cast<int>(static_cast<uint64_t>(b) & (kRing - 1)); }
  void place(size_t i, const Entry& e) {
    heap[i] = e;
    nodes[static_cast<size_t>(e.idx)].slot = static_cast<int>(i);
  }
  /// Moves `e`, at heap position i, toward the root to its place.
  void sift_up(size_t i, const Entry& e) {
    while (i > 0) {
      const size_t up = (i - 1) / 4;
      if (!less(e, heap[up])) break;
      place(i, heap[up]);
      i = up;
    }
    place(i, e);
  }

  int acquire() {
    if (free_record < 0) {
      records.emplace_back();
      return static_cast<int>(records.size() - 1);
    }
    const int k = free_record;
    free_record = records[static_cast<size_t>(k)].next;
    return k;
  }
  void release(int k) {
    records[static_cast<size_t>(k)].next = free_record;
    free_record = k;
  }
  /// Links record k at the front of bucket r.
  void file(int k, int r) {
    uint64_t& word = occupied[static_cast<size_t>(r >> 6)];
    const uint64_t bit = uint64_t{1} << (r & 63);
    Record& rec = records[static_cast<size_t>(k)];
    rec.prev = -1 - r;
    rec.next = (word & bit) != 0 ? head[static_cast<size_t>(r)] : -1;
    if (rec.next >= 0) records[static_cast<size_t>(rec.next)].prev = k;
    word |= bit;
    head[static_cast<size_t>(r)] = k;
    ++bucketed;
  }
  /// Unlinks record k from its bucket.
  void unfile(int k) {
    const Record& rec = records[static_cast<size_t>(k)];
    if (rec.prev >= 0) {
      records[static_cast<size_t>(rec.prev)].next = rec.next;
    } else {
      const int r = -1 - rec.prev;
      head[static_cast<size_t>(r)] = rec.next;
      if (rec.next < 0) occupied[static_cast<size_t>(r >> 6)] &= ~(uint64_t{1} << (r & 63));
    }
    if (rec.next >= 0) records[static_cast<size_t>(rec.next)].prev = rec.prev;
    --bucketed;
  }

  /// The first non-empty bucket at or after ring position r, wrapping
  /// (at least one bucket must be non-empty).
  int next_occupied(int r) const {
    size_t k = static_cast<size_t>(r >> 6);
    uint64_t bits = occupied[k] & (~uint64_t{0} << (r & 63));
    while (bits == 0) {
      k = (k + 1) % kWords;
      bits = occupied[k];
    }
    return static_cast<int>(k * 64) + std::countr_zero(bits);
  }

  /// Refills the empty heap with the lowest bucketed band, which becomes
  /// `cur`; returns false when the ring is empty too.
  ///
  /// Bands cur + 1, cur + 2, ... map to consecutive buckets, so the first
  /// non-empty bucket from ring(cur + 1) stands for the lowest band `want`
  /// that can be bucketed. Its entries of band `want` move to the heap;
  /// any other entry there is a whole lap of the ring or more ahead and is
  /// filed back. If the bucket held no entry of band `want`, every
  /// bucketed entry is more than a lap ahead: one pass over the ring finds
  /// the lowest band, and the next try starts just below it.
  bool refill() {
    if (bucketed == 0) return false;
    for (;;) {
      const int from = ring(cur + 1);
      const int r = next_occupied(from);
      const int64_t want = cur + 1 + ((r - from) & (kRing - 1));
      int k = head[static_cast<size_t>(r)];
      occupied[static_cast<size_t>(r >> 6)] &= ~(uint64_t{1} << (r & 63));
      while (k >= 0) {
        const Record& rec = records[static_cast<size_t>(k)];
        const int next = rec.next;
        --bucketed;
        if (band(rec.e.f) == want) {
          heap.push_back(rec.e);
          sift_up(heap.size() - 1, rec.e);
          release(k);
        } else {
          file(k, r);
        }
        k = next;
      }
      if (!heap.empty()) {
        cur = want;
        return true;
      }
      int64_t lowest = kBandCap;
      for (size_t word = 0; word < kWords; ++word) {
        for (uint64_t bits = occupied[word]; bits != 0; bits &= bits - 1) {
          const size_t q = word * 64 + static_cast<size_t>(std::countr_zero(bits));
          for (int j = head[q]; j >= 0; j = records[static_cast<size_t>(j)].next) {
            lowest = std::min(lowest, band(records[static_cast<size_t>(j)].e.f));
          }
        }
      }
      cur = lowest - 1;
    }
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
  const double start_f = std::abs(a.x - b.x) + std::abs(a.y - b.y) * 1.0;
  thread_local MazeScratch scratch;
  scratch.begin(static_cast<size_t>(w * h), start_f);
  const double* cost_h = view.cost_h;
  const double* cost_v = view.cost_v;
  const int target = static_cast<int>(idx(b.x, b.y));
  MazeScratch::Node& start = scratch.nodes[idx(a.x, a.y)];
  start.dist = 0.0;
  scratch.push_or_decrease({start_f, static_cast<int>(idx(a.x, a.y)),
                            static_cast<int16_t>(a.x), static_cast<int16_t>(a.y)},
                           start);
  MazeScratch::Entry top;
  while (scratch.pop(top)) {
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
