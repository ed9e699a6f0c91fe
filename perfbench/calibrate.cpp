#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr int kSide = 512;  // grid nodes per side
constexpr int kRuns = 5;    // kernel runs per calibrate() call

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

using Item = std::pair<double, int>;

// Everything a kernel run touches. It is allocated and first touched once,
// so a run allocates nothing and takes no page faults: its CPU time does
// not depend on the state of the process's heap.
struct Grid {
  std::vector<float> cost;
  std::vector<double> dist;
  std::vector<Item> heap;  // binary min-heap on distance
  Grid() : cost(kSide * kSide), dist(kSide * kSide) {
    heap.reserve(4 * kSide * kSide + 1);  // each relaxation pushes once
    uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64
    for (float& c : cost) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = 1.0f + static_cast<float>(x >> 40) * (8.0f / 16777216.0f);
    }
  }
};

/// One kernel run: shortest paths from a fixed source; returns a checksum of
/// the distances.
uint64_t shortest_paths(Grid* g) {
  std::fill(g->dist.begin(), g->dist.end(), std::numeric_limits<double>::infinity());
  std::vector<Item>& heap = g->heap;
  heap.clear();
  const auto later = std::greater<Item>();
  auto push = [&](Item item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), later);
  };
  const int src = (kSide / 3) * kSide + kSide / 5;
  g->dist[src] = 0.0;
  push({0.0, src});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > g->dist[u]) continue;
    const int r = u / kSide;
    const int c = u % kSide;
    auto relax = [&](int v) {
      const double nd = d + g->cost[v];
      if (nd < g->dist[v]) {
        g->dist[v] = nd;
        push({nd, v});
      }
    };
    if (r > 0) relax(u - kSide);
    if (r + 1 < kSide) relax(u + kSide);
    if (c > 0) relax(u - 1);
    if (c + 1 < kSide) relax(u + 1);
  }
  uint64_t h = 1469598103934665603ull;
  for (double d : g->dist) h = (h ^ static_cast<uint64_t>(d * 1024.0)) * 1099511628211ull;
  return h;
}

}  // namespace

bool calibrate(std::vector<double>* cpu_s) {
  static Grid grid;
  static const uint64_t expected = shortest_paths(&grid);
  bool same = true;
  for (int i = 0; i < kRuns; ++i) {
    const double t0 = thread_cpu_seconds();
    same = shortest_paths(&grid) == expected && same;
    cpu_s->push_back(thread_cpu_seconds() - t0);
  }
  return same;
}

}  // namespace perfbench
