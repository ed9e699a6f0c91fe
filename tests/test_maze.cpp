// Equivalence of the router's decrease-key maze kernel (src/route/maze.cpp)
// with the lazy-deletion A* it replaced, kept here as the oracle, and of a
// bounded search's decision with the unbounded search's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "route/maze.hpp"
#include "util/rng.hpp"

namespace m3d {
namespace {

using route::Cell;
using route::CostView;

struct OracleStats {
  long stale_skipped = 0;     // pops dropped by the 1e-9 stale test
  long stale_reexpanded = 0;  // pops of an out-of-date entry that expanded
};

/// The lazy-deletion kernel: every successful relax pushes a fresh entry,
/// and a pop whose f is more than 1e-9 above its cell's current dist + h is
/// skipped as stale. Same relax rule, neighbour order and (f, idx) pop
/// order as the router used before its heap became indexed.
std::vector<Cell> lazy_maze_route(const CostView& view, const Cell& a, const Cell& b,
                                  int margin, OracleStats* stats) {
  const int xlo = std::max(0, std::min(a.x, b.x) - margin);
  const int xhi = std::min(view.nx - 1, std::max(a.x, b.x) + margin);
  const int ylo = std::max(0, std::min(a.y, b.y) - margin);
  const int yhi = std::min(view.ny - 1, std::max(a.y, b.y) + margin);
  const int w = xhi - xlo + 1, h = yhi - ylo + 1;
  auto idx = [&](int x, int y) { return static_cast<size_t>((y - ylo) * w + (x - xlo)); };
  std::vector<double> dist(static_cast<size_t>(w * h), 1e18);
  std::vector<int> parent(static_cast<size_t>(w * h), -1);
  // Entry f of the most recent push per cell, to tell stale pops apart.
  std::vector<double> live_f(static_cast<size_t>(w * h), -1.0);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[idx(a.x, a.y)] = 0.0;
  live_f[idx(a.x, a.y)] = std::abs(a.x - b.x) + std::abs(a.y - b.y) * 1.0;
  pq.push({live_f[idx(a.x, a.y)], static_cast<int>(idx(a.x, a.y))});
  while (!pq.empty()) {
    const auto [f, ci] = pq.top();
    pq.pop();
    const int cx = xlo + ci % w;
    const int cy = ylo + ci / w;
    if (cx == b.x && cy == b.y) break;
    const double d = dist[static_cast<size_t>(ci)];
    const bool stale = f != live_f[static_cast<size_t>(ci)];
    if (f - (std::abs(cx - b.x) + std::abs(cy - b.y)) > d + 1e-9) {
      if (stale) ++stats->stale_skipped;
      continue;
    }
    if (stale) ++stats->stale_reexpanded;
    auto relax = [&](int nx2, int ny2, double ec) {
      const double nd = d + ec;
      const size_t nidx = idx(nx2, ny2);
      if (nd < dist[nidx] - 1e-12) {
        dist[nidx] = nd;
        parent[nidx] = ci;
        live_f[nidx] = nd + std::abs(nx2 - b.x) + std::abs(ny2 - b.y);
        pq.push({live_f[nidx], static_cast<int>(nidx)});
      }
    };
    if (cx < xhi) relax(cx + 1, cy, view.cost_h[view.h_idx(cx, cy)]);
    if (cx > xlo) relax(cx - 1, cy, view.cost_h[view.h_idx(cx - 1, cy)]);
    if (cy < yhi) relax(cx, cy + 1, view.cost_v[view.v_idx(cx, cy)]);
    if (cy > ylo) relax(cx, cy - 1, view.cost_v[view.v_idx(cx, cy - 1)]);
  }
  if (dist[idx(b.x, b.y)] >= 1e17) return {};
  std::vector<Cell> path;
  int ci = static_cast<int>(idx(b.x, b.y));
  while (ci >= 0) {
    path.push_back({xlo + ci % w, ylo + ci / w});
    ci = parent[static_cast<size_t>(ci)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// One level's edge costs on an nx x ny grid.
struct Costs {
  int nx, ny;
  std::vector<double> h, v;
  CostView view() const { return {nx, ny, h.data(), v.data()}; }
};

/// Integer costs in [1, 4] — many exact f ties — each perturbed by a
/// uniform draw in [-eps, eps].
Costs random_costs(util::Rng& rng, int nx, int ny, double eps) {
  Costs c{nx, ny, {}, {}};
  auto draw = [&] { return static_cast<double>(rng.range(1, 4)) + rng.uniform(-eps, eps); };
  c.h.resize(static_cast<size_t>((nx - 1) * ny));
  c.v.resize(static_cast<size_t>(nx * (ny - 1)));
  for (double& e : c.h) e = draw();
  for (double& e : c.v) e = draw();
  return c;
}

Cell random_cell(util::Rng& rng, int nx, int ny) {
  return {static_cast<int>(rng.below(static_cast<uint64_t>(nx))),
          static_cast<int>(rng.below(static_cast<uint64_t>(ny)))};
}

/// A cell within two gcells of a random grid corner.
Cell corner_cell(util::Rng& rng, int nx, int ny) {
  const int dx = static_cast<int>(rng.below(3));
  const int dy = static_cast<int>(rng.below(3));
  return {rng.chance(0.5) ? std::min(dx, nx - 1) : std::max(nx - 1 - dx, 0),
          rng.chance(0.5) ? std::min(dy, ny - 1) : std::max(ny - 1 - dy, 0)};
}

bool same_path(const std::vector<Cell>& p, const std::vector<Cell>& q) {
  return std::equal(p.begin(), p.end(), q.begin(), q.end(),
                    [](const Cell& s, const Cell& t) { return s.x == t.x && s.y == t.y; });
}

/// Grid sides drawn from [2, max_side], margins from [min_margin, max_margin].
struct Shape {
  int max_side = 28;
  int min_margin = 0;
  int max_margin = 6;
};

/// Routes `trials` random two-pins on fresh random grids with both kernels
/// and requires identical paths. Returns the oracle's stale-pop tallies.
OracleStats expect_kernels_agree(uint64_t seed, double eps, int trials,
                                 const Shape& shape = {}) {
  util::Rng rng(seed);
  OracleStats stats;
  for (int t = 0; t < trials; ++t) {
    const int nx = static_cast<int>(rng.range(2, shape.max_side));
    const int ny = static_cast<int>(rng.range(2, shape.max_side));
    const Costs c = random_costs(rng, nx, ny, eps);
    const int margin = static_cast<int>(rng.range(shape.min_margin, shape.max_margin));
    const int kind = static_cast<int>(rng.below(4));
    Cell a = kind == 1 ? corner_cell(rng, nx, ny) : random_cell(rng, nx, ny);
    const Cell b = kind == 1 ? corner_cell(rng, nx, ny) : random_cell(rng, nx, ny);
    if (kind == 2) a = b;
    const auto want = lazy_maze_route(c.view(), a, b, margin, &stats);
    const auto got = route::maze_route(c.view(), a, b, margin);
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(same_path(got, want))
        << "seed " << seed << " trial " << t << ": " << nx << "x" << ny << " margin "
        << margin << " (" << a.x << "," << a.y << ")->(" << b.x << "," << b.y << ")";
  }
  return stats;
}

TEST(Maze, MatchesLazyOracleOnIntegerCosts) {
  expect_kernels_agree(101, 0.0, 3000);
}

TEST(Maze, MatchesLazyOracleInsideTheRelaxBand) {
  // Perturbations of ~5e-13 straddle the relax tolerance (1e-12).
  const OracleStats s = expect_kernels_agree(202, 5e-13, 3000);
  EXPECT_GT(s.stale_reexpanded, 0);
}

TEST(Maze, MatchesLazyOracleInsideTheStaleBand) {
  // Perturbations of ~5e-10 land improvements between the relax (1e-12)
  // and stale (1e-9) tolerances, where the old kernel re-expanded a cell
  // from an out-of-date entry, as well as above the stale tolerance.
  const OracleStats s = expect_kernels_agree(303, 5e-10, 3000);
  EXPECT_GT(s.stale_reexpanded, 0);
  EXPECT_GT(s.stale_skipped, 0);
}

TEST(Maze, MatchesLazyOracleOnRealValuedCosts) {
  const OracleStats s = expect_kernels_agree(404, 0.5, 3000);
  EXPECT_GT(s.stale_skipped, 0);
}

TEST(Maze, MatchesLazyOracleAtRouterScale) {
  // The router's real sizes: grids up to 96 x 96 and margin 12, so windows
  // reach ~120 x 120 cells and the heap runs hundreds of entries deep.
  const Shape router{96, 12, 12};
  expect_kernels_agree(505, 0.0, 150, router);
  expect_kernels_agree(606, 5e-10, 150, router);
  const OracleStats s = expect_kernels_agree(707, 0.5, 150, router);
  EXPECT_GT(s.stale_skipped, 0);
}

TEST(Maze, MatchesLazyOracleWhenRoundingSkipsALiveEntry) {
  // Above 2^24 doubles are 2^-28 (3.7e-9) apart, so d + 1e-9 == d. Cell
  // (1, 0) gets dist c = 2^25 - 1 + 3 * 2^-28 and h = 1; c + 1 rounds up to
  // 2^25 + 2^-26, so its only entry reads f - h = c + 2^-28 > c and the old
  // kernel's 1e-9 test drops it. The target is then unreachable, and both
  // kernels must report failure.
  const double c = 0x1p25 - 1.0 + 3.0 * 0x1p-28;
  const Costs grid{3, 1, {c, 1.0}, {}};
  OracleStats stats;
  EXPECT_TRUE(lazy_maze_route(grid.view(), {0, 0}, {2, 0}, 0, &stats).empty());
  EXPECT_TRUE(route::maze_route(grid.view(), {0, 0}, {2, 0}, 0).empty());
}

/// Router-like costs: every edge costs at least 1 (the bound's
/// precondition), mostly small integers with many exact ties, some with a
/// congestion penalty in the hundreds, each raised by a draw in [0, eps].
Costs router_costs(util::Rng& rng, int nx, int ny, double eps) {
  Costs c{nx, ny, {}, {}};
  auto draw = [&] {
    double e = static_cast<double>(rng.range(1, 3)) + rng.uniform(0.0, eps);
    if (rng.chance(0.1)) e += rng.uniform(0.0, 400.0);
    return e;
  };
  c.h.resize(static_cast<size_t>((nx - 1) * ny));
  c.v.resize(static_cast<size_t>(nx * (ny - 1)));
  for (double& e : c.h) e = draw();
  for (double& e : c.v) e = draw();
  return c;
}

TEST(Maze, BoundedSearchMakesTheUnboundedDecision) {
  // The router searches the other levels with f_limit = maze_f_limit(
  // best_cost - via_cost) and keeps a path when path_cost + via_cost <
  // best_cost. That must be the decision, and on accept the path, of an
  // unbounded search followed by the same test, for best costs far from,
  // near and within 1e-9 of the path's cost.
  util::Rng rng(808);
  long stopped = 0, straddled = 0, accepted = 0;
  for (int t = 0; t < 300; ++t) {
    const int nx = static_cast<int>(rng.range(2, 96));
    const int ny = static_cast<int>(rng.range(2, 96));
    const Costs c = router_costs(rng, nx, ny, t % 2 == 0 ? 0.0 : 1e-6);
    const Cell a = random_cell(rng, nx, ny);
    const Cell b = t % 10 == 0 ? a : random_cell(rng, nx, ny);
    const auto want = route::maze_route(c.view(), a, b, 12);
    ASSERT_FALSE(want.empty());
    const double cost = route::path_cost(c.view(), want);
    for (double via_cost : {0.0, 4.0}) {
      const double at = cost + via_cost;
      std::vector<double> best = {at,
                                  std::nextafter(at, 0.0),
                                  std::nextafter(at, 1e18),
                                  1e18,
                                  0.0,
                                  at * rng.uniform(0.5, 1.0),
                                  at * rng.uniform(1.0, 1.5)};
      for (double d : {1e-12, 1e-11, 1e-10, 5e-10, 9e-10}) {
        best.push_back(at - d);
        best.push_back(at + d);
      }
      for (double best_cost : best) {
        const auto got = route::maze_route(c.view(), a, b, 12,
                                           route::maze_f_limit(best_cost - via_cost));
        const bool want_accept = cost + via_cost < best_cost;
        const bool got_accept =
            !got.empty() && route::path_cost(c.view(), got) + via_cost < best_cost;
        EXPECT_EQ(got_accept, want_accept)
            << "trial " << t << " via " << via_cost << " best " << best_cost << " cost "
            << cost;
        if (want_accept) {
          EXPECT_TRUE(same_path(got, want)) << "trial " << t;
          ++accepted;
        }
        if (got.empty()) ++stopped;
        if (std::abs(best_cost - at) < 1e-9) ++straddled;
      }
    }
  }
  EXPECT_GT(stopped, 0);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(straddled, 0);
}

TEST(Maze, PathCostSumsTheEdgesAlongThePath) {
  // 3 x 2 grid: h edges (0,0)-(1,0) = 1, (1,0)-(2,0) = 2, (0,1)-(1,1) = 4,
  // (1,1)-(2,1) = 8; v edges (0,0)-(0,1) = 16, (1,0)-(1,1) = 32,
  // (2,0)-(2,1) = 64.
  const Costs grid{3, 2, {1.0, 2.0, 4.0, 8.0}, {16.0, 32.0, 64.0}};
  EXPECT_EQ(route::path_cost(grid.view(), {{0, 0}, {1, 0}, {1, 1}, {2, 1}}), 41.0);
  EXPECT_EQ(route::path_cost(grid.view(), {{2, 1}, {2, 0}, {1, 0}}), 66.0);
  EXPECT_EQ(route::path_cost(grid.view(), {{1, 1}}), 0.0);
  EXPECT_EQ(route::maze_route(grid.view(), {0, 0}, {2, 1}, 0).size(), 4u);
  EXPECT_TRUE(route::maze_route(grid.view(), {0, 0}, {2, 1}, 0, 2.0).empty());
}

}  // namespace
}  // namespace m3d
