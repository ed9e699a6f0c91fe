// The router's one-pass batch schedule (src/route/schedule.cpp) against the
// round-by-round greedy packer it replaced, kept here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/flow.hpp"
#include "liberty/analytic.hpp"
#include "route/route.hpp"
#include "route/schedule.hpp"
#include "util/rng.hpp"

namespace m3d {
namespace {

using route::Window;

/// The old packer: each round scans the windows the earlier rounds
/// deferred, in order, and takes every one that overlaps none of the
/// round's earlier picks into the round's batch.
std::vector<std::vector<int>> round_by_round(const std::vector<Window>& windows) {
  std::vector<int> todo(windows.size());
  for (size_t i = 0; i < todo.size(); ++i) todo[i] = static_cast<int>(i);
  std::vector<std::vector<int>> batches;
  while (!todo.empty()) {
    std::vector<int> batch, deferred;
    std::vector<Window> picked;
    for (int i : todo) {
      const Window& w = windows[static_cast<size_t>(i)];
      bool clash = false;
      for (const Window& p : picked) {
        if (route::overlaps(w, p)) {
          clash = true;
          break;
        }
      }
      if (clash) {
        deferred.push_back(i);
      } else {
        batch.push_back(i);
        picked.push_back(w);
      }
    }
    batches.push_back(std::move(batch));
    todo = std::move(deferred);
  }
  return batches;
}

void expect_oracle_schedule(const std::vector<Window>& windows, int nx, int ny,
                            const char* what) {
  const route::Schedule s = route::schedule_batches(windows, nx, ny);
  const auto want = round_by_round(windows);
  ASSERT_EQ(s.batches(), static_cast<int>(want.size())) << what;
  ASSERT_EQ(s.start.back(), static_cast<int>(windows.size())) << what;
  for (int k = 0; k < s.batches(); ++k) {
    const std::vector<int> got(s.members.begin() + s.start[static_cast<size_t>(k)],
                               s.members.begin() + s.start[static_cast<size_t>(k) + 1]);
    ASSERT_EQ(got, want[static_cast<size_t>(k)]) << what << ": batch " << k;
  }
}

/// A random window on an nx x ny grid: a random rectangle, the full grid,
/// a repeat of an earlier window, a single cell, or a router window (two
/// cells' bbox inflated by 12 and clipped at the grid's edges).
Window random_window(util::Rng& rng, int nx, int ny, const std::vector<Window>& earlier) {
  auto coord = [&](int n) { return static_cast<int>(rng.below(static_cast<uint64_t>(n))); };
  switch (rng.below(5)) {
    case 0: {
      const int x0 = coord(nx), x1 = coord(nx), y0 = coord(ny), y1 = coord(ny);
      return {std::min(x0, x1), std::max(x0, x1), std::min(y0, y1), std::max(y0, y1)};
    }
    case 1:
      return {0, nx - 1, 0, ny - 1};
    case 2:
      if (!earlier.empty()) return earlier[rng.below(earlier.size())];
      [[fallthrough]];
    case 3: {
      const int x = coord(nx), y = coord(ny);
      return {x, x, y, y};
    }
    default: {
      const int x0 = coord(nx), x1 = coord(nx), y0 = coord(ny), y1 = coord(ny);
      return {std::max(0, std::min(x0, x1) - 12), std::min(nx - 1, std::max(x0, x1) + 12),
              std::max(0, std::min(y0, y1) - 12), std::min(ny - 1, std::max(y0, y1) + 12)};
    }
  }
}

TEST(Schedule, MatchesRoundByRoundPackerOnRandomWindows) {
  util::Rng rng(2024);
  for (int t = 0; t < 400; ++t) {
    const int nx = static_cast<int>(rng.range(1, 96));
    const int ny = static_cast<int>(rng.range(1, 96));
    // Up to a few hundred windows, so batch ids cross several 64-bit words.
    const int n = static_cast<int>(rng.range(0, t % 4 == 0 ? 600 : 80));
    std::vector<Window> windows;
    for (int i = 0; i < n; ++i) windows.push_back(random_window(rng, nx, ny, windows));
    expect_oracle_schedule(windows, nx, ny, "random");
  }
}

TEST(Schedule, EdgeCases) {
  expect_oracle_schedule({}, 96, 96, "no windows");
  // Full-grid windows each need a batch of their own.
  const std::vector<Window> full(130, Window{0, 95, 0, 95});
  const route::Schedule s = route::schedule_batches(full, 96, 96);
  EXPECT_EQ(s.batches(), 130);
  expect_oracle_schedule(full, 96, 96, "full grid");
  // Disjoint single cells all fit in one batch.
  std::vector<Window> cells;
  for (int y = 0; y < 7; ++y) {
    for (int x = 0; x < 5; ++x) cells.push_back({x, x, y, y});
  }
  EXPECT_EQ(route::schedule_batches(cells, 5, 7).batches(), 1);
  expect_oracle_schedule(cells, 5, 7, "single cells");
  // A 1 x 1 grid.
  expect_oracle_schedule(std::vector<Window>(3, Window{0, 0, 0, 0}), 1, 1, "1x1");
}

TEST(Schedule, MatchesRoundByRoundPackerOnLdpcTwoPins) {
  // The preset LDPC (the paper's 0.33 utilisation, ~26k cells) through the
  // flow at a fixed clock; the router's first iteration then reroutes the
  // two-pins whose pattern routes overflow.
  const liberty::Library lib = liberty::analytic_library();
  flow::FlowOptions o = flow::preset(gen::Bench::kLdpc, tech::Node::k45nm);
  o.clock_ns = 8.5;
  o.lib = &lib;
  o.check_level = check::Level::kNone;
  const flow::FlowResult r = flow::run_flow(o);
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  const std::vector<Window> windows = route::first_rrr_windows(r.netlist, r.die, tch, {});
  ASSERT_GT(windows.size(), 1000u);
  expect_oracle_schedule(windows, r.routes.nx, r.routes.ny, "LDPC");
}

}  // namespace
}  // namespace m3d
