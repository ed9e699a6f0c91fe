#include "route/route.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/index.hpp"
#include "exec/exec.hpp"
#include "obs/trace.hpp"
#include "route/maze.hpp"
#include "route/schedule.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::route {
namespace {

/// Maze-search window inflation around a two-pin bbox, in gcells. Also the
/// inflation used to decide whether two reroutes are spatially disjoint.
constexpr int kMazeMargin = 12;

struct TwoPin {
  circuit::NetId net;
  int child_pin;   // pin index within the net's pin list (tree child)
  Cell a, b;       // a = parent side, b = child side
  int level = kLocal;
  std::vector<Cell> path;  // committed gcell path (including endpoints)
};

/// Routing-edge congestion state. Every edge's maze cost is cached in flat
/// per-level arrays (`cost_h`/`cost_v`) and refreshed, with the one
/// `cost_of` expression, whenever an input to it changes: once when the
/// capacities are set, per touched edge in add_path, per incremented edge in
/// add_history. Usage and history are private, so no write can bypass the
/// cache, and a cached cost is bitwise the value a fresh evaluation returns.
class Grid {
 public:
  Grid(int nx, int ny) : nx_(nx), ny_(ny) {
    for (int l = 0; l < kNumLevels; ++l) {
      usage_h_[l].assign(static_cast<size_t>((nx - 1) * ny), 0.0);
      usage_v_[l].assign(static_cast<size_t>(nx * (ny - 1)), 0.0);
      hist_h_[l].assign(usage_h_[l].size(), 0.0);
      hist_v_[l].assign(usage_v_[l].size(), 0.0);
      cost_h_[l].assign(usage_h_[l].size(), 0.0);
      cost_v_[l].assign(usage_v_[l].size(), 0.0);
    }
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  size_t h_idx(int i, int j) const { return CostView{nx_, ny_}.h_idx(i, j); }
  size_t v_idx(int i, int j) const { return CostView{nx_, ny_}.v_idx(i, j); }

  const std::array<std::vector<double>, kNumLevels>& usage_h_all() const { return usage_h_; }
  const std::array<std::vector<double>, kNumLevels>& usage_v_all() const { return usage_v_; }

  double cap_h(int l) const { return cap_h_[l]; }
  double cap_v(int l) const { return cap_v_[l]; }

  /// Sets the per-level edge capacities and fills the cost cache. Called
  /// once, before any path is added.
  void set_capacities(const double (&cap_h)[kNumLevels],
                      const double (&cap_v)[kNumLevels]) {
    for (int l = 0; l < kNumLevels; ++l) {
      cap_h_[l] = cap_h[l];
      cap_v_[l] = cap_v[l];
      for (size_t e = 0; e < cost_h_[l].size(); ++e) refresh_h(l, e);
      for (size_t e = 0; e < cost_v_[l].size(); ++e) refresh_v(l, e);
    }
  }

  /// Read-only view of level `l`'s cached maze costs, indexed like h_idx /
  /// v_idx.
  CostView costs(int l) const { return {nx_, ny_, cost_h_[l].data(), cost_v_[l].data()}; }

  void add_path(int l, const std::vector<Cell>& path, double delta) {
    for (size_t k = 0; k + 1 < path.size(); ++k) {
      const Cell& p = path[k];
      const Cell& q = path[k + 1];
      if (p.y == q.y) {
        const size_t e = h_idx(std::min(p.x, q.x), p.y);
        usage_h_[l][e] += delta;
        refresh_h(l, e);
      } else {
        const size_t e = v_idx(p.x, std::min(p.y, q.y));
        usage_v_[l][e] += delta;
        refresh_v(l, e);
      }
    }
  }

  void add_history() {
    for (int l = 0; l < kNumLevels; ++l) {
      for (size_t e = 0; e < usage_h_[l].size(); ++e) {
        if (usage_h_[l][e] > cap_h_[l]) {
          hist_h_[l][e] += 1.0;
          refresh_h(l, e);
        }
      }
      for (size_t e = 0; e < usage_v_[l].size(); ++e) {
        if (usage_v_[l][e] > cap_v_[l]) {
          hist_v_[l][e] += 1.0;
          refresh_v(l, e);
        }
      }
    }
  }

  int count_overflow(double* max_cong) const {
    int over = 0;
    double mc = 0.0;
    for (int l = 0; l < kNumLevels; ++l) {
      for (size_t e = 0; e < usage_h_[l].size(); ++e) {
        mc = std::max(mc, usage_h_[l][e] / std::max(cap_h_[l], 1e-9));
        if (usage_h_[l][e] > cap_h_[l] + 1e-9) ++over;
      }
      for (size_t e = 0; e < usage_v_[l].size(); ++e) {
        mc = std::max(mc, usage_v_[l][e] / std::max(cap_v_[l], 1e-9));
        if (usage_v_[l][e] > cap_v_[l] + 1e-9) ++over;
      }
    }
    if (max_cong != nullptr) *max_cong = mc;
    return over;
  }

  bool path_overflows(int l, const std::vector<Cell>& path) const {
    for (size_t k = 0; k + 1 < path.size(); ++k) {
      const Cell& p = path[k];
      const Cell& q = path[k + 1];
      if (p.y == q.y) {
        if (usage_h_[l][h_idx(std::min(p.x, q.x), p.y)] > cap_h_[l] + 1e-9) return true;
      } else {
        if (usage_v_[l][v_idx(p.x, std::min(p.y, q.y))] > cap_v_[l] + 1e-9) return true;
      }
    }
    return false;
  }

 private:
  static double cost_of(double cap, double use, double hist) {
    double cost = 1.0 + hist;
    const double ratio = (use + 1.0) / std::max(cap, 1e-9);
    if (ratio > 0.8) cost += 8.0 * (ratio - 0.8) * (ratio - 0.8) * 25.0;
    return cost;
  }
  void refresh_h(int l, size_t e) {
    cost_h_[l][e] = cost_of(cap_h_[l], usage_h_[l][e], hist_h_[l][e]);
  }
  void refresh_v(int l, size_t e) {
    cost_v_[l][e] = cost_of(cap_v_[l], usage_v_[l][e], hist_v_[l][e]);
  }

  int nx_, ny_;
  double cap_h_[kNumLevels] = {0, 0, 0};
  double cap_v_[kNumLevels] = {0, 0, 0};
  std::array<std::vector<double>, kNumLevels> usage_h_, usage_v_;
  std::array<std::vector<double>, kNumLevels> hist_h_, hist_v_;
  std::array<std::vector<double>, kNumLevels> cost_h_, cost_v_;
};

std::vector<Cell> l_path(const Cell& a, const Cell& b, bool x_first) {
  std::vector<Cell> path;
  Cell cur = a;
  path.push_back(cur);
  auto walk_x = [&] {
    while (cur.x != b.x) {
      cur.x += (b.x > cur.x) ? 1 : -1;
      path.push_back(cur);
    }
  };
  auto walk_y = [&] {
    while (cur.y != b.y) {
      cur.y += (b.y > cur.y) ? 1 : -1;
      path.push_back(cur);
    }
  };
  if (x_first) {
    walk_x();
    walk_y();
  } else {
    walk_y();
    walk_x();
  }
  return path;
}

/// A net's pins: [0] is the driver.
struct NetPins {
  std::vector<geom::Pt> pts;
  std::vector<int> sink_of_pin;  // pin index -> sink index (-1 for driver/pad)
};

/// The router's state once every two-pin has its pattern route.
struct Routing {
  Routing(double gcell_um, int cols, int rows)
      : gc(gcell_um), nx(cols), ny(rows), grid(cols, rows) {}

  double gc;
  int nx, ny;
  Grid grid;
  std::vector<TwoPin> twopins;
  std::vector<int> order;                   // two-pin indices, shortest first
  std::vector<NetPins> net_pins;            // per net
  std::vector<std::vector<int>> parent_of;  // per net: MST parent of pin k
};

/// Sizes the gcell grid and its capacities, splits every net into MST
/// two-pins and pattern-routes them, short connections first.
Routing pattern_route(const circuit::Netlist& nl, const place::Die& die,
                      const tech::Tech& tech, const RouteOptions& opt) {
  const double die_w = die.core.width();
  const double die_h = die.core.height();
  const double gc = std::max(std::max(die_w, die_h) / 96.0,
                             2.0 * die.row_height_um);
  const int nx = std::max(4, static_cast<int>(std::ceil(die_w / gc)));
  const int ny = std::max(4, static_cast<int>(std::ceil(die_h / gc)));
  Routing r(gc, nx, ny);
  Grid& grid = r.grid;

  // Edge capacities from the metal stack.
  double cap_h[kNumLevels] = {0, 0, 0};
  double cap_v[kNumLevels] = {0, 0, 0};
  for (const auto& layer : tech.stack().layers) {
    if (layer.level == tech::LayerLevel::kM1) continue;  // cell/pin layer
    int level = kLocal;
    if (layer.level == tech::LayerLevel::kIntermediate) level = kIntermediate;
    if (layer.level == tech::LayerLevel::kGlobal) level = kGlobal;
    const double tracks = gc / layer.pitch_um();
    if (layer.horizontal) {
      cap_h[level] += tracks;
    } else {
      cap_v[level] += tracks;
    }
  }
  // Local layers run over the cells; MIV/MB1 blockages inside T-MI cells
  // shave some local tracks (supplement S5).
  cap_h[kLocal] *= (1.0 - opt.local_blockage_frac);
  cap_v[kLocal] *= (1.0 - opt.local_blockage_frac);
  grid.set_capacities(cap_h, cap_v);

  auto to_cell = [&](const geom::Pt& p) {
    return Cell{std::clamp(static_cast<int>(p.x / gc), 0, nx - 1),
                std::clamp(static_cast<int>(p.y / gc), 0, ny - 1)};
  };

  // Level thresholds (um), scaled with the node.
  const double node_scale = tech.node() == tech::Node::k7nm ? 7.0 / 45.0 : 1.0;
  const double t_local = 60.0 * node_scale;
  const double t_inter = 400.0 * node_scale;

  obs::Span build_span("route.build_topology");
  const circuit::NetlistIndex net_index(nl);
  std::vector<TwoPin>& twopins = r.twopins;

  // Build per-net pin lists and MST topology.
  r.net_pins.resize(static_cast<size_t>(nl.num_nets()));
  r.parent_of.resize(static_cast<size_t>(nl.num_nets()));

  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    NetPins& np = r.net_pins[static_cast<size_t>(n)];
    // Driver pin.
    geom::Pt drv;
    if (net.driver.inst != circuit::kInvalid) {
      drv = nl.inst(net.driver.inst).pos;
    } else {
      // Indexed pad lookup; the span runs in port order, so keeping the
      // last input-port match reproduces the old full-scan loop exactly.
      for (int pi : net_index.ports_of_net(n)) {
        const auto& port = nl.ports()[static_cast<size_t>(pi)];
        if (port.is_input) drv = port.pos;
      }
    }
    np.pts.push_back(drv);
    np.sink_of_pin.push_back(-1);
    for (size_t k = 0; k < net.sinks.size(); ++k) {
      const auto& s = net.sinks[k];
      if (s.inst == circuit::kInvalid) continue;
      np.pts.push_back(nl.inst(s.inst).pos);
      np.sink_of_pin.push_back(static_cast<int>(k));
    }
    if (net.is_primary_output) {
      for (int pi : net_index.ports_of_net(n)) {
        const auto& port = nl.ports()[static_cast<size_t>(pi)];
        if (!port.is_input) {
          np.pts.push_back(port.pos);
          np.sink_of_pin.push_back(-1);
        }
      }
    }
    const int p = static_cast<int>(np.pts.size());
    if (p < 2) continue;
    // Prim MST rooted at the driver.
    std::vector<int>& parent = r.parent_of[static_cast<size_t>(n)];
    parent.assign(static_cast<size_t>(p), -1);
    std::vector<bool> in_tree(static_cast<size_t>(p), false);
    std::vector<double> best(static_cast<size_t>(p), 1e18);
    std::vector<int> best_par(static_cast<size_t>(p), 0);
    in_tree[0] = true;
    for (int k = 1; k < p; ++k) {
      best[static_cast<size_t>(k)] = geom::manhattan(np.pts[0], np.pts[static_cast<size_t>(k)]);
    }
    for (int it = 1; it < p; ++it) {
      int pick = -1;
      double bd = 1e18;
      for (int k = 1; k < p; ++k) {
        if (!in_tree[static_cast<size_t>(k)] && best[static_cast<size_t>(k)] < bd) {
          bd = best[static_cast<size_t>(k)];
          pick = k;
        }
      }
      if (pick < 0) break;
      in_tree[static_cast<size_t>(pick)] = true;
      parent[static_cast<size_t>(pick)] = best_par[static_cast<size_t>(pick)];
      for (int k = 1; k < p; ++k) {
        if (in_tree[static_cast<size_t>(k)]) continue;
        const double d = geom::manhattan(np.pts[static_cast<size_t>(pick)],
                                         np.pts[static_cast<size_t>(k)]);
        if (d < best[static_cast<size_t>(k)]) {
          best[static_cast<size_t>(k)] = d;
          best_par[static_cast<size_t>(k)] = pick;
        }
      }
    }
    for (int k = 1; k < p; ++k) {
      TwoPin tp;
      tp.net = n;
      tp.child_pin = k;
      tp.a = to_cell(np.pts[static_cast<size_t>(parent[static_cast<size_t>(k)])]);
      tp.b = to_cell(np.pts[static_cast<size_t>(k)]);
      const double len =
          geom::manhattan(np.pts[static_cast<size_t>(parent[static_cast<size_t>(k)])],
                          np.pts[static_cast<size_t>(k)]);
      tp.level = len <= t_local ? kLocal : (len <= t_inter ? kIntermediate : kGlobal);
      twopins.push_back(std::move(tp));
    }
    util::count("route.nets");
  }
  build_span.stop();
  util::count("route.twopins", static_cast<double>(twopins.size()));

  // Initial pattern routing, short connections first.
  obs::Span pattern_span("route.pattern");
  std::vector<int>& order = r.order;
  order.resize(twopins.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ta = twopins[static_cast<size_t>(a)];
    const auto& tb = twopins[static_cast<size_t>(b)];
    return std::abs(ta.a.x - ta.b.x) + std::abs(ta.a.y - ta.b.y) <
           std::abs(tb.a.x - tb.b.x) + std::abs(tb.a.y - tb.b.y);
  });
  for (int ti : order) {
    TwoPin& tp = twopins[static_cast<size_t>(ti)];
    const auto p1 = l_path(tp.a, tp.b, true);
    const auto p2 = l_path(tp.a, tp.b, false);
    const CostView costs = grid.costs(tp.level);
    tp.path = (path_cost(costs, p1) <= path_cost(costs, p2)) ? p1 : p2;
    grid.add_path(tp.level, tp.path, 1.0);
  }
  pattern_span.stop();
  return r;
}

/// The maze window of a two-pin: its pins' bbox inflated by kMazeMargin and
/// clipped to the nx x ny grid. It depends on the pins alone.
Window window_of(const TwoPin& tp, int nx, int ny) {
  return Window{std::max(0, std::min(tp.a.x, tp.b.x) - kMazeMargin),
                std::min(nx - 1, std::max(tp.a.x, tp.b.x) + kMazeMargin),
                std::max(0, std::min(tp.a.y, tp.b.y) - kMazeMargin),
                std::min(ny - 1, std::max(tp.a.y, tp.b.y) + kMazeMargin)};
}

/// The two-pins whose committed path overflows, shortest first: one
/// rip-up-and-reroute iteration's work list.
std::vector<int> overflowing(const Routing& r) {
  std::vector<int> todo;
  for (int ti : r.order) {
    const TwoPin& tp = r.twopins[static_cast<size_t>(ti)];
    if (r.grid.path_overflows(tp.level, tp.path)) todo.push_back(ti);
  }
  return todo;
}

}  // namespace

std::vector<Window> first_rrr_windows(const circuit::Netlist& nl, const place::Die& die,
                                      const tech::Tech& tech, const RouteOptions& opt) {
  const Routing r = pattern_route(nl, die, tech, opt);
  std::vector<Window> windows;
  if (opt.rrr_iters <= 0 || r.grid.count_overflow(nullptr) == 0) return windows;
  for (int ti : overflowing(r)) {
    windows.push_back(window_of(r.twopins[static_cast<size_t>(ti)], r.nx, r.ny));
  }
  return windows;
}

RouteResult global_route(const circuit::Netlist& nl, const place::Die& die,
                         const tech::Tech& tech, const RouteOptions& opt) {
  Routing r = pattern_route(nl, die, tech, opt);
  Grid& grid = r.grid;
  std::vector<TwoPin>& twopins = r.twopins;
  const int nx = r.nx, ny = r.ny;
  const double gc = r.gc;
  RouteResult result;
  result.nets.assign(static_cast<size_t>(nl.num_nets()), NetRoute{});

  // Rip-up and reroute, in batches of spatially disjoint two-pins. Each
  // iteration collects the overflowing two-pins (shortest first, like the
  // pattern pass) and schedules them up front into batches whose inflated
  // maze windows don't overlap (first fit in order, schedule.hpp). Then for
  // each batch it rips every member, reroutes every member against the
  // frozen batch-start grid — this is the parallel section; the grid is
  // read-only while the mazes run — and commits the results in order. The
  // schedule and every maze see only deterministic grid states, so the
  // routing is bit-identical at any thread count (the batched schedule
  // itself, not the thread count, is what differs from a one-at-a-time
  // sweep).
  obs::Span rrr_span("route.rrr");
  struct Reroute {
    int level = 0;
    std::vector<Cell> path;
    int maze_calls = 0;  // tallied per batch, posted once on this thread
  };
  for (int iter = 0; iter < opt.rrr_iters; ++iter) {
    double mc = 0.0;
    const int over = grid.count_overflow(&mc);
    util::debug(util::strf("route iter %d: overflow=%d maxcong=%.2f", iter, over, mc));
    if (over == 0) break;
    util::count("route.rrr_iters");
    grid.add_history();
    obs::Span pack_span("route.pack");
    const std::vector<int> todo = overflowing(r);
    std::vector<Window> windows;
    windows.reserve(todo.size());
    for (int ti : todo) windows.push_back(window_of(twopins[static_cast<size_t>(ti)], nx, ny));
    const Schedule schedule = schedule_batches(windows, nx, ny);
    pack_span.stop();
    obs::Span reroute_span("route.reroute");
    std::vector<int> batch;
    std::vector<Reroute> rerouted;
    for (int k = 0; k < schedule.batches(); ++k) {
      batch.clear();
      for (int m = schedule.start[static_cast<size_t>(k)];
           m < schedule.start[static_cast<size_t>(k) + 1]; ++m) {
        batch.push_back(todo[static_cast<size_t>(schedule.members[static_cast<size_t>(m)])]);
      }
      util::count("route.maze_batches");
      util::count("route.overflow_retries", static_cast<double>(batch.size()));
      // Rip every member first, so the mazes all route against the same
      // batch-start congestion state.
      for (int ti : batch) {
        TwoPin& tp = twopins[static_cast<size_t>(ti)];
        grid.add_path(tp.level, tp.path, -1.0);
      }
      rerouted.assign(batch.size(), Reroute{});
      exec::parallel_for(
          batch.size(),
          [&](size_t bb, size_t be) {
            for (size_t bi = bb; bi < be; ++bi) {
              const TwoPin& tp = twopins[static_cast<size_t>(batch[bi])];
              // Try levels: preferred, then one up, then one down, each
              // that exists. The grid is frozen for the batch, so a level
              // is searched at most once.
              int best_level = tp.level;
              std::vector<Cell> best_path;
              double best_cost = 1e18;
              for (int l : {tp.level, tp.level + 1, tp.level - 1}) {
                if (l < kLocal || l > kGlobal) continue;
                ++rerouted[bi].maze_calls;
                // Level changes cost vias; bias toward the preferred level.
                const double via_cost = 4.0 * std::abs(l - tp.level);
                // Once a path is in hand, a search on another level is
                // wanted only if its path costs less than best_cost -
                // via_cost, so it may stop as soon as it proves it cannot
                // find one. It then fails like a search that found no path.
                const double f_limit = best_path.empty()
                                           ? std::numeric_limits<double>::infinity()
                                           : maze_f_limit(best_cost - via_cost);
                auto path = maze_route(grid.costs(l), tp.a, tp.b, kMazeMargin, f_limit);
                if (path.empty()) continue;
                const double cost = path_cost(grid.costs(l), path) + via_cost;
                if (cost < best_cost) {
                  best_cost = cost;
                  best_path = std::move(path);
                  best_level = l;
                }
                if (l == tp.level && !grid.path_overflows(l, best_path)) break;
              }
              rerouted[bi].level = best_level;
              rerouted[bi].path = std::move(best_path);
            }
          },
          /*grain=*/1);
      // Commit in batch order; a failed maze keeps the ripped-up old path.
      int maze_calls = 0;
      for (size_t bi = 0; bi < batch.size(); ++bi) {
        maze_calls += rerouted[bi].maze_calls;
        TwoPin& tp = twopins[static_cast<size_t>(batch[bi])];
        if (!rerouted[bi].path.empty()) {
          tp.level = rerouted[bi].level;
          tp.path = std::move(rerouted[bi].path);
        }
        grid.add_path(tp.level, tp.path, 1.0);
      }
      util::count("route.maze_calls", maze_calls);
    }
  }
  rrr_span.stop();

  // Collect results.
  for (const TwoPin& tp : twopins) {
    NetRoute& nr = result.nets[static_cast<size_t>(tp.net)];
    const double wl = (static_cast<double>(tp.path.size()) - 1.0) * gc;
    nr.wl_um[static_cast<size_t>(tp.level)] += wl;
    int bends = 0;
    for (size_t k = 2; k < tp.path.size(); ++k) {
      const bool h1 = tp.path[k - 1].y == tp.path[k - 2].y;
      const bool h2 = tp.path[k].y == tp.path[k - 1].y;
      if (h1 != h2) ++bends;
    }
    nr.vias += 2 * (tp.level + 1) + bends;
  }
  // Per-sink path wirelengths via the MST parent chains. The two-pins of a
  // net are gathered through a CSR index (built in one pass, preserving the
  // original twopin order per net) instead of the old rescan of the whole
  // twopin list for every net.
  std::vector<int> tp_off(static_cast<size_t>(nl.num_nets()) + 1, 0);
  for (const TwoPin& tp : twopins) {
    ++tp_off[static_cast<size_t>(tp.net) + 1];
  }
  for (size_t n = 1; n < tp_off.size(); ++n) tp_off[n] += tp_off[n - 1];
  std::vector<int> tp_ids(twopins.size());
  {
    std::vector<int> cursor(tp_off.begin(), tp_off.end() - 1);
    for (size_t t = 0; t < twopins.size(); ++t) {
      tp_ids[static_cast<size_t>(cursor[static_cast<size_t>(twopins[t].net)]++)] =
          static_cast<int>(t);
    }
  }
  for (circuit::NetId n = 0; n < nl.num_nets(); ++n) {
    const circuit::Net& net = nl.net(n);
    if (net.is_clock || net.sinks.empty()) continue;
    NetRoute& nr = result.nets[static_cast<size_t>(n)];
    nr.sink_path_wl.assign(net.sinks.size(), {});
    const auto& parent = r.parent_of[static_cast<size_t>(n)];
    const auto& np = r.net_pins[static_cast<size_t>(n)];
    if (parent.empty()) continue;
    // Edge data per child pin.
    std::vector<std::array<double, kNumLevels>> edge_wl(parent.size(),
                                                        std::array<double, kNumLevels>{});
    for (int t = tp_off[static_cast<size_t>(n)]; t < tp_off[static_cast<size_t>(n) + 1]; ++t) {
      const TwoPin& tp = twopins[static_cast<size_t>(tp_ids[static_cast<size_t>(t)])];
      edge_wl[static_cast<size_t>(tp.child_pin)][static_cast<size_t>(tp.level)] +=
          (static_cast<double>(tp.path.size()) - 1.0) * gc;
    }
    for (size_t pin = 1; pin < parent.size(); ++pin) {
      const int sink = np.sink_of_pin[pin];
      if (sink < 0) continue;
      std::array<double, kNumLevels> acc{};
      int cur = static_cast<int>(pin);
      int guard = 0;
      while (cur > 0 && guard++ < 10000) {
        for (int l = 0; l < kNumLevels; ++l) acc[static_cast<size_t>(l)] += edge_wl[static_cast<size_t>(cur)][static_cast<size_t>(l)];
        cur = parent[static_cast<size_t>(cur)];
      }
      nr.sink_path_wl[static_cast<size_t>(sink)] = acc;
    }
  }

  for (const auto& nr : result.nets) {
    for (int l = 0; l < kNumLevels; ++l) {
      result.wl_by_level[static_cast<size_t>(l)] += nr.wl_um[static_cast<size_t>(l)];
    }
    result.total_vias += nr.vias;
  }
  result.total_wl_um = result.wl_by_level[0] + result.wl_by_level[1] + result.wl_by_level[2];
  result.overflow_edges = grid.count_overflow(&result.max_congestion);
  result.routed = result.overflow_edges == 0;
  util::count("route.overflow_edges_final",
              static_cast<double>(result.overflow_edges));
  util::set_gauge("route.max_congestion", result.max_congestion);
  util::set_gauge("route.total_wl_um", result.total_wl_um);
  result.nx = nx;
  result.ny = ny;
  result.gcell_um = gc;
  result.usage_h = grid.usage_h_all();
  result.usage_v = grid.usage_v_all();
  for (int l = 0; l < kNumLevels; ++l) {
    result.cap_h[static_cast<size_t>(l)] = grid.cap_h(l);
    result.cap_v[static_cast<size_t>(l)] = grid.cap_v(l);
  }
  return result;
}

}  // namespace m3d::route
