#include "place/place.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "circuit/index.hpp"
#include "numeric/cg.hpp"
#include "numeric/csr.hpp"
#include "obs/trace.hpp"
#include "place/hpwl.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strf.hpp"

namespace m3d::place {
namespace {

/// Quadratic-placement system accumulator: symmetric Laplacian connectivity
/// (A = D - W) plus anchor pulls on the diagonal and RHS. Canonicalized to a
/// numeric::Csr once assembly is done; the shared CG solver does the rest.
struct Mat {
  struct Entry {
    int a, b;
    double w;
  };
  std::vector<Entry> entries;
  std::vector<double> diag;
  std::vector<double> rhs_x, rhs_y;  // fixed-pin pull terms

  explicit Mat(int n)
      : diag(static_cast<size_t>(n), 0.0),
        rhs_x(static_cast<size_t>(n), 0.0),
        rhs_y(static_cast<size_t>(n), 0.0) {}

  void connect(int a, int b, double w) {
    if (a >= 0 && b >= 0) {
      entries.push_back({a, b, w});
      diag[static_cast<size_t>(a)] += w;
      diag[static_cast<size_t>(b)] += w;
    }
  }
  void anchor(int a, double w, double x, double y) {
    if (a < 0) return;
    diag[static_cast<size_t>(a)] += w;
    rhs_x[static_cast<size_t>(a)] += w * x;
    rhs_y[static_cast<size_t>(a)] += w * y;
  }

  numeric::Csr to_csr() const {
    const int n = static_cast<int>(diag.size());
    numeric::CsrBuilder b(n, n);
    b.reserve(diag.size() + 2 * entries.size());
    for (int i = 0; i < n; ++i) b.add(i, i, diag[static_cast<size_t>(i)]);
    for (const auto& e : entries) {
      b.add(e.a, e.b, -e.w);
      b.add(e.b, e.a, -e.w);
    }
    return b.build();
  }
};

/// Shared Jacobi-preconditioned CG (numeric::cg_solve), at most kCgIters
/// iterations. Convergence is relative to the initial preconditioned
/// residual (kCgRelTol; see numeric::CgOptions::rel_tol) instead of the old
/// absolute `rz > 1e-10` cutoff, which was scale-dependent: large designs
/// iterated long past useful precision and tiny ones stopped on the first
/// pass.
void run_cg(const numeric::Csr& a, const std::vector<double>& rhs,
            std::vector<double>& x) {
  constexpr int kCgIters = 120;
  constexpr double kCgRelTol = 1e-6;
  numeric::CgOptions co;
  co.max_iters = kCgIters;
  co.rel_tol = kCgRelTol;
  const numeric::CgResult res = numeric::cg_solve(a, rhs, x, co);
  util::count("place.cg_iters", static_cast<double>(res.iters));
  util::set_gauge("place.cg_residual", res.rel_residual);
}

double inst_width(const circuit::Instance& inst) {
  return inst.libcell != nullptr ? inst.libcell->width_um : 0.5;
}

}  // namespace

Die make_die(circuit::Netlist* nl, double target_util, double row_height_um) {
  double area = 0.0;
  for (int i = 0; i < nl->num_instances(); ++i) {
    const auto& inst = nl->inst(i);
    if (!inst.dead && inst.libcell != nullptr) area += inst.libcell->area_um2();
  }
  const double core_area = area / std::max(0.05, target_util);
  Die die;
  die.row_height_um = row_height_um;
  die.num_rows = std::max(2, static_cast<int>(std::round(
                                 std::sqrt(core_area) / row_height_um)));
  const double height = die.num_rows * row_height_um;
  const double width = core_area / height;
  die.core = geom::Rect(0.0, 0.0, width, height);

  // Pads evenly spaced around the boundary, in port order.
  auto& ports = nl->ports();
  const double perim = 2.0 * (width + height);
  for (size_t i = 0; i < ports.size(); ++i) {
    const double d = perim * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(ports.size());
    geom::Pt p;
    if (d < width) {
      p = {d, 0.0};
    } else if (d < width + height) {
      p = {width, d - width};
    } else if (d < 2 * width + height) {
      p = {2 * width + height - d, height};
    } else {
      p = {0.0, perim - d};
    }
    ports[i].pos = p;
  }
  return die;
}

SpreadPlacement global_spread(circuit::Netlist* nl, const Die& die,
                              const PlaceOptions& opt) {
  const int n = nl->num_instances();
  SpreadPlacement spread;
  std::vector<int> var_of(static_cast<size_t>(n), -1);
  std::vector<circuit::InstId>& movable = spread.movable;
  for (int i = 0; i < n; ++i) {
    if (nl->inst(i).dead) continue;
    var_of[static_cast<size_t>(i)] = static_cast<int>(movable.size());
    movable.push_back(i);
  }
  const int nv = static_cast<int>(movable.size());
  if (nv == 0) return spread;
  util::count("place.cells", nv);
  const circuit::NetlistIndex idx(*nl);

  // --- Quadratic global placement -------------------------------------------
  obs::Span quad_span("place.quadratic");
  Mat mat(nv);
  auto pin_var = [&](const circuit::PinRef& p) {
    return p.inst == circuit::kInvalid ? -1 : var_of[static_cast<size_t>(p.inst)];
  };
  for (circuit::NetId ni = 0; ni < nl->num_nets(); ++ni) {
    const circuit::Net& net = nl->net(ni);
    if (net.is_clock) continue;
    // Collect pin list: driver + sinks (+ every pad position for port
    // nets). The pad lookup goes through the ports_of_net index — one span,
    // not a scan of every chip port — and anchors to *all* ports on the
    // net: the old first-match loop silently dropped the rest on nets with
    // several pads (e.g. an input fanning straight through to an output).
    std::vector<int> vars;
    std::vector<geom::Pt> pads;
    if (net.driver.inst != circuit::kInvalid) {
      vars.push_back(pin_var(net.driver));
    }
    for (const auto& s : net.sinks) {
      if (s.inst != circuit::kInvalid) vars.push_back(pin_var(s));
    }
    if (net.is_primary_input || net.is_primary_output) {
      for (int pi : idx.ports_of_net(ni)) {
        pads.push_back(nl->ports()[static_cast<size_t>(pi)].pos);
      }
    }
    const size_t p = vars.size() + pads.size();
    if (p < 2) continue;
    const double w = 2.0 / static_cast<double>(p);
    if (p <= 4) {
      for (size_t i = 0; i < vars.size(); ++i) {
        for (size_t j = i + 1; j < vars.size(); ++j) {
          mat.connect(vars[i], vars[j], w);
        }
        for (const geom::Pt& pad : pads) mat.anchor(vars[i], w, pad.x, pad.y);
      }
    } else {
      // Chain model for large nets (keeps the matrix sparse).
      for (size_t i = 0; i + 1 < vars.size(); ++i) {
        mat.connect(vars[i], vars[i + 1], w);
      }
      if (!vars.empty()) {
        for (const geom::Pt& pad : pads) {
          mat.anchor(vars[0], w, pad.x, pad.y);
          mat.anchor(vars[vars.size() / 2], w * 0.5, pad.x, pad.y);
        }
      }
    }
  }
  // Weak center anchor keeps disconnected pieces inside the die.
  const geom::Pt center = die.core.center();
  for (int v = 0; v < nv; ++v) mat.anchor(v, 1e-4, center.x, center.y);

  util::Rng rng(opt.seed);
  std::vector<double>& x = spread.x;
  std::vector<double>& y = spread.y;
  x.assign(static_cast<size_t>(nv), 0.0);
  y.assign(static_cast<size_t>(nv), 0.0);
  for (int v = 0; v < nv; ++v) {
    x[static_cast<size_t>(v)] = center.x + rng.normal(0.0, die.core.width() / 8);
    y[static_cast<size_t>(v)] = center.y + rng.normal(0.0, die.core.height() / 8);
  }
  const numeric::Csr a = mat.to_csr();
  run_cg(a, mat.rhs_x, x);
  run_cg(a, mat.rhs_y, y);
  util::count("place.cg_solves", 2.0);
  quad_span.stop();

  auto solve_with_spread_anchors = [&](double weight) {
    // Re-solve the quadratic system pulling each cell toward its spread
    // position (x, y currently hold the spread placement). Anchors only
    // touch the diagonal and RHS, so the re-solve reuses the assembled
    // matrix via its diag slots instead of rebuilding from triplets.
    numeric::Csr m2 = a;
    std::vector<double> rx = mat.rhs_x;
    std::vector<double> ry = mat.rhs_y;
    for (int v = 0; v < nv; ++v) {
      m2.val[static_cast<size_t>(m2.diag_slot[static_cast<size_t>(v)])] += weight;
      rx[static_cast<size_t>(v)] += weight * x[static_cast<size_t>(v)];
      ry[static_cast<size_t>(v)] += weight * y[static_cast<size_t>(v)];
    }
    run_cg(m2, rx, x);
    run_cg(m2, ry, y);
    util::count("place.cg_solves", 2.0);
  };

  // --- Spreading: recursive capacity-balanced bisection -----------------------
  // (run inside a lambda so the CG/spread loop below can repeat it)
  // The quadratic solution clusters heavily; bisection redistributes cells to
  // uniform density while preserving their relative order, so the global
  // ordering (and hence wirelength) survives legalization.
  std::vector<double> area_of(static_cast<size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    const auto& inst = nl->inst(movable[static_cast<size_t>(v)]);
    area_of[static_cast<size_t>(v)] =
        inst.libcell != nullptr ? inst.libcell->area_um2() : 0.5;
  }
  auto bisect_spread = [&] {
    std::vector<int> idx(static_cast<size_t>(nv));
    for (int v = 0; v < nv; ++v) idx[static_cast<size_t>(v)] = v;
    struct Task {
      size_t lo, hi;  // range in idx
      geom::Rect region;
      bool split_x;
    };
    std::vector<Task> stack{{0, static_cast<size_t>(nv), die.core,
                             die.core.width() >= die.core.height()}};
    while (!stack.empty()) {
      Task t = stack.back();
      stack.pop_back();
      const size_t count = t.hi - t.lo;
      if (count == 0) continue;
      if (count <= 3 || t.region.width() < 2.0 * die.row_height_um ||
          t.region.height() < 2.0 * die.row_height_um) {
        // Leaf: strew the cells evenly inside the region, keeping order
        // along the longer side.
        std::sort(idx.begin() + static_cast<long>(t.lo), idx.begin() + static_cast<long>(t.hi),
                  [&](int a, int b) {
                    return t.split_x ? x[static_cast<size_t>(a)] < x[static_cast<size_t>(b)]
                                     : y[static_cast<size_t>(a)] < y[static_cast<size_t>(b)];
                  });
        size_t k = 0;
        for (size_t i = t.lo; i < t.hi; ++i, ++k) {
          const double f = (static_cast<double>(k) + 0.5) / static_cast<double>(count);
          const int v = idx[i];
          if (t.split_x) {
            x[static_cast<size_t>(v)] = t.region.xlo + f * t.region.width();
            y[static_cast<size_t>(v)] = std::clamp(y[static_cast<size_t>(v)],
                                                   t.region.ylo, t.region.yhi);
          } else {
            y[static_cast<size_t>(v)] = t.region.ylo + f * t.region.height();
            x[static_cast<size_t>(v)] = std::clamp(x[static_cast<size_t>(v)],
                                                   t.region.xlo, t.region.xhi);
          }
        }
        continue;
      }
      // Sort the range along the split direction and cut it so that each
      // half's cell area matches its subregion capacity (equal halves).
      std::sort(idx.begin() + static_cast<long>(t.lo), idx.begin() + static_cast<long>(t.hi),
                [&](int a, int b) {
                  return t.split_x ? x[static_cast<size_t>(a)] < x[static_cast<size_t>(b)]
                                   : y[static_cast<size_t>(a)] < y[static_cast<size_t>(b)];
                });
      double total = 0.0;
      for (size_t i = t.lo; i < t.hi; ++i) total += area_of[static_cast<size_t>(idx[i])];
      double acc = 0.0;
      size_t cut = t.lo;
      while (cut < t.hi && acc < total / 2.0) {
        acc += area_of[static_cast<size_t>(idx[cut])];
        ++cut;
      }
      geom::Rect left = t.region, right = t.region;
      if (t.split_x) {
        const double mid = (t.region.xlo + t.region.xhi) / 2.0;
        left.xhi = mid;
        right.xlo = mid;
      } else {
        const double mid = (t.region.ylo + t.region.yhi) / 2.0;
        left.yhi = mid;
        right.ylo = mid;
      }
      stack.push_back({t.lo, cut, left, !t.split_x});
      stack.push_back({cut, t.hi, right, !t.split_x});
    }
  };
  {
    obs::Span spread_span("place.spread");
    bisect_spread();
    for (int round = 0; round < 2; ++round) {
      solve_with_spread_anchors(0.4);
      bisect_spread();
      util::count("place.spread_rounds");
    }
  }
  return spread;
}

void legalize(circuit::Netlist* nl, const Die& die,
              const SpreadPlacement& spread) {
  // --- Tetris legalization ----------------------------------------------------
  obs::Span legal_span("place.legalize");
  const std::vector<circuit::InstId>& movable = spread.movable;
  const std::vector<double>& x = spread.x;
  const std::vector<double>& y = spread.y;
  const int nv = static_cast<int>(movable.size());
  std::vector<int> order(static_cast<size_t>(nv));
  for (int v = 0; v < nv; ++v) order[static_cast<size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return x[static_cast<size_t>(a)] < x[static_cast<size_t>(b)];
  });
  std::vector<double> row_edge(static_cast<size_t>(die.num_rows), die.core.xlo);
  for (int v : order) {
    const circuit::Instance& inst = nl->inst(movable[static_cast<size_t>(v)]);
    const double w = inst_width(inst);
    const int want_row = std::clamp(
        static_cast<int>((y[static_cast<size_t>(v)] - die.core.ylo) / die.row_height_um),
        0, die.num_rows - 1);
    int best_row = -1;
    double best_cost = 1e18;
    // Row-frontier search: expand outward from the target row, visiting
    // candidates in the same (dr; +1, -1) order — and with the same
    // strict-improvement tie-break — as the old all-rows scan. A direction
    // retires once its row-distance term alone (a lower bound on any
    // further row's cost, monotonically growing with dr) can no longer
    // strictly beat the best cost, so the loop touches O(1) rows per cell
    // on a typical die instead of all of them. When nothing has been found
    // yet (best_cost still huge, e.g. every nearby row is packed) the bound
    // never fires and the search degrades to the full scan.
    bool up_active = true, down_active = true;
    for (int dr = 0; dr < die.num_rows && (up_active || down_active); ++dr) {
      for (int sgn : {1, -1}) {
        bool& active = sgn > 0 ? up_active : down_active;
        if (!active || (dr == 0 && sgn < 0)) continue;
        const int row = want_row + sgn * dr;
        if (row < 0 || row >= die.num_rows) {
          active = false;
          continue;
        }
        const double row_dist =
            std::abs(die.row_y(row) - y[static_cast<size_t>(v)]) * 1.5;
        if (row_dist >= best_cost) {
          active = false;  // rows further out in this direction only cost more
          continue;
        }
        // Desired position, slid left if the core edge demands it; the row
        // is usable only when that keeps us right of its packed edge (a
        // cell must never land on top of its neighbor).
        const double cx = std::min(std::max(row_edge[static_cast<size_t>(row)],
                                            x[static_cast<size_t>(v)] - w / 2),
                                   die.core.xhi - w);
        if (cx < row_edge[static_cast<size_t>(row)] - 1e-9) continue;
        const double cost = std::abs(cx - x[static_cast<size_t>(v)]) + row_dist;
        if (cost < best_cost) {
          best_cost = cost;
          best_row = row;
        }
      }
    }
    double cx;
    if (best_row < 0) {
      // Every row is packed full; append to the least-filled one. This can
      // only spill past the core on a genuinely over-full die.
      best_row = static_cast<int>(std::min_element(row_edge.begin(), row_edge.end()) -
                                  row_edge.begin());
      util::count("place.legalize_fallbacks");
      cx = row_edge[static_cast<size_t>(best_row)];
    } else {
      cx = std::min(std::max(row_edge[static_cast<size_t>(best_row)],
                             x[static_cast<size_t>(v)] - w / 2),
                    die.core.xhi - w);
    }
    circuit::Instance& minst = nl->inst(movable[static_cast<size_t>(v)]);
    minst.pos = {cx + w / 2, die.row_y(best_row)};
    minst.placed = true;
    row_edge[static_cast<size_t>(best_row)] = cx + w;
  }
}

void detail_place(circuit::Netlist* nl, const Die& die, int passes) {
  // --- Detailed placement: median-seeking swaps ------------------------------
  // For each cell, find the median of its connected pins and try swapping
  // with the cell nearest that spot; keep the swap when HPWL drops. Swaps
  // are priced incrementally: the pre-swap cost of each affected net comes
  // from the HPWL cache, only the post-swap side is evaluated fresh (and
  // stored back on accept) — O(net degree) per candidate, no port rescans.
  obs::Span detail_span("place.detail");
  const circuit::NetlistIndex idx(*nl);
  HpwlCache cache(*nl, idx);
  std::vector<circuit::InstId> movable;
  for (circuit::InstId i = 0; i < nl->num_instances(); ++i) {
    if (!nl->inst(i).dead) movable.push_back(i);
  }
  std::vector<circuit::NetId> affected;
  std::vector<double> after_vals;
  std::vector<double> xs, ys;  // median-gather scratch, reused across cells
  // Memoized per-cell median targets. A cell's target depends only on the
  // *other* pins of its nets (self pins are excluded from the gather), so
  // it stays valid until an accepted swap moves a pin on one of those nets.
  // `net_stamp` records the accept tick that last touched each net; the
  // cached target is fresh iff no stamp exceeds the tick it was computed
  // at. Byte-identity holds because a fresh recomputation of an unchanged
  // multiset returns the identical median bits.
  std::vector<geom::Pt> target_of(static_cast<size_t>(nl->num_instances()));
  std::vector<int64_t> cell_stamp(static_cast<size_t>(nl->num_instances()),
                                  -1);
  std::vector<uint8_t> cell_skip(static_cast<size_t>(nl->num_instances()), 0);
  std::vector<int64_t> net_stamp(static_cast<size_t>(nl->num_nets()), 0);
  int64_t tick = 0;
  // Counter batching: one registry post per counter at the end instead of a
  // mutex-guarded map lookup per candidate swap (totals are identical).
  int64_t swaps_tried = 0;
  int64_t swaps_accepted = 0;
  for (int pass = 0; pass < passes; ++pass) {
    // Row-sorted instance lists for candidate lookup.
    std::vector<std::vector<std::pair<double, circuit::InstId>>> rows(
        static_cast<size_t>(die.num_rows));
    for (circuit::InstId i : movable) {
      const auto& inst = nl->inst(i);
      const int row = std::clamp(
          static_cast<int>((inst.pos.y - die.core.ylo) / die.row_height_um),
          0, die.num_rows - 1);
      rows[static_cast<size_t>(row)].push_back({inst.pos.x, i});
    }
    for (auto& row : rows) std::sort(row.begin(), row.end());
    for (circuit::InstId i : movable) {
      auto& inst = nl->inst(i);
      const circuit::IdSpan inets = idx.nets_of_inst(i);
      if (inets.empty()) continue;
      bool fresh = cell_stamp[static_cast<size_t>(i)] >= 0;
      if (fresh) {
        for (circuit::NetId ni : inets) {
          if (net_stamp[static_cast<size_t>(ni)] >
              cell_stamp[static_cast<size_t>(i)]) {
            fresh = false;
            break;
          }
        }
      }
      geom::Pt target;
      if (fresh) {
        if (cell_skip[static_cast<size_t>(i)] != 0) continue;
        target = target_of[static_cast<size_t>(i)];
      } else {
        // Median of the other pins of this cell's nets, streamed from the
        // cache's packed pin mirror (same pins in the same order as walking
        // the netlist, minus the pointer-chasing through Instance records).
        xs.clear();
        ys.clear();
        for (circuit::NetId ni : inets) {
          const HpwlCache::PinSpan ps = cache.pins(ni);
          for (size_t k = 0; k < ps.size; ++k) {
            if (ps.inst[k] == i) continue;
            xs.push_back(ps.x[k]);
            ys.push_back(ps.y[k]);
          }
        }
        cell_stamp[static_cast<size_t>(i)] = tick;
        cell_skip[static_cast<size_t>(i)] = xs.empty() ? 1 : 0;
        if (xs.empty()) continue;
        target = {select_kth(xs.data(), xs.size(), xs.size() / 2),
                  select_kth(ys.data(), ys.size(), ys.size() / 2)};
        target_of[static_cast<size_t>(i)] = target;
      }
      if (geom::manhattan(target, inst.pos) < die.row_height_um) continue;
      const int trow = std::clamp(
          static_cast<int>((target.y - die.core.ylo) / die.row_height_um), 0,
          die.num_rows - 1);
      auto& row = rows[static_cast<size_t>(trow)];
      if (row.empty()) continue;
      auto it = std::lower_bound(row.begin(), row.end(),
                                 std::make_pair(target.x, circuit::InstId{0}));
      if (it == row.end()) --it;
      const circuit::InstId j = it->second;
      if (j == i) continue;
      auto& jnst = nl->inst(j);
      // Only equal-width cells may trade places: a width mismatch would
      // leave the wider cell overlapping its new neighbor (the old 25%
      // tolerance silently broke row legality on every such swap).
      if (std::abs(inst_width(jnst) - inst_width(inst)) > 1e-9) continue;
      // Evaluate the swap on the union of affected nets.
      const circuit::IdSpan jnets = idx.nets_of_inst(j);
      affected.assign(inets.begin(), inets.end());
      affected.insert(affected.end(), jnets.begin(), jnets.end());
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
      double before = 0.0;
      for (circuit::NetId ni : affected) before += cache.net_hpwl(ni);
      std::swap(inst.pos, jnst.pos);
      cache.update_inst(i, inst.pos);
      cache.update_inst(j, jnst.pos);
      double after = 0.0;
      after_vals.clear();
      for (circuit::NetId ni : affected) {
        after_vals.push_back(cache.evaluate(ni));
        after += after_vals.back();
      }
      ++swaps_tried;
      if (after >= before) {
        std::swap(inst.pos, jnst.pos);  // revert; cache entries still valid
        cache.update_inst(i, inst.pos);
        cache.update_inst(j, jnst.pos);
      } else {
        ++swaps_accepted;
        ++tick;
        for (size_t k = 0; k < affected.size(); ++k) {
          cache.store(affected[k], after_vals[k]);
          net_stamp[static_cast<size_t>(affected[k])] = tick;
        }
      }
    }
    // Pass-boundary verification of the incremental engine: the cached
    // total must equal a from-scratch recomputation bitwise. A mismatch
    // means a stale cache entry — a correctness bug, not FP noise.
    const double cached_total = cache.total();
    const double fresh_total = total_hpwl_um(*nl);
    if (cached_total != fresh_total) {
      util::count("place.hpwl_cache_divergence");
      util::warn(util::strf(
          "detail_place pass %d: cached hpwl %.17g != recomputed %.17g",
          pass, cached_total, fresh_total));
      assert(false && "HpwlCache diverged from from-scratch recomputation");
      cache.rebuild();
    }
  }
  if (swaps_tried > 0) {
    util::count("place.detail_swaps_tried", static_cast<double>(swaps_tried));
  }
  if (swaps_accepted > 0) {
    util::count("place.detail_swaps_accepted",
                static_cast<double>(swaps_accepted));
  }
}

void place_design(circuit::Netlist* nl, const Die& die, const PlaceOptions& opt) {
  const SpreadPlacement spread = global_spread(nl, die, opt);
  const int nv = static_cast<int>(spread.movable.size());
  if (nv == 0) return;
  legalize(nl, die, spread);
  detail_place(nl, die, /*passes=*/2);
  // Final legality pass: the greedy row packing can strand a cell past the
  // core edge when every row's packed frontier reached the boundary; the
  // shove (with capacity-based eviction) restores containment and removes
  // any residual overlap without reordering rows.
  relegalize_rows(nl, die);

  const double hpwl = total_hpwl_um(*nl);
  util::set_gauge("place.hpwl_um", hpwl);
  util::debug(util::strf("place: %d cells, hpwl=%.0f um", nv, hpwl));
}

geom::Pt snap_to_row(const Die& die, geom::Pt pos, double width_um) {
  const double half = 0.5 * width_um;
  geom::Pt out = pos;
  out.x = std::clamp(out.x, die.core.xlo + half, die.core.xhi - half);
  int row = static_cast<int>(
      std::floor((pos.y - die.core.ylo) / die.row_height_um));
  row = std::clamp(row, 0, die.num_rows - 1);
  out.y = die.row_y(row);
  return out;
}

void relegalize_rows(circuit::Netlist* nl, const Die& die) {
  struct RowCell {
    double x, w;
    circuit::InstId id;
  };
  std::vector<std::vector<RowCell>> rows(static_cast<size_t>(die.num_rows));
  for (circuit::InstId i = 0; i < nl->num_instances(); ++i) {
    const circuit::Instance& inst = nl->inst(i);
    if (inst.dead || !inst.placed || inst.libcell == nullptr) continue;
    const int row = std::clamp(
        static_cast<int>(std::lround((inst.pos.y - die.core.ylo) /
                                         die.row_height_um -
                                     0.5)),
        0, die.num_rows - 1);
    rows[static_cast<size_t>(row)].push_back(
        RowCell{inst.pos.x, inst.libcell->width_um, i});
  }
  // Buffer insertion can over-fill a row outright; evict the rightmost
  // optimizer-inserted cell (they are the ones that arrived after global
  // legalization) to the least-filled row until every row fits.
  const double capacity = die.core.xhi - die.core.xlo;
  std::vector<double> filled(rows.size(), 0.0);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const RowCell& c : rows[r]) filled[r] += c.w;
    std::sort(rows[r].begin(), rows[r].end(),
              [](const RowCell& a, const RowCell& b) {
                return a.x < b.x || (a.x == b.x && a.id < b.id);
              });
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    auto& cells = rows[r];
    while (filled[r] > capacity && !cells.empty()) {
      // Rightmost from_optimizer cell, else the rightmost cell.
      size_t pick = cells.size() - 1;
      for (size_t k = cells.size(); k-- > 0;) {
        if (nl->inst(cells[k].id).from_optimizer) {
          pick = k;
          break;
        }
      }
      const size_t dst = static_cast<size_t>(
          std::min_element(filled.begin(), filled.end()) - filled.begin());
      if (dst == r) break;  // every row is full; give up gracefully
      RowCell moved = cells[static_cast<size_t>(pick)];
      cells.erase(cells.begin() + static_cast<long>(pick));
      filled[r] -= moved.w;
      filled[dst] += moved.w;
      nl->inst(moved.id).pos.y = die.row_y(static_cast<int>(dst));
      auto& dcells = rows[dst];
      dcells.insert(std::upper_bound(dcells.begin(), dcells.end(), moved,
                                     [](const RowCell& a, const RowCell& b) {
                                       return a.x < b.x ||
                                              (a.x == b.x && a.id < b.id);
                                     }),
                    moved);
      util::count("place.relegalize_evictions");
    }
  }
  for (auto& cells : rows) {
    if (cells.empty()) continue;
    double lo = die.core.xlo;
    for (RowCell& c : cells) {
      c.x = std::max(c.x, lo + c.w / 2);
      lo = c.x + c.w / 2;
    }
    double hi = die.core.xhi;
    for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
      it->x = std::min(it->x, hi - it->w / 2);
      hi = it->x - it->w / 2;
    }
    for (const RowCell& c : cells) nl->inst(c.id).pos.x = c.x;
  }
}

double total_hpwl_um(const circuit::Netlist& nl) {
  // One pass over the ports to bucket them by net (the old code rescanned
  // every chip port for every net — O(nets * ports)), then one pass over
  // the nets. Ports land in each bucket in port order and nets accumulate
  // in id order, so the sum is bitwise identical to the quadratic version.
  const circuit::NetlistIndex idx(nl);
  double total = 0.0;
  for (circuit::NetId ni = 0; ni < nl.num_nets(); ++ni) {
    const circuit::Net& net = nl.net(ni);
    if (net.is_clock || net.sinks.empty()) continue;
    // Adding a 0.0 half-perimeter (or an empty box's 0.0) to the finite
    // non-negative total is exact, so no skip-empty branch is needed.
    total += net_hpwl_um(nl, idx, ni);
  }
  return total;
}

double utilization(const circuit::Netlist& nl, const Die& die) {
  double area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (!inst.dead && inst.libcell != nullptr) area += inst.libcell->area_um2();
  }
  return area / die.core.area();
}

}  // namespace m3d::place
