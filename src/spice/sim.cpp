#include "spice/sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "numeric/lu.hpp"
#include "obs/mem.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::spice {
namespace {

uint64_t hash_u64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;  // FNV-1a
  }
  return h;
}

uint64_t hash_double(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return hash_u64(h, bits);
}

}  // namespace

/// Everything about a circuit that depends only on its *topology* (which
/// nodes are driven, where the MNA stamps land, the fill-in of the LU
/// factors) and none of its element values: the expensive setup that a
/// SimContext amortizes across every (slew, load) point of a
/// characterization sweep. Element values (R, C, MOS widths) are re-read
/// from the Circuit on every assembly, so sharing an impl across circuits
/// with equal fingerprints is safe; dev_cap is the one cached value array,
/// which is why its bits are part of the fingerprint.
struct SimImpl {
  uint64_t topo_hash = 0;
  int num_nodes = 0;
  int n_unknown = 0;
  std::vector<bool> driven;     // per node: has a source (or is ground)
  std::vector<int> unknown_of;  // node -> unknown index or -1
  std::vector<int> node_of;     // unknown index -> node
  std::vector<double> dev_cap;  // grounded device cap per node

  // Union MNA pattern (transient C/dt sites plus the DC gmin diagonal, so
  // one symbolic analysis serves both phases) and the stamp programs that
  // route each element contribution to its val slot. A slot of -1 marks a
  // stamp that fell on a driven row/column and is dropped.
  numeric::Csr pattern;
  std::vector<int> r_slots;     // 4 per resistor: (aa, bb, ab, ba)
  std::vector<int> c_slots;     // 4 per capacitor: (aa, bb, ab, ba)
  std::vector<int> dev_slots;   // 1 per node: diag, -1 when no grounded cap
  std::vector<int> gmin_slots;  // 1 per unknown: diag (DC only)
  std::vector<int> mos_slots;   // 6 per mosfet: (dd, dg, ds, sd, sg, ss)
  numeric::SparseLu symbolic;   // analyze() done; copy before factoring

  static uint64_t fingerprint(const Circuit& ckt) {
    uint64_t h = 0xcbf29ce484222325ull;
    h = hash_u64(h, static_cast<uint64_t>(ckt.num_nodes()));
    for (const auto& s : ckt.sources()) {
      h = hash_u64(h, static_cast<uint64_t>(s.node));
    }
    h = hash_u64(h, 0x1);  // section separators keep element kinds distinct
    for (const auto& r : ckt.resistors()) {
      h = hash_u64(h, static_cast<uint64_t>(r.a));
      h = hash_u64(h, static_cast<uint64_t>(r.b));
    }
    h = hash_u64(h, 0x2);
    for (const auto& c : ckt.capacitors()) {
      h = hash_u64(h, static_cast<uint64_t>(c.a));
      h = hash_u64(h, static_cast<uint64_t>(c.b));
    }
    h = hash_u64(h, 0x3);
    for (const auto& m : ckt.mosfets()) {
      h = hash_u64(h, static_cast<uint64_t>(m.d));
      h = hash_u64(h, static_cast<uint64_t>(m.g));
      h = hash_u64(h, static_cast<uint64_t>(m.s));
    }
    h = hash_u64(h, 0x4);
    for (double c : ckt.device_node_cap()) h = hash_double(h, c);
    return h;
  }

  void build(const Circuit& ckt) {
    topo_hash = fingerprint(ckt);
    num_nodes = ckt.num_nodes();
    driven.assign(static_cast<size_t>(num_nodes), false);
    driven[0] = true;
    for (const auto& s : ckt.sources()) driven[static_cast<size_t>(s.node)] = true;
    unknown_of.assign(static_cast<size_t>(num_nodes), -1);
    node_of.clear();
    n_unknown = 0;
    for (int i = 0; i < num_nodes; ++i) {
      if (!driven[static_cast<size_t>(i)]) {
        unknown_of[static_cast<size_t>(i)] = n_unknown++;
        node_of.push_back(i);
      }
    }
    dev_cap = ckt.device_node_cap();

    // One add() call per potential stamp site, in a fixed element order;
    // `order` records each call's index (or -1 for dropped stamps) so the
    // builder's slot_of_add can be segmented back into per-element-kind
    // programs after canonicalization.
    numeric::CsrBuilder b(n_unknown, n_unknown);
    std::vector<int> order;
    auto stamp = [&](int ni, int nj) {
      const int ui = unknown_of[static_cast<size_t>(ni)];
      const int uj = unknown_of[static_cast<size_t>(nj)];
      if (ui < 0 || uj < 0) {
        order.push_back(-1);
        return;
      }
      order.push_back(static_cast<int>(b.size()));
      b.add(ui, uj, 0.0);
    };
    for (const auto& r : ckt.resistors()) {
      stamp(r.a, r.a);
      stamp(r.b, r.b);
      stamp(r.a, r.b);
      stamp(r.b, r.a);
    }
    const size_t c_begin = order.size();
    for (const auto& c : ckt.capacitors()) {
      stamp(c.a, c.a);
      stamp(c.b, c.b);
      stamp(c.a, c.b);
      stamp(c.b, c.a);
    }
    const size_t dev_begin = order.size();
    for (int nd = 0; nd < num_nodes; ++nd) {
      if (dev_cap[static_cast<size_t>(nd)] > 0) {
        stamp(nd, nd);
      } else {
        order.push_back(-1);
      }
    }
    const size_t gmin_begin = order.size();
    for (int u = 0; u < n_unknown; ++u) {
      order.push_back(static_cast<int>(b.size()));
      b.add(u, u, 0.0);  // also guarantees a structural diagonal everywhere
    }
    const size_t mos_begin = order.size();
    for (const auto& m : ckt.mosfets()) {
      stamp(m.d, m.d);
      stamp(m.d, m.g);
      stamp(m.d, m.s);
      stamp(m.s, m.d);
      stamp(m.s, m.g);
      stamp(m.s, m.s);
    }

    std::vector<int> slot_of_add;
    pattern = b.build(&slot_of_add);
    auto resolve = [&](size_t begin, size_t end, std::vector<int>& out) {
      out.clear();
      out.reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        out.push_back(order[k] < 0
                          ? -1
                          : slot_of_add[static_cast<size_t>(order[k])]);
      }
    };
    resolve(0, c_begin, r_slots);
    resolve(c_begin, dev_begin, c_slots);
    resolve(dev_begin, gmin_begin, dev_slots);
    resolve(gmin_begin, mos_begin, gmin_slots);
    resolve(mos_begin, order.size(), mos_slots);

    symbolic.analyze(pattern);
  }
};

SimContext::SimContext() = default;
SimContext::~SimContext() = default;
SimContext::SimContext(SimContext&&) noexcept = default;
SimContext& SimContext::operator=(SimContext&&) noexcept = default;

void SimContext::prepare(const Circuit& ckt) {
  impl_ = std::make_unique<SimImpl>();
  impl_->build(ckt);
}

namespace {

// Newton iteration cap per implicit step, and the largest voltage update
// (V) at which an iteration counts as converged.
constexpr int kMaxNewtonIters = 60;
constexpr double kNewtonVTol = 1e-6;

struct Solver {
  const Circuit& ckt;
  const TranOptions& opt;
  const SimImpl& t;

  // Per-simulation numeric state. The matrix structure and symbolic
  // analysis are copied from the (shared, read-only) SimImpl; only the
  // value arrays are rewritten each Newton step.
  numeric::Csr mat;
  numeric::SparseLu lu;
  obs::vector<double> base_vals;  // linear stamps at base_dt, MOS excluded
  double base_dt = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> f_, dx_, i_node_;
  std::vector<double> jac_;  // dense pivot-fallback scratch
  // Per MOSFET: its evaluation cache, and its ids at the `v` of the last
  // static_currents pass, which residual() leaves for solve_linear().
  std::vector<MosCache> mos_cache_;
  std::vector<double> ids_;
  std::string fail_reason;

  Solver(const Circuit& c, const TranOptions& o, const SimImpl& impl)
      : ckt(c), opt(o), t(impl) {
    mat = t.pattern;
    lu = t.symbolic;
    base_vals.assign(mat.nnz(), 0.0);
    f_.resize(static_cast<size_t>(t.n_unknown));
    dx_.resize(static_cast<size_t>(t.n_unknown));
    i_node_.resize(static_cast<size_t>(t.num_nodes));
    mos_cache_.reserve(ckt.mosfets().size());
    for (const auto& m : ckt.mosfets()) mos_cache_.emplace_back(m.model);
    ids_.resize(ckt.mosfets().size());
  }

  /// Currents leaving each node through static elements (R + MOS) at node
  /// voltages `v` (full vector, all nodes). Records each device's ids in
  /// ids_.
  void static_currents(const std::vector<double>& v,
                       std::vector<double>& i_out) {
    std::fill(i_out.begin(), i_out.end(), 0.0);
    for (const auto& r : ckt.resistors()) {
      const double i = (v[static_cast<size_t>(r.a)] - v[static_cast<size_t>(r.b)]) / r.r_kohm;
      i_out[static_cast<size_t>(r.a)] += i;
      i_out[static_cast<size_t>(r.b)] -= i;
    }
    size_t k = 0;
    for (const auto& m : ckt.mosfets()) {
      const double id = m.model.ids(v[static_cast<size_t>(m.d)], v[static_cast<size_t>(m.g)],
                                    v[static_cast<size_t>(m.s)], &mos_cache_[k]);
      ids_[k++] = id;
      const double i = m.w_um * id;
      i_out[static_cast<size_t>(m.d)] += i;
      i_out[static_cast<size_t>(m.s)] -= i;
    }
  }

  /// Residual F = currents leaving each unknown node; returns max |F|.
  double residual(const std::vector<double>& v,
                  const std::vector<double>& v_prev, double dt) {
    static_currents(v, i_node_);
    if (dt > 0) {
      for (const auto& c : ckt.capacitors()) {
        const double dv = (v[static_cast<size_t>(c.a)] - v[static_cast<size_t>(c.b)]) -
                          (v_prev[static_cast<size_t>(c.a)] - v_prev[static_cast<size_t>(c.b)]);
        const double i = c.c_ff * dv / dt;
        i_node_[static_cast<size_t>(c.a)] += i;
        i_node_[static_cast<size_t>(c.b)] -= i;
      }
      for (int nd = 0; nd < t.num_nodes; ++nd) {
        const double cg = t.dev_cap[static_cast<size_t>(nd)];
        if (cg > 0) {
          i_node_[static_cast<size_t>(nd)] +=
              cg * (v[static_cast<size_t>(nd)] - v_prev[static_cast<size_t>(nd)]) / dt;
        }
      }
    }
    double worst = 0.0;
    for (int u = 0; u < t.n_unknown; ++u) {
      f_[static_cast<size_t>(u)] = i_node_[static_cast<size_t>(t.node_of[static_cast<size_t>(u)])];
      worst = std::max(worst, std::abs(f_[static_cast<size_t>(u)]));
    }
    return worst;
  }

  /// Value-only refresh of the linear (voltage-independent) stamps for a
  /// given dt; recomputed only when dt changes (in practice: once for DC,
  /// once for the transient).
  void compute_base(double dt) {
    std::fill(base_vals.begin(), base_vals.end(), 0.0);
    auto acc = [&](int slot, double g) {
      if (slot >= 0) base_vals[static_cast<size_t>(slot)] += g;
    };
    size_t k = 0;
    for (const auto& r : ckt.resistors()) {
      const double g = 1.0 / r.r_kohm;
      acc(t.r_slots[k], g);
      acc(t.r_slots[k + 1], g);
      acc(t.r_slots[k + 2], -g);
      acc(t.r_slots[k + 3], -g);
      k += 4;
    }
    if (dt > 0) {
      k = 0;
      for (const auto& c : ckt.capacitors()) {
        const double g = c.c_ff / dt;
        acc(t.c_slots[k], g);
        acc(t.c_slots[k + 1], g);
        acc(t.c_slots[k + 2], -g);
        acc(t.c_slots[k + 3], -g);
        k += 4;
      }
      for (int nd = 0; nd < t.num_nodes; ++nd) {
        const int slot = t.dev_slots[static_cast<size_t>(nd)];
        if (slot >= 0) {
          base_vals[static_cast<size_t>(slot)] += t.dev_cap[static_cast<size_t>(nd)] / dt;
        }
      }
    } else {
      // DC: tiny conductance to ground keeps floating nodes solvable.
      for (int u = 0; u < t.n_unknown; ++u) {
        base_vals[static_cast<size_t>(t.gmin_slots[static_cast<size_t>(u)])] += 1e-9;
      }
    }
    base_dt = dt;
  }

  /// Assembles the Jacobian at `v` and solves J dx = f into dx_: base
  /// values + per-iteration MOS stamps through the slot program, numeric
  /// refactor on the shared symbolic analysis, dense partial-pivot retry
  /// when a pivot trips the relative threshold. Must follow residual() at
  /// the same `v`: the stamps' operating-point currents are the ids_ it
  /// recorded.
  bool solve_linear(const std::vector<double>& v, double dt) {
    const int n = t.n_unknown;
    if (dt != base_dt) compute_base(dt);  // NaN sentinel compares unequal
    std::copy(base_vals.begin(), base_vals.end(), mat.val.begin());

    constexpr double kEps = 1e-5;
    auto acc = [&](int slot, double g) {
      if (slot >= 0) mat.val[static_cast<size_t>(slot)] += g;
    };
    size_t k = 0;
    size_t j = 0;
    for (const auto& m : ckt.mosfets()) {
      const double vd = v[static_cast<size_t>(m.d)];
      const double vg = v[static_cast<size_t>(m.g)];
      const double vs = v[static_cast<size_t>(m.s)];
      MosCache* cache = &mos_cache_[j];
      const double i0 = ids_[j++];
      const double gd = (m.model.ids(vd + kEps, vg, vs, cache) - i0) / kEps;
      const double gg = (m.model.ids(vd, vg + kEps, vs, cache) - i0) / kEps;
      const double gs = (m.model.ids(vd, vg, vs + kEps, cache) - i0) / kEps;
      const double w = m.w_um;
      acc(t.mos_slots[k], w * gd);
      acc(t.mos_slots[k + 1], w * gg);
      acc(t.mos_slots[k + 2], w * gs);
      acc(t.mos_slots[k + 3], -w * gd);
      acc(t.mos_slots[k + 4], -w * gg);
      acc(t.mos_slots[k + 5], -w * gs);
      k += 6;
    }

    if (opt.capture &&
        static_cast<int>(opt.capture->jacobians.size()) < opt.capture->max_systems) {
      opt.capture->jacobians.push_back(mat);
      opt.capture->rhs.push_back(f_);
    }

    const numeric::FactorStatus st = lu.factor(mat);
    if (st.ok()) {
      lu.solve(f_.data(), dx_.data());
      return true;
    }
    // A pivot fell under the relative threshold in the fixed elimination
    // order; dense partial pivoting can reorder rows, so retry this one
    // step densely before declaring the system singular.
    util::count("spice.sparse_pivot_fallbacks");
    jac_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int s = mat.row_ptr[static_cast<size_t>(i)];
           s < mat.row_ptr[static_cast<size_t>(i) + 1]; ++s) {
        jac_[static_cast<size_t>(i) * n + mat.col[static_cast<size_t>(s)]] =
            mat.val[static_cast<size_t>(s)];
      }
    }
    dx_ = f_;
    const numeric::FactorStatus dst = numeric::dense_lu_solve(jac_, dx_, n);
    if (dst.ok()) return true;
    fail_reason = util::strf("linear solve failed: %s", dst.to_string().c_str());
    return false;
  }

  /// Newton solve of one implicit (backward-Euler) step, or the DC problem
  /// when dt <= 0. `v` holds the full node voltages and is updated in place;
  /// `v_prev` is the converged solution of the previous step.
  bool newton_step(std::vector<double>& v, const std::vector<double>& v_prev,
                   double dt) {
    if (t.n_unknown == 0) return true;
    for (int iter = 0; iter < kMaxNewtonIters; ++iter) {
      const double worst = residual(v, v_prev, dt);
      if (worst < 1e-9) return true;  // current residual threshold, mA
      if (!solve_linear(v, dt)) return false;
      double dv_max = 0.0;
      for (int u = 0; u < t.n_unknown; ++u) {
        // Newton update with step clamping for robustness.
        double step = dx_[static_cast<size_t>(u)];
        step = std::clamp(step, -0.5, 0.5);
        v[static_cast<size_t>(t.node_of[static_cast<size_t>(u)])] -= step;
        dv_max = std::max(dv_max, std::abs(step));
      }
      if (dv_max < kNewtonVTol) return true;
    }
    fail_reason = util::strf("newton iteration limit (%d) reached",
                             kMaxNewtonIters);
    return false;
  }
};

}  // namespace

TranResult simulate(const Circuit& ckt, const TranOptions& opt,
                    const SimContext* ctx) {
  // A prepared context is only trusted when its topology fingerprint still
  // matches this circuit; on mismatch we pay a local rebuild instead of
  // producing wrong stamps.
  SimImpl local;
  const SimImpl* impl = nullptr;
  if (ctx && ctx->impl_ &&
      ctx->impl_->topo_hash == SimImpl::fingerprint(ckt)) {
    impl = ctx->impl_.get();
  } else {
    if (ctx && ctx->impl_) util::count("spice.sim_context_misses");
    local.build(ckt);
    impl = &local;
  }
  Solver solver(ckt, opt, *impl);
  const int num_nodes = impl->num_nodes;

  std::vector<double> v(static_cast<size_t>(num_nodes), 0.0);
  // Apply t=0 source values, then DC-solve the free nodes.
  for (const auto& s : ckt.sources()) {
    v[static_cast<size_t>(s.node)] = s.wave.at(0.0);
  }
  std::vector<double> v_prev = v;
  TranResult result;
  if (!solver.newton_step(v, v_prev, /*dt=*/-1.0)) {
    util::warn("spice: DC operating point did not converge (" +
               solver.fail_reason + ")");
    result.converged = false;
    result.fail_reason = "dc: " + solver.fail_reason;
  }

  const int steps = std::max(1, static_cast<int>(std::ceil(opt.t_stop_ps / opt.dt_ps)));
  result.time_ps.reserve(static_cast<size_t>(steps) + 1);
  for (int p : opt.probes) {
    result.wave[p].reserve(static_cast<size_t>(steps) + 1);
  }
  std::vector<double> energy(static_cast<size_t>(num_nodes), 0.0);  // fJ
  std::vector<double> charge(static_cast<size_t>(num_nodes), 0.0);  // fC

  auto record = [&](double t) {
    result.time_ps.push_back(t);
    for (int p : opt.probes) {
      result.wave[p].push_back(v[static_cast<size_t>(p)]);
    }
  };
  record(0.0);

  std::vector<double> i_node(static_cast<size_t>(num_nodes));
  for (int step = 1; step <= steps; ++step) {
    const double t = step * opt.dt_ps;
    v_prev = v;
    for (const auto& s : ckt.sources()) {
      v[static_cast<size_t>(s.node)] = s.wave.at(t);
    }
    if (!solver.newton_step(v, v_prev, opt.dt_ps)) {
      result.converged = false;
      if (result.fail_reason.empty()) {
        result.fail_reason =
            util::strf("t=%g ps: %s", t, solver.fail_reason.c_str());
      }
    }
    // Source currents: everything leaving a driven node through elements.
    solver.static_currents(v, i_node);
    for (const auto& c : ckt.capacitors()) {
      const double dv = (v[static_cast<size_t>(c.a)] - v[static_cast<size_t>(c.b)]) -
                        (v_prev[static_cast<size_t>(c.a)] - v_prev[static_cast<size_t>(c.b)]);
      const double i = c.c_ff * dv / opt.dt_ps;
      i_node[static_cast<size_t>(c.a)] += i;
      i_node[static_cast<size_t>(c.b)] -= i;
    }
    for (int nd = 0; nd < num_nodes; ++nd) {
      const double cg = impl->dev_cap[static_cast<size_t>(nd)];
      if (cg > 0) {
        i_node[static_cast<size_t>(nd)] +=
            cg * (v[static_cast<size_t>(nd)] - v_prev[static_cast<size_t>(nd)]) / opt.dt_ps;
      }
    }
    const bool in_tail =
        opt.tail_ps <= 0.0 || t > opt.t_stop_ps - opt.tail_ps;
    for (const auto& s : ckt.sources()) {
      const double delivered_ma = i_node[static_cast<size_t>(s.node)];  // leaving node
      // Work done by the source = V * I_delivered * dt. (mA * V * ps = fJ.)
      energy[static_cast<size_t>(s.node)] +=
          v[static_cast<size_t>(s.node)] * delivered_ma * opt.dt_ps;
      if (in_tail) charge[static_cast<size_t>(s.node)] += delivered_ma * opt.dt_ps;
    }
    record(t);
  }

  const double avg_window =
      opt.tail_ps > 0.0 ? std::min(opt.tail_ps, steps * opt.dt_ps)
                        : steps * opt.dt_ps;
  for (const auto& s : ckt.sources()) {
    const size_t nd = static_cast<size_t>(s.node);
    result.source_energy_fj[s.node] = energy[nd];
    result.source_avg_current_ma[s.node] = charge[nd] / avg_window;
  }
  return result;
}

double cross_time(const std::vector<double>& t, const std::vector<double>& v,
                  double v_cross, double t_from, bool rising) {
  assert(t.size() == v.size());
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i] < t_from) continue;
    const bool crossed = rising ? (v[i - 1] < v_cross && v[i] >= v_cross)
                                : (v[i - 1] > v_cross && v[i] <= v_cross);
    if (crossed) {
      const double f = (v_cross - v[i - 1]) / (v[i] - v[i - 1]);
      return t[i - 1] + f * (t[i] - t[i - 1]);
    }
  }
  return -1.0;
}

double measure_slew(const std::vector<double>& t, const std::vector<double>& v,
                    double vdd, bool rising, double t_from) {
  const double lo = 0.2 * vdd;
  const double hi = 0.8 * vdd;
  double t_lo, t_hi;
  if (rising) {
    t_lo = cross_time(t, v, lo, t_from, true);
    t_hi = cross_time(t, v, hi, t_lo < 0 ? t_from : t_lo, true);
  } else {
    t_hi = cross_time(t, v, hi, t_from, false);
    t_lo = cross_time(t, v, lo, t_hi < 0 ? t_from : t_hi, false);
  }
  if (t_lo < 0 || t_hi < 0) return -1.0;
  return std::abs(t_hi - t_lo) / 0.6;
}

}  // namespace m3d::spice
