// Transient simulation: backward-Euler integration with Newton iterations.
//
// The Newton linear systems are MNA matrices whose sparsity pattern is
// fixed for the whole transient run (stamp *sites* never move; only the
// MOSFET conductances change), so the solver computes a fill-reducing
// ordering and symbolic factorization once and then only refactors numbers
// per Newton step (numeric::SparseLu). Standard-cell MNA matrices are
// >90% zero; a dense partial-pivot LU is kept only as the automatic
// fallback when a pivot falls below the relative singularity threshold.
//
// Circuits with identical topology (the characterizer's whole (slew, load)
// grid for an arc) can share one SimContext: the node mapping, MNA
// pattern, and symbolic analysis are built once and reused read-only by
// every simulate() call.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "numeric/csr.hpp"
#include "spice/circuit.hpp"

namespace m3d::spice {

/// Test/bench hook: captures the first `max_systems` assembled Newton
/// systems (Jacobian + residual) of a run. Single-threaded use only.
struct NewtonCapture {
  int max_systems = 8;
  std::vector<numeric::Csr> jacobians;
  std::vector<std::vector<double>> rhs;
};

struct TranOptions {
  double t_stop_ps = 1000.0;
  double dt_ps = 0.5;
  std::vector<int> probes;      // nodes whose full waveform is recorded
  /// When > 0, source_tail_current_ma averages over only the last
  /// `tail_ps` of the run (for leakage measurements after a settling
  /// preamble).
  double tail_ps = 0.0;
  NewtonCapture* capture = nullptr;  // optional, see NewtonCapture
};

struct TranResult {
  std::vector<double> time_ps;
  // probe node id -> waveform (same length as time_ps).
  std::unordered_map<int, std::vector<double>> wave;
  // source node id -> energy delivered by that source over the run (fJ)
  // (integral of V * I_delivered dt; positive when the source does work).
  std::unordered_map<int, double> source_energy_fj;
  // source node id -> average current delivered (mA) over the whole run, or
  // over the final tail_ps window when TranOptions::tail_ps > 0.
  std::unordered_map<int, double> source_avg_current_ma;
  bool converged = true;
  // Empty when converged; otherwise the structured reason the Newton loop
  // gave up (singular pivot detail, iteration cap), so characterization
  // failures name their cause instead of silently blanking a table cell.
  std::string fail_reason;

  const std::vector<double>& waveform(int node) const { return wave.at(node); }
};

struct SimImpl;

/// Reusable cross-simulation state: node classification, MNA sparsity
/// pattern, stamp slot program, and symbolic factorization. prepare() once
/// (it is cheap but not free), then pass to any number of simulate() calls
/// — including concurrently from pool workers; the context is read-only
/// after prepare. simulate() verifies a topology fingerprint and quietly
/// rebuilds locally on mismatch, so a stale context can cost performance
/// but never correctness.
class SimContext {
 public:
  SimContext();
  ~SimContext();
  SimContext(SimContext&&) noexcept;
  SimContext& operator=(SimContext&&) noexcept;

  void prepare(const Circuit& ckt);
  bool prepared() const { return impl_ != nullptr; }

 private:
  friend TranResult simulate(const Circuit& ckt, const TranOptions& opt,
                             const SimContext* ctx);
  std::unique_ptr<SimImpl> impl_;
};

/// Runs a transient analysis. Initial condition: free nodes start at their
/// DC solution for the source values at t=0 (a Newton solve with capacitors
/// open).
TranResult simulate(const Circuit& ckt, const TranOptions& opt,
                    const SimContext* ctx = nullptr);

/// Waveform measurements -----------------------------------------------------

/// Time at which the waveform crosses `v_cross` (linear interpolation),
/// searching from t_from. Returns -1 if never crossed.
double cross_time(const std::vector<double>& t, const std::vector<double>& v,
                  double v_cross, double t_from = 0.0, bool rising = true);

/// Transition time scaled from the 20%-80% crossing interval to full swing
/// (divide by 0.6) — the slew convention used by our Liberty tables.
double measure_slew(const std::vector<double>& t, const std::vector<double>& v,
                    double vdd, bool rising, double t_from = 0.0);

}  // namespace m3d::spice
