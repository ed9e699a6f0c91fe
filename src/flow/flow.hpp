// The full design-and-analysis flow of paper Fig 1: library prep ->
// synthesis (WLM) -> placement -> pre-route optimization -> global routing ->
// post-route optimization -> sign-off STA + statistical power. One call per
// (benchmark, node, style); the comparison harness runs 2D and T-MI at the
// same clock (iso-performance) and reports the paper's metrics.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "circuit/netlist.hpp"
#include "gen/gen.hpp"
#include "liberty/library.hpp"
#include "obs/trace.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "tech/tech.hpp"

namespace m3d::flow {

/// Per-stage observability record: wall time plus the counters the stage's
/// instrumentation incremented while it ran (e.g. "route.twopins",
/// "opt.upsized"). run_flow emits one per flow stage, in execution order;
/// report::write_json serializes them into the machine-readable run report.
struct StageReport {
  std::string name;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  // Memory profile of the stage, populated only when FlowOptions::trace /
  // M3D_TRACE is on (all zero otherwise): process RSS and peak RSS at stage
  // exit, and the CountingAllocator traffic (obs/mem.hpp) during the stage.
  double rss_mb = 0.0;
  double hwm_mb = 0.0;
  double alloc_mb = 0.0;
  int64_t allocs = 0;

  double counter(const std::string& key) const {
    for (const auto& [k, v] : counters) {
      if (k == key) return v;
    }
    return 0.0;
  }
};

struct FlowOptions {
  gen::Bench bench = gen::Bench::kAes;
  tech::Node node = tech::Node::k45nm;
  /// kGMI runs gate-level monolithic 3D on the same stages: planar cells
  /// (lib is the 2D library) on two tiers, FM min-cut tier assignment
  /// before pre-route opt, one routing MIV per cut net in routed
  /// extraction, and the T-MI metal stack for routing.
  tech::Style style = tech::Style::k2D;
  int scale_shift = 3;        // benchmark size knob (see gen::GenOptions)
  double clock_ns = 0.0;      // 0: auto (see auto_clock_ns)
  double target_util = 0.8;   // paper: 0.8 (0.33 LDPC, 0.68 M256)
  const liberty::Library* lib = nullptr;  // required
  // Synthesis uses the statistical WLM, x0.75 for T-MI styles (paper
  // Section 3.4); G-MI uses the 2D WLM of half the core area.
  bool tmi_wlm = true;        // false: use the 2D WLM for T-MI (Table 15)
  // -1: default (0.03 for T-MI styles, 0 for 2D and G-MI)
  double local_blockage_frac = -1.0;
  double resistivity_scale = 1.0;     // local+intermediate derate (Table 9)
  double pi_activity = 0.2;
  double seq_activity = 0.1;
  uint64_t seed = 20130529;
  /// Stage-invariant checking after sign-off (src/check): kBasic runs the
  /// O(V+E) netlist/timing/power checkers on every run; kFull adds
  /// placement legality, routing DRC and library sanity. Violations land in
  /// FlowResult::checks, the "check" StageReport counters
  /// ("check.violations", "check.<checker>.violations") and the JSON run
  /// report; run_flow never aborts on them.
  check::Level check_level = check::Level::kBasic;
  /// When set, the gen stage copies this netlist instead of generating
  /// `bench` (the fuzz driver pushes random circuits through the flow this
  /// way). Must outlive the call; `seed` still controls place/route.
  const circuit::Netlist* custom_netlist = nullptr;
  /// Content-addressed stage-artifact store directory (src/store): when
  /// set (or via the M3D_STORE environment variable), run_flow memoizes
  /// and reuses its expensive prefixes — the generated netlist and the
  /// routed, post-route-optimized design — across runs and processes. The
  /// routed design's key leaves out pi_activity, seq_activity and
  /// check_level, so runs that differ only in those re-run sign-off alone.
  /// Replayed stages keep their recorded StageReports, so a store-hit
  /// run's canonical report is byte-identical to a cold run's.
  /// Empty and no M3D_STORE: the serial fallback — every stage runs.
  std::string store_dir;
  /// Structured trace collection (src/obs) for this run: span timeline
  /// events, exec pool activity, stage-boundary memory samples, and a span
  /// summary + per-stage "mem" block in the run report (schema becomes
  /// m3d.run_report/v3). Also enabled by M3D_TRACE=1 in the environment.
  /// Off (the default): canonical outputs are byte-identical to a build
  /// without the trace subsystem.
  bool trace = false;
  /// Stage-boundary hook: invoked once per flow stage, right after its
  /// StageReport is appended, on the thread executing the flow; perfbench
  /// times its stages through it. A store-warm run replays the restored
  /// stages' reports through it too. The callback must not re-enter
  /// the flow and must tolerate being called from pool worker threads (the
  /// iso-comparison driver runs flows on the exec pool). Never affects the
  /// computed result.
  std::function<void(const StageReport&)> stage_observer;
};

struct FlowResult {
  // Identification.
  std::string bench_name;
  tech::Style style = tech::Style::k2D;
  double clock_ns = 0.0;
  // Table 13/14 columns.
  double footprint_um2 = 0.0;
  int cells = 0;
  int buffers = 0;
  double utilization = 0.0;  // per tier in G-MI
  double total_wl_um = 0.0;
  double wns_ps = 0.0;
  bool timing_met = false;
  bool routed = false;
  double total_uw = 0.0;
  double cell_uw = 0.0;
  double net_uw = 0.0;
  double leak_uw = 0.0;
  // Supplement S8 split.
  double wire_uw = 0.0;
  double pin_uw = 0.0;
  double wire_cap_pf = 0.0;
  double pin_cap_pf = 0.0;
  double longest_path_ns = 0.0;
  // Full state for snapshots / further analysis.
  circuit::Netlist netlist;
  place::Die die;
  route::RouteResult routes;
  // Observability: one entry per flow stage, in execution order.
  std::vector<StageReport> stages;
  // Reproducibility + correctness record: the seed that produced this run
  // (serialized into the run report so any failure replays from the log),
  // the check level it ran at, and every invariant violation found.
  uint64_t seed = 0;
  check::Level check_level = check::Level::kNone;
  check::CheckResult checks;
  // Trace collection record (FlowOptions::trace / M3D_TRACE): whether this
  // run was traced, and the deterministic per-span-name summary (sorted by
  // name) that report::to_json serializes into the v3 "trace" block.
  bool trace_enabled = false;
  std::vector<obs::SpanSummary> trace_spans;

  const StageReport* stage(const std::string& name) const {
    for (const auto& s : stages) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

/// The local-capacity derate run_flow routes with: opt.local_blockage_frac,
/// or when that is negative the style's default (0.03 under folded T-MI
/// cells, 0 for 2D and G-MI).
double effective_local_blockage_frac(const FlowOptions& opt);

/// Runs the complete flow once. opt.lib must outlive the call.
FlowResult run_flow(const FlowOptions& opt);

/// Determines a closable clock for (bench, node, style=2D) by probing the
/// critical path after synthesis at a loose clock, scaled by `tighten`.
double auto_clock_ns(const FlowOptions& base, double tighten = 1.05);

struct CompareResult {
  FlowResult flat;  // 2D
  FlowResult tmi;   // T-MI (or T-MI+M)
  /// Percent change of v3 over v2. A zero baseline (e.g. leak_uw at coarse
  /// scale shifts) yields 0 when both are zero, else a signed infinity, so
  /// the ratio never divides by zero.
  double pct(double v3, double v2) const {
    if (v2 == 0.0) {
      if (v3 == 0.0) return 0.0;
      return std::copysign(std::numeric_limits<double>::infinity(), v3);
    }
    return 100.0 * (v3 / v2 - 1.0);
  }
  double footprint_pct() const { return pct(tmi.footprint_um2, flat.footprint_um2); }
  double wl_pct() const { return pct(tmi.total_wl_um, flat.total_wl_um); }
  double power_pct() const { return pct(tmi.total_uw, flat.total_uw); }
  double cell_power_pct() const { return pct(tmi.cell_uw, flat.cell_uw); }
  double net_power_pct() const { return pct(tmi.net_uw, flat.net_uw); }
};

/// Iso-performance comparison: runs 2D, then the 3D style, at the same
/// clock. `opt.style` selects the 3D style (kTMI or kTMIPlusM);
/// `lib2d`/`lib3d` are the two characterized libraries.
CompareResult run_iso_comparison(const FlowOptions& opt,
                                 const liberty::Library& lib2d,
                                 const liberty::Library& lib3d);

/// The one per-benchmark preset: `bench` and `node` with the benchmark's
/// scale_shift (keeps the largest benchmarks tractable while preserving the
/// paper's size ordering) and target_util (paper: LDPC 0.33, M256 0.68,
/// else 0.8). Every other field keeps its FlowOptions default.
FlowOptions preset(gen::Bench bench, tech::Node node);

}  // namespace m3d::flow
