#include "flow/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "cts/cts.hpp"
#include "exec/exec.hpp"
#include "extract/extract.hpp"
#include "flow/artifacts.hpp"
#include "obs/export.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "opt/opt.hpp"
#include "sta/sta.hpp"
#include "store/store.hpp"
#include "synth/synth.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::flow {
namespace {

/// Runs one flow stage under a span and appends a StageReport to `res`:
/// wall time plus the delta of every counter the stage touched in the
/// thread's current sink (run_flow installs a flow-local one, so counter
/// deltas are exact even when several flows run concurrently). With
/// `tracing` the report additionally carries the stage's memory profile
/// (stage-exit RSS/peak-RSS, counting-allocator traffic), which is also
/// emitted as trace counter samples so the timeline shows memory tracks.
/// `observer` (FlowOptions::stage_observer) sees the finished report last,
/// after it is appended.
template <typename Body>
void run_stage(FlowResult* res, const char* name, bool tracing,
               const std::function<void(const StageReport&)>& observer,
               Body&& body) {
  auto& reg = util::MetricsRegistry::current();
  const auto before = reg.counters();
  const uint64_t alloc_bytes0 = tracing ? obs::allocated_bytes() : 0;
  const uint64_t alloc_calls0 = tracing ? obs::allocation_calls() : 0;
  obs::Span timer(util::strf("flow.%s", name));
  body();
  StageReport sr;
  sr.name = name;
  sr.wall_ms = timer.stop();
  if (tracing) {
    const obs::MemSample mem = obs::sample_rss();
    sr.rss_mb = mem.rss_mb;
    sr.hwm_mb = mem.hwm_mb;
    sr.alloc_mb = static_cast<double>(obs::allocated_bytes() - alloc_bytes0) /
                  (1024.0 * 1024.0);
    sr.allocs = static_cast<int64_t>(obs::allocation_calls() - alloc_calls0);
    obs::emit_counter("mem.rss_mb", mem.rss_mb);
    obs::emit_counter("mem.hwm_mb", mem.hwm_mb);
    obs::emit_counter("mem.stage_alloc_mb", sr.alloc_mb);
  }
  for (const auto& [key, value] : reg.counters()) {
    const auto it = before.find(key);
    const double delta = value - (it == before.end() ? 0.0 : it->second);
    if (delta != 0.0) sr.counters.emplace_back(key, delta);
  }
  res->stages.push_back(std::move(sr));
  if (observer) observer(res->stages.back());
}

/// Store-hit path: appends nothing itself — the decoded blob already pushed
/// the recorded StageReports — but replays them to the observer so it sees
/// every stage exactly once, in order, whether it ran or was restored.
void replay_stages(const FlowResult& res, size_t first,
                   const std::function<void(const StageReport&)>& observer) {
  if (!observer) return;
  for (size_t i = first; i < res.stages.size(); ++i) observer(res.stages[i]);
}

synth::Wlm default_wlm(const FlowOptions& opt, const circuit::Netlist& nl,
                       const tech::Tech& tch) {
  // Expected core area from a rough pre-bind cell-count model.
  double cell_area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.inst(i);
    if (inst.dead) continue;
    const auto* c = opt.lib->pick(inst.func, inst.drive);
    if (c != nullptr) cell_area += c->area_um2();
  }
  const double core = cell_area / std::max(0.2, opt.target_util);
  synth::Wlm wlm = synth::make_statistical_wlm(core, tch);
  if (tch.is_3d() && opt.tmi_wlm) {
    // T-MI wires are ~25% shorter (paper Section 3.4); the T-MI WLM reflects
    // it, which changes the synthesized netlist.
    wlm = wlm.scaled(0.75);
  } else if (tch.is_3d() && !opt.tmi_wlm) {
    // Table 15 study: synthesize the T-MI design with the *2D* WLM: the
    // area estimate must then also be the 2D one (larger cells).
    const tech::Tech t2(opt.node, tech::Style::k2D);
    const double scale2d = t2.row_height_um() / tch.row_height_um();
    wlm = synth::make_statistical_wlm(core * scale2d, tch);
  }
  return wlm;
}

}  // namespace

FlowOptions preset(gen::Bench bench, tech::Node node) {
  FlowOptions o;  // target_util defaults to the paper's 0.8
  o.bench = bench;
  o.node = node;
  switch (bench) {
    case gen::Bench::kFpu:  // ~6k cells (full 52-bit mantissa)
      o.scale_shift = 0;
      break;
    case gen::Bench::kAes:  // ~11k cells
      o.scale_shift = 1;
      break;
    case gen::Bench::kLdpc:  // ~25k cells (longer global wires)
      o.scale_shift = 2;
      o.target_util = 0.33;  // severe congestion (paper S6)
      break;
    case gen::Bench::kDes:  // ~6k cells (8 pipelined rounds)
      o.scale_shift = 1;
      break;
    case gen::Bench::kM256:  // ~37k cells (128-bit)
      o.scale_shift = 1;
      o.target_util = 0.68;
      break;
  }
  return o;
}

FlowResult run_flow(const FlowOptions& opt_in) {
  assert(opt_in.lib != nullptr);
  // Honor the documented "clock_ns == 0: auto" contract here, not just in
  // run_iso_comparison: an unset clock used to flow a zero period into
  // optimization and power (1/clock), yielding NaN/inf results.
  FlowOptions opt = opt_in;
  // Content-addressed artifact store (src/store): disabled (every stage
  // runs — the serial fallback) when no directory is configured or the
  // options are outside the key schema (custom WLM).
  const store::Store store(artifacts::resolved_store_dir(opt.store_dir));
  const bool use_store = store.enabled() && artifacts::store_usable(opt);
  if (opt.clock_ns <= 0.0) {
    opt.clock_ns =
        artifacts::resolved_clock_ns(opt, use_store ? &store : nullptr);
  }
  tech::Tech tch(opt.node, opt.style);
  if (opt.resistivity_scale != 1.0) {
    tch.scale_resistivity(tech::LayerLevel::kLocal, opt.resistivity_scale);
    tch.scale_resistivity(tech::LayerLevel::kIntermediate, opt.resistivity_scale);
  }

  FlowResult res;
  res.style = opt.style;
  res.clock_ns = opt.clock_ns;
  res.seed = opt.seed;
  res.check_level = opt.check_level;

  // Trace collection window: opened before the flow span so the root span
  // lands in the timeline, attributed to this run's own trace flow (its
  // Chrome-trace pid). The real benchmark name replaces the placeholder
  // once gen has run.
  const bool tracing = opt.trace || obs::env_enabled();
  std::optional<obs::ScopedTraceEnable> trace_window;
  std::optional<obs::ScopedContext> flow_attribution;
  uint32_t flow_id = 0;
  if (tracing) {
    trace_window.emplace();
    flow_id = obs::register_flow(util::strf("flow %s/%s",
                                            tech::to_string(opt.node),
                                            tech::to_string(opt.style)));
    obs::Context ctx = obs::context();
    ctx.flow = flow_id;
    flow_attribution.emplace(ctx);
    res.trace_enabled = true;
  }
  obs::Span flow_span(
      util::strf("flow.run %s/%s", tech::to_string(opt.node),
                 tech::to_string(opt.style)));

  // All metrics of this run collect into a flow-local registry, published
  // into the parent sink only when the run finishes: concurrent flows (the
  // iso-comparison runs 2D and T-MI together) never interleave counters
  // inside each other's StageReports.
  util::MetricsRegistry& parent = util::MetricsRegistry::current();
  util::MetricsRegistry local;
  sta::TimingResult timing;
  power::PowerResult power;
  {
  const util::ScopedMetricsSink sink(local);

  // 0. Store lookup (outside any stage body, so the store.* counters never
  // leak into a StageReport and cold/warm canonical reports stay
  // byte-identical). A placement hit restores the exact post-place state —
  // netlist, die, and the recorded gen/synth/place StageReports — and the
  // flow resumes at pre-route optimization.
  circuit::Netlist& nl = res.netlist;
  uint64_t lib_fp = 0;
  std::string place_k;
  bool place_restored = false;
  if (use_store) {
    lib_fp = artifacts::library_fingerprint(*opt.lib);
    place_k = artifacts::place_key(opt, lib_fp);
    if (const auto blob = store.get("place", place_k)) {
      if (artifacts::decode_place_blob(*blob, &res)) {
        // Binding pointers are not serialized; rebinding against the same
        // library (same fingerprint, by key) reproduces them exactly.
        nl.bind(*opt.lib);
        res.bench_name = nl.name;
        replay_stages(res, 0, opt.stage_observer);
        place_restored = true;
      }
    }
  }

  if (!place_restored) {
    // 1. Benchmark netlist — itself store-backed: generation is a pure
    // function of (bench, scale_shift, seed).
    bool gen_restored = false;
    std::string netlist_k;
    const bool gen_storable = use_store && opt.custom_netlist == nullptr;
    if (gen_storable) {
      netlist_k = artifacts::netlist_key(opt);
      if (const auto blob = store.get("netlist", netlist_k)) {
        if (artifacts::decode_netlist_blob(*blob, &res)) {
          res.bench_name = nl.name;
          replay_stages(res, res.stages.size() - 1, opt.stage_observer);
          gen_restored = true;
        }
      }
    }
    if (!gen_restored) {
      run_stage(&res, "gen", tracing, opt.stage_observer, [&] {
        if (opt.custom_netlist != nullptr) {
          res.netlist = *opt.custom_netlist;
        } else {
          gen::GenOptions gopt;
          gopt.scale_shift = opt.scale_shift;
          gopt.seed = opt.seed;
          res.netlist = gen::make_benchmark(opt.bench, gopt);
        }
        res.bench_name = nl.name;
      });
      if (gen_storable &&
          !store.put("netlist", netlist_k,
                     artifacts::encode_netlist_blob(res))) {
        util::warn("store: failed to cache netlist artifact " + netlist_k);
      }
    }
  }
  if (tracing) {
    obs::set_flow_name(flow_id, util::strf("%s %s/%s", res.bench_name.c_str(),
                                           tech::to_string(opt.node),
                                           tech::to_string(opt.style)));
  }

  if (!place_restored) {
    // 2. Synthesis with the style's WLM.
    run_stage(&res, "synth", tracing, opt.stage_observer, [&] {
      const synth::Wlm wlm =
          opt.wlm.has_value() ? *opt.wlm : default_wlm(opt, nl, tch);
      synth::SynthOptions sopt;
      sopt.clock_ns = opt.clock_ns;
      synth::synthesize(&nl, *opt.lib, wlm, sopt);
    });

    // 3. Placement, plus clock tree synthesis (the tree's buffers/nets are
    // ordinary objects: routed, extracted and powered like everything else).
    run_stage(&res, "place", tracing, opt.stage_observer, [&] {
      res.die = place::make_die(&nl, opt.target_util, tch.row_height_um());
      place::PlaceOptions popt;
      popt.target_util = opt.target_util;
      popt.seed = opt.seed;
      place::place_design(&nl, res.die, popt);
      if (opt.build_cts) {
        cts::CtsOptions copt;
        copt.die = &res.die;  // keep clock buffers row-legal
        cts::build_clock_tree(&nl, *opt.lib, copt);
      }
    });
    if (use_store &&
        !store.put("place", place_k, artifacts::encode_place_blob(res))) {
      util::warn("store: failed to cache placement artifact " + place_k);
    }
  }

  // 4. Pre-route optimization on placement estimates.
  opt::OptOptions oopt;
  run_stage(&res, "opt_preroute", tracing, opt.stage_observer, [&] {
    oopt.clock_ns = opt.clock_ns;
    oopt.die = &res.die;  // keep inserted buffers row-legal
    oopt.allow_buffering = true;
    oopt.buffer_net_wl_um =
        120.0 * (opt.node == tech::Node::k7nm ? 7.0 / 45.0 : 1.0);
    opt::optimize(&nl, *opt.lib,
                  [&](const circuit::Netlist& n) {
                    return extract::extract_from_placement(n, tch);
                  },
                  oopt);
  });

  // 5. Global routing.
  run_stage(&res, "route", tracing, opt.stage_observer, [&] {
    route::RouteOptions ropt;
    ropt.seed = opt.seed;
    ropt.local_blockage_frac =
        opt.local_blockage_frac >= 0.0 ? opt.local_blockage_frac
                                       : (tch.is_3d() ? 0.03 : 0.0);
    res.routes = route::global_route(nl, res.die, tch, ropt);
  });

  // 6. Post-route optimization: sizing only, routes preserved (paper S5).
  run_stage(&res, "opt_postroute", tracing, opt.stage_observer, [&] {
    opt::OptOptions oopt2 = oopt;
    oopt2.allow_buffering = false;
    opt::optimize(&nl, *opt.lib,
                  [&](const circuit::Netlist& n) {
                    return extract::extract_from_routes(n, tch, res.routes);
                  },
                  oopt2);
  });

  // 7. Sign-off timing and power.
  run_stage(&res, "sta_power", tracing, opt.stage_observer, [&] {
    const auto par = extract::extract_from_routes(nl, tch, res.routes);
    sta::StaOptions sta_opt;
    sta_opt.clock_ns = opt.clock_ns;
    timing = sta::run_sta(nl, par, sta_opt);
    power::PowerOptions pw;
    pw.clock_ns = opt.clock_ns;
    pw.vdd_v = opt.lib->vdd_v;
    pw.pi_activity = opt.pi_activity;
    pw.seq_activity = opt.seq_activity;
    power = power::run_power(nl, par, &timing, pw);
  });

  // 8. Invariant checks on every sign-off artifact (src/check). Violations
  // are recorded, counted and logged — never fatal — so sweeps and fuzz
  // runs see the complete picture instead of dying on the first breach.
  if (opt.check_level != check::Level::kNone) {
    run_stage(&res, "check", tracing, opt.stage_observer, [&] {
      check::CheckResult cr = check::check_netlist(nl);
      cr.merge(check::check_timing(nl, timing));
      cr.merge(check::check_power(nl, power));
      if (opt.check_level == check::Level::kFull) {
        cr.merge(check::check_placement(nl, res.die));
        cr.merge(check::check_routing(nl, res.routes, tch));
        cr.merge(check::check_library(*opt.lib));
      }
      for (const char* checker :
           {"netlist", "timing", "power", "placement", "routing", "library"}) {
        const int n = cr.count_for(checker);
        if (n > 0) {
          util::count(util::strf("check.%s.violations", checker),
                      static_cast<double>(n));
        }
      }
      if (!cr.violations.empty()) {
        util::count("check.violations",
                    static_cast<double>(cr.violations.size()));
        util::warn(util::strf("flow check (%s): %d error(s), %d warning(s)\n%s",
                              check::to_string(opt.check_level), cr.errors(),
                              cr.warnings(), cr.summary().c_str()));
      }
      res.checks = std::move(cr);
    });
  }
  }  // flow-local sink scope
  parent.merge_from(local);

  if (tracing) {
    // Close the root span before snapshotting so the summary sees every
    // span of this flow completed, then reduce this flow's events to the
    // deterministic per-name summary for the v3 report block.
    flow_span.stop();
    res.trace_spans = obs::summarize_spans(obs::snapshot(), flow_id);
  }

  const circuit::Netlist& nl = res.netlist;
  res.footprint_um2 = res.die.core.area();
  res.cells = 0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.inst(i).dead) ++res.cells;
  }
  res.buffers = nl.count_buffers();
  res.utilization = place::utilization(nl, res.die);
  res.total_wl_um = res.routes.total_wl_um;
  res.wns_ps = timing.wns_ps;
  res.timing_met = timing.met();
  res.routed = res.routes.routed;
  res.total_uw = power.total_uw;
  res.cell_uw = power.cell_internal_uw;
  res.net_uw = power.net_switching_uw;
  res.leak_uw = power.leakage_uw;
  res.wire_uw = power.wire_uw;
  res.pin_uw = power.pin_uw;
  res.wire_cap_pf = power.wire_cap_pf;
  res.pin_cap_pf = power.pin_cap_pf;
  res.longest_path_ns = timing.critical_path_ps / 1000.0;
  util::info(util::strf(
      "flow %s/%s/%s clk=%.3fns: wl=%.3fmm wns=%+.0fps P=%.1fuW (%s)",
      res.bench_name.c_str(), tech::to_string(opt.node),
      tech::to_string(opt.style), opt.clock_ns, res.total_wl_um / 1000.0,
      res.wns_ps, res.total_uw, res.timing_met ? "met" : "VIOLATED"));
  return res;
}

double auto_clock_ns(const FlowOptions& base, double tighten) {
  FlowOptions probe = base;
  probe.style = tech::Style::k2D;
  probe.clock_ns = 1000.0;  // loose: no upsizing pressure
  tech::Tech tch(probe.node, probe.style);

  gen::GenOptions gopt;
  gopt.scale_shift = probe.scale_shift;
  gopt.seed = probe.seed;
  circuit::Netlist nl = probe.custom_netlist != nullptr
                            ? *probe.custom_netlist
                            : gen::make_benchmark(probe.bench, gopt);
  const synth::Wlm wlm = synth::make_statistical_wlm(
      1.0, tch);  // area refined below via default path
  (void)wlm;
  synth::SynthOptions sopt;
  sopt.clock_ns = probe.clock_ns;
  nl.bind(*probe.lib);
  synth::synthesize(&nl, *probe.lib,
                    [&] {
                      FlowOptions tmp = probe;
                      return default_wlm(tmp, nl, tch);
                    }(),
                    sopt);
  const auto par = synth::wlm_parasitics(
      nl, default_wlm(probe, nl, tch));
  sta::StaOptions sta_opt;
  sta_opt.clock_ns = probe.clock_ns;
  const auto timing = sta::run_sta(nl, par, sta_opt);
  const double cp_ns = timing.critical_path_ps / 1000.0;
  return cp_ns * tighten;
}

CompareResult run_iso_comparison(const FlowOptions& opt,
                                 const liberty::Library& lib2d,
                                 const liberty::Library& lib3d) {
  CompareResult cmp;
  FlowOptions o2 = opt;
  o2.style = tech::Style::k2D;
  o2.lib = &lib2d;
  FlowOptions o3 = opt;
  o3.style = (opt.style == tech::Style::k2D) ? tech::Style::kTMI : opt.style;
  o3.lib = &lib3d;

  const bool auto_clock = opt.clock_ns <= 0.0;
  bool tmi_valid = false;
  if (auto_clock) {
    o2.clock_ns = auto_clock_ns(o2);
    cmp.flat = run_flow(o2);
  } else {
    // Fixed clock: speculate that it holds for 2D and run the T-MI design
    // concurrently at the same clock. If the 2D run has to relax below,
    // the speculative T-MI result is discarded and redone at the final
    // clock — exactly what a serial sweep would have produced.
    o3.clock_ns = o2.clock_ns;
    exec::TaskGroup group(exec::default_pool());
    group.run([&] { cmp.flat = run_flow(o2); });
    group.run([&] { cmp.tmi = run_flow(o3); });
    group.wait();
    tmi_valid = true;
  }
  // The WLM-derived clock is optimistic about routed parasitics; relax to
  // the period the 2D design actually achieves (still iso-performance: the
  // T-MI run below uses the same final clock).
  for (int attempt = 0; attempt < 3 && !cmp.flat.timing_met; ++attempt) {
    o2.clock_ns = (o2.clock_ns * 1000.0 - cmp.flat.wns_ps) * 1.02 / 1000.0;
    cmp.flat = run_flow(o2);
  }
  // Then tighten while the 2D design has generous slack, so the comparison
  // runs under real timing pressure (only when the caller asked for auto).
  // Bisect between the tightest met clock and the loosest failed one.
  if (auto_clock && cmp.flat.timing_met) {
    double failed_clk = 0.0;  // loosest clock known to fail
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (cmp.flat.wns_ps < 0.03 * o2.clock_ns * 1000.0) break;
      double trial_clk =
          (o2.clock_ns * 1000.0 - 0.8 * cmp.flat.wns_ps) / 1000.0;
      if (failed_clk > 0.0) {
        trial_clk = std::max(trial_clk, 0.5 * (failed_clk + o2.clock_ns));
      }
      if (trial_clk >= o2.clock_ns * 0.99) break;
      FlowOptions trial = o2;
      trial.clock_ns = trial_clk;
      FlowResult r = run_flow(trial);
      if (r.timing_met) {
        o2 = trial;
        cmp.flat = std::move(r);
      } else {
        failed_clk = trial_clk;
      }
    }
  }

  if (!tmi_valid || o3.clock_ns != o2.clock_ns) {
    o3.clock_ns = o2.clock_ns;  // iso-performance
    cmp.tmi = run_flow(o3);
  }
  // Iso-performance requires BOTH designs to close. If the T-MI run misses
  // (the folded DFF is a few percent slower), relax the shared clock and
  // rerun both — the pair shares nothing, so the reruns go concurrently.
  for (int attempt = 0;
       attempt < 3 && auto_clock && cmp.flat.timing_met && !cmp.tmi.timing_met;
       ++attempt) {
    const double new_clk =
        (o3.clock_ns * 1000.0 - cmp.tmi.wns_ps) * 1.02 / 1000.0;
    o2.clock_ns = new_clk;
    o3.clock_ns = new_clk;
    exec::TaskGroup group(exec::default_pool());
    group.run([&] { cmp.flat = run_flow(o2); });
    group.run([&] { cmp.tmi = run_flow(o3); });
    group.wait();
  }
  return cmp;
}

}  // namespace m3d::flow
