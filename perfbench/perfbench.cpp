// m3d_perfbench: the repository benchmark (see README.md). One process per
// run:
//
//   m3d_perfbench --workload <ldpc_iso|des_sweep|char_lib>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>] [--revision <text>]
//
// A run sets up (repeated, median reported as setup_s), then repeats whole
// passes of the workload until --seconds have elapsed, checking every
// operation of every pass. --trace 0 reports the end-to-end metrics;
// --trace 1 additionally runs one traced pass plus a module-by-module
// replay and reports the per-layer metrics. Provenance and result digests
// are printed first; the last line of stdout is the JSON result.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "cells/func.hpp"
#include "cells/spec.hpp"
#include "check/check.hpp"
#include "exec/exec.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "gen/gen.hpp"
#include "liberty/characterize.hpp"
#include "liberty/liberty_writer.hpp"
#include "replay.hpp"
#include "store/blob.hpp"
#include "tech/tech.hpp"
#include "tests/test_fixtures.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace perfbench {
namespace {

using namespace m3d;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20130529;
// Never used while the benchmark was written; reserved for confirming
// later performance claims on unseen inputs.
constexpr uint64_t kHeldOutSeed = 4021987;
constexpr int kSetupReps = 101;        // before the first pass
constexpr int kSetupRepsPerPass = 20;  // after each measured pass
constexpr double kOvershoot = 1.6;  // measuring may last 1.6 x --seconds
// ... or up to 2 x --seconds while a run has not yet covered its inputs.
constexpr double kCoverOvershoot = 2.0;
// Pass i runs instance i % kInstances, seed + (i % kInstances) *
// kInstanceStride, so a run's median spans several inputs: the per-flow
// cost depends on the instance (how much rip-up-and-reroute it needs).
constexpr size_t kInstances = 5;
constexpr uint64_t kInstanceStride = 1000003;

uint64_t pass_seed(uint64_t seed, int index) {
  return seed + (static_cast<size_t>(index) % kInstances) * kInstanceStride;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex64(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// CPU time of the whole process, all threads, user plus system.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --------------------------------------------------------------------------
// Workloads

/// One checked unit of work: an iso-comparison, a sweep point, a
/// characterized cell or the library's reference flow. `digests` are
/// (label, hash) pairs that must repeat exactly from pass to pass.
struct Op {
  std::string label;
  std::vector<std::pair<std::string, uint64_t>> digests;
  std::string fault;  // empty: correct
};

/// A flow the traced run replays module by module, with the figures
/// run_flow produced for it.
struct ReplayTarget {
  flow::FlowOptions opt;
  FlowFigures expect;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double flows = 0.0;  // run_flow calls (flow workloads)
  std::vector<Op> ops;
  // Simulated results: summed over both styles and every point.
  double wl_mm = 0.0;
  double power_mw = 0.0;
  // ldpc_iso: 1 / the longer sign-off critical path of the pair (its clock
  // is fixed); des_sweep: mean of 1 / the clock each point closed at;
  // char_lib: 1 / the reference flow's critical path.
  double freq_ghz = 0.0;
  std::vector<ReplayTarget> replay;
  liberty::Library lib;  // char_lib only
};

enum class Kind { kIso, kSweep, kChar };

struct Workload {
  std::string name;
  Kind kind = Kind::kIso;
  gen::Bench bench = gen::Bench::kDes;
  int scale_shift = 0;
  double util = 0.8;
  // Fixed clocks: ldpc_iso's one, des_sweep's grid. ldpc_iso does not use
  // the auto clock: its search runs 3 or 4 flows at clocks that depend on
  // the instance, which made the CPU time of one iso-comparison range from
  // 10.4 to 20.5 s over 15 instances. 8.5 ns is above the 7.5-8.0 ns it
  // found for them, so both sides close at it.
  std::vector<double> clocks_ns;
  std::vector<double> activities;    // des_sweep grid (primary inputs)
  // Exec pool size; 0: $M3D_THREADS, else the number of cores. ldpc_iso
  // runs one flow at a time whose parallel sections (RRR batches) are too
  // narrow to fill a pool: at 4 threads its CPU time varied by +-11% over
  // passes of one input, against +-4.5% on a serial pool.
  int threads = 0;
};

const Workload kWorkloads[] = {
    {"ldpc_iso", Kind::kIso, gen::Bench::kLdpc, 2, 0.33, {8.5}, {}, 1},
    {"des_sweep", Kind::kSweep, gen::Bench::kDes, 1, 0.8,
     {1.8, 2.0, 2.4, 3.0}, {0.1, 0.2, 0.4}, 0},
    {"char_lib", Kind::kChar, gen::Bench::kDes, 0, 0.0, {}, {}, 0},
};

// The reference design that turns a characterized library into design
// figures (char_lib's wl_mm / power_mw / freq_ghz).
constexpr int kRefScaleShift = 2;
constexpr double kRefClockNs = 3.0;

struct Context {
  const Workload* w = nullptr;
  int threads = 1;  // exec pool size the workload runs on
  uint64_t seed = kDefaultSeed;
  std::string scratch;  // per-pass store directories live below it
  liberty::Library lib2d;
  liberty::Library lib3d;
};

flow::FlowOptions base_options(const Context& ctx, uint64_t seed) {
  flow::FlowOptions o;
  o.bench = ctx.w->bench;
  o.scale_shift = ctx.w->scale_shift;
  o.target_util = ctx.w->util;
  o.clock_ns = ctx.w->kind == Kind::kIso ? ctx.w->clocks_ns[0] : 0.0;
  o.seed = seed;
  o.check_level = check::Level::kFull;
  return o;
}

bool finite_flow(const flow::FlowResult& r) {
  for (double v : {r.footprint_um2, r.total_wl_um, r.wns_ps, r.total_uw,
                   r.clock_ns, r.longest_path_ns}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// The iso-comparison oracle: both sides close timing, no check_level full
/// error, finite results, and T-MI below 2D in footprint, WL and power.
std::string iso_fault(const flow::CompareResult& c) {
  if (!finite_flow(c.flat) || !finite_flow(c.tmi)) return "non-finite result";
  if (!c.flat.timing_met) return "2D misses timing";
  if (!c.tmi.timing_met) return "T-MI misses timing";
  if (!c.flat.checks.ok()) return "2D check errors";
  if (!c.tmi.checks.ok()) return "T-MI check errors";
  if (!(c.tmi.footprint_um2 < c.flat.footprint_um2)) return "T-MI footprint >= 2D";
  if (!(c.tmi.total_wl_um < c.flat.total_wl_um)) return "T-MI WL >= 2D";
  if (!(c.tmi.total_uw < c.flat.total_uw)) return "T-MI power >= 2D";
  return "";
}

uint64_t report_digest(const flow::FlowResult& r) {
  return store::fnv1a64(report::to_canonical_json_string(r));
}

ReplayTarget replay_target(flow::FlowOptions o, const flow::FlowResult& r,
                           const liberty::Library& lib) {
  o.style = r.style;
  o.lib = &lib;
  o.clock_ns = r.clock_ns;
  o.store_dir.clear();
  o.stage_observer = nullptr;
  return {std::move(o), figures_of(r)};
}

void add_iso(Pass* pass, const std::string& label,
             const flow::CompareResult& c) {
  Op op;
  op.label = label;
  op.digests = {{"2D", report_digest(c.flat)}, {"T-MI", report_digest(c.tmi)}};
  op.fault = iso_fault(c);
  pass->ops.push_back(std::move(op));
  pass->wl_mm += (c.flat.total_wl_um + c.tmi.total_wl_um) / 1000.0;
  pass->power_mw += (c.flat.total_uw + c.tmi.total_uw) / 1000.0;
}

Pass run_iso_pass(const Context& ctx, const flow::FlowOptions& o) {
  Pass pass;
  const auto c = flow::run_iso_comparison(o, ctx.lib2d, ctx.lib3d);
  add_iso(&pass, ctx.w->name, c);
  pass.freq_ghz = 1.0 / std::max(c.flat.longest_path_ns, c.tmi.longest_path_ns);
  pass.replay = {replay_target(o, c.flat, ctx.lib2d),
                 replay_target(o, c.tmi, ctx.lib3d)};
  return pass;
}

// The Fig 4 / Fig 11 style grid. Clocks fan out over the exec pool; the
// activities of one clock run in order against a fresh store, so the first
// writes the netlist and placement artifacts and the later ones resume
// from them.
Pass run_sweep_pass(const Context& ctx, flow::FlowOptions o, int index) {
  const Workload& w = *ctx.w;
  const std::filesystem::path dir =
      std::filesystem::path(ctx.scratch) / ("store-pass" + std::to_string(index));
  std::filesystem::remove_all(dir);
  o.store_dir = dir.string();
  const size_t na = w.activities.size();
  std::vector<flow::CompareResult> res(w.clocks_ns.size() * na);
  {
    exec::TaskGroup group(exec::default_pool());
    for (size_t ci = 0; ci < w.clocks_ns.size(); ++ci) {
      group.run([&, ci] {
        for (size_t ai = 0; ai < na; ++ai) {
          flow::FlowOptions p = o;
          p.clock_ns = w.clocks_ns[ci];
          p.pi_activity = w.activities[ai];
          res[ci * na + ai] = flow::run_iso_comparison(p, ctx.lib2d, ctx.lib3d);
        }
      });
    }
    group.wait();
  }
  std::filesystem::remove_all(dir);
  Pass pass;
  for (size_t i = 0; i < res.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof label, "clk=%.2fns,act=%.2f",
                  w.clocks_ns[i / na], w.activities[i % na]);
    add_iso(&pass, label, res[i]);
    pass.freq_ghz += 1.0 / res[i].flat.clock_ns;
  }
  pass.freq_ghz /= static_cast<double>(res.size());
  flow::FlowOptions first = o;
  first.pi_activity = w.activities[0];
  pass.replay = {replay_target(first, res[0].flat, ctx.lib2d),
                 replay_target(first, res[0].tmi, ctx.lib3d)};
  return pass;
}

std::vector<std::string> expected_cells() {
  std::vector<std::string> names;
  for (cells::Func f : cells::all_comb_funcs()) {
    for (int d : cells::drive_options(f)) names.push_back(cells::cell_name(f, d));
  }
  for (int d : cells::drive_options(cells::Func::kDff)) {
    names.push_back(cells::cell_name(cells::Func::kDff, d));
  }
  return names;
}

bool delays_valid(const liberty::LibCell& c) {
  if (c.arcs.empty()) return false;
  for (const auto& arc : c.arcs) {
    for (const auto& t : arc.delay) {
      if (t.empty()) return false;
      for (double v : t.value) {
        if (!std::isfinite(v) || v <= 0.0) return false;
      }
    }
  }
  return true;
}

/// Whether `message` names `cell` as a whole word (check_library writes
/// "cell NAME ..." or "NAME A->Z edge ...").
bool names_cell(const std::string& message, const std::string& cell) {
  for (size_t at = message.find(cell); at != std::string::npos;
       at = message.find(cell, at + 1)) {
    const size_t end = at + cell.size();
    if ((at == 0 || message[at - 1] == ' ') &&
        (end == message.size() || message[end] == ' ')) {
      return true;
    }
  }
  return false;
}

/// One op per expected cell: present, finite positive delays, and not
/// named by a check_library error (an error naming no cell fails them all).
Pass run_char_pass() {
  Pass pass;
  pass.lib = liberty::build_library_45nm(tech::Style::kTMI);
  const uint64_t digest = store::fnv1a64(liberty::to_liberty_text(pass.lib));
  const std::vector<std::string> names = expected_cells();
  const check::CheckResult checked = check::check_library(pass.lib);
  for (const std::string& name : names) {
    Op op;
    op.label = name;
    op.digests = {{"lib", digest}};
    const liberty::LibCell* c = pass.lib.find(name);
    if (c == nullptr) {
      op.fault = "missing";
    } else if (!delays_valid(*c)) {
      op.fault = "non-finite or non-positive delay entry";
    }
    for (const check::Violation& v : checked.violations) {
      if (!op.fault.empty() || v.severity != check::Severity::kError) continue;
      const bool names_any = std::any_of(names.begin(), names.end(), [&](const std::string& n) {
        return names_cell(v.message, n);
      });
      if (!names_any || names_cell(v.message, name)) {
        op.fault = "check_library " + v.code + ": " + v.message;
      }
    }
    pass.ops.push_back(std::move(op));
  }
  return pass;
}

/// char_lib's design figures: one T-MI DES flow on the characterized
/// library at a fixed clock, checked like a flow operation.
Op reference_flow(const liberty::Library& lib, Pass* pass) {
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = kRefScaleShift;
  o.style = tech::Style::kTMI;
  o.clock_ns = kRefClockNs;
  o.lib = &lib;
  o.seed = kDefaultSeed;  // fixed: the library, not the design, is under test
  o.check_level = check::Level::kFull;
  const flow::FlowResult r = flow::run_flow(o);
  Op op;
  op.label = "reference_flow";
  op.digests = {{"T-MI", report_digest(r)}};
  if (!finite_flow(r)) {
    op.fault = "non-finite result";
  } else if (!r.timing_met) {
    op.fault = "misses timing";
  } else if (!r.checks.ok()) {
    op.fault = "check errors";
  }
  pass->wl_mm = r.total_wl_um / 1000.0;
  pass->power_mw = r.total_uw / 1000.0;
  pass->freq_ghz = 1.0 / r.longest_path_ns;
  return op;
}

double flows_recorded() {
  double n = 0.0;
  for (const auto& [name, h] : util::MetricsRegistry::global().histograms()) {
    if (name.rfind("span.flow.run ", 0) == 0) n += static_cast<double>(h.count);
  }
  return n;
}

Pass run_pass(const Context& ctx, int index,
              const std::function<void(const flow::StageReport&)>& observer) {
  flow::FlowOptions o = base_options(ctx, pass_seed(ctx.seed, index));
  o.stage_observer = observer;
  const double flows0 = flows_recorded();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  Pass pass;
  switch (ctx.w->kind) {
    case Kind::kIso: pass = run_iso_pass(ctx, o); break;
    case Kind::kSweep: pass = run_sweep_pass(ctx, o, index); break;
    case Kind::kChar: pass = run_char_pass(); break;
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.flows = flows_recorded() - flows0;
  return pass;
}

/// Work units a pass's time is normalised by: flows for the flow workloads
/// (run_iso_comparison reruns a side that misses timing), cells for
/// char_lib.
double units_of(const Context& ctx, const Pass& p) {
  return ctx.w->kind == Kind::kChar ? static_cast<double>(p.ops.size())
                                    : p.flows;
}

/// What a fresh process pays before its first measured call: the flow
/// libraries, the exec pool's threads and, for des_sweep, the store root.
void set_up_once(Context* ctx) {
  if (ctx->w->kind != Kind::kChar) {
    ctx->lib2d = test::make_test_library(tech::Style::k2D);
    ctx->lib3d = test::make_test_library(tech::Style::kTMI);
  }
  if (ctx->w->kind == Kind::kSweep) {
    std::filesystem::remove_all(ctx->scratch);
    std::filesystem::create_directories(ctx->scratch);
  }
  exec::ThreadPool pool(exec::ExecOptions{ctx->threads, "setup"});
  (void)pool.num_workers();
}

// --------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------------------
// Traced run: per-layer metrics

/// Counts the stage reports the flows deliver (executed or restored from
/// the store) and the flows themselves.
struct StageTally {
  std::atomic<long> reports{0};
  std::atomic<long> flows{0};
  void observe(const flow::StageReport& s) {
    reports.fetch_add(1, std::memory_order_relaxed);
    if (s.name == "gen") flows.fetch_add(1, std::memory_order_relaxed);
  }
};

const char* const kStages[] = {"gen",   "synth",         "place",     "opt_preroute",
                               "route", "opt_postroute", "sta_power", "check"};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Traced {
  std::vector<Metric> metrics;
  std::vector<Op> ops;  // the traced pass's
  Op replay{"replay", {}, ""};
};

/// `untraced_first_s`: median wall time of the untraced passes of the first
/// instance, the one the traced pass (`index` a multiple of kInstances) runs.
Traced traced_run(Context* ctx, double untraced_run_s, double unit_wall_s,
                  double untraced_first_s, int index) {
  Traced out;
  auto& reg = util::MetricsRegistry::global();
  reg.reset();
  StageTally tally;
  Pass pass = run_pass(*ctx, index,
                       [&](const flow::StageReport& s) { tally.observe(s); });
  const std::map<std::string, double> ctr = reg.counters();
  const std::map<std::string, util::HistStats> spans = reg.histograms();
  out.ops = pass.ops;
  auto c = [&](const char* k) {
    const auto it = ctr.find(k);
    return it == ctr.end() ? 0.0 : it->second;
  };
  auto span_s = [&](const std::string& k, double* count) {
    const auto it = spans.find("span." + k);
    if (it == spans.end()) return 0.0;
    if (count != nullptr) *count += static_cast<double>(it->second.count);
    return it->second.total / 1000.0;
  };

  std::vector<Metric>& m = out.metrics;
  m.push_back({"run_s", untraced_run_s, "s"});
  m.push_back({"unit_wall_s", unit_wall_s, "s"});
  m.push_back({"trace.overhead_s", pass.wall_s - untraced_first_s, "s"});
  m.push_back({"flow.runs", static_cast<double>(tally.flows.load()), "count"});
  double executed = 0.0;
  for (const char* st : kStages) {
    m.push_back({std::string("flow.") + st + "_s",
                 span_s(std::string("flow.") + st, &executed), "s"});
  }
  m.push_back({"flow.stages_restored",
               static_cast<double>(tally.reports.load()) - executed, "count"});

  // The probe an auto-clock iso-comparison runs before its first flow,
  // timed on its own: the measured passes use a fixed clock.
  double probe_s = 0.0;
  if (ctx->w->kind == Kind::kIso) {
    flow::FlowOptions o = base_options(*ctx, ctx->seed);
    o.lib = &ctx->lib2d;
    const auto t0 = Clock::now();
    (void)flow::auto_clock_ns(o);
    probe_s = seconds_since(t0);
  }
  m.push_back({"flow.clock_probe_s", probe_s, "s"});

  // Module split: replay the pass's final 2D and T-MI flows (flow
  // workloads) or its cells one by one (char_lib).
  SpanRecorder rec;
  double cell_max_s = 0.0;
  const auto r0 = Clock::now();
  if (ctx->w->kind == Kind::kChar) {
    const liberty::Library lib =
        replay_library(tech::Style::kTMI, pass.lib.vdd_v, &rec, &cell_max_s);
    if (liberty::to_liberty_text(lib) != liberty::to_liberty_text(pass.lib)) {
      out.replay.fault = "replayed library differs from build_library_45nm";
    }
  } else {
    for (const ReplayTarget& t : pass.replay) {
      const FlowFigures got = replay_flow(t.opt, &rec);
      if (!(got == t.expect)) {
        out.replay.fault = std::string("replay of the ") +
                    tech::to_string(t.opt.style) +
                    " flow differs from run_flow";
      }
    }
  }
  const double replay_s = seconds_since(r0);
  double self_sum = 0.0;
  for (const auto& [name, t] : rec.totals()) self_sum += t.self_s;
  if (std::fabs(self_sum - rec.root_s()) > 1e-6 * std::max(1.0, replay_s) ||
      rec.root_s() > replay_s) {
    out.replay.fault = "self times do not add up to the replay wall time";
  }
  for (const char* mod : {"gen", "synth", "place", "cts", "opt", "extract",
                          "route", "sta", "power", "check"}) {
    m.push_back({std::string(mod) + ".self_s", rec.self_s(mod), "s"});
  }
  m.push_back({"extract.calls", static_cast<double>(rec.calls("extract")), "count"});
  m.push_back({"replay.wall_s", replay_s, "s"});
  m.push_back({"replay.unattributed_s", replay_s - self_sum, "s"});

  for (const char* k : {"route.twopins", "route.maze_calls", "route.maze_batches",
                        "route.overflow_retries", "route.rrr_iters"}) {
    m.push_back({k, c(k), "count"});
  }
  m.push_back({"route.twopins_per_batch",
               ratio(c("route.maze_calls"), c("route.maze_batches")), "ratio"});
  m.push_back({"route.overflow_edges_final", c("route.overflow_edges_final"), "count"});
  for (const char* k : {"opt.rounds", "opt.upsized", "opt.downsized",
                        "opt.buffers_added", "opt.buffers_removed", "sta.runs",
                        "sta.arrivals_propagated", "place.cg_iters",
                        "place.detail_swaps_tried", "place.hpwl_delta_evals"}) {
    m.push_back({k, c(k), "count"});
  }
  m.push_back({"place.swap_accept_ratio",
               ratio(c("place.detail_swaps_accepted"), c("place.detail_swaps_tried")),
               "ratio"});
  for (const char* k : {"store.hits", "store.misses", "store.puts"}) {
    m.push_back({k, c(k), "count"});
  }
  m.push_back({"store.hit_ratio",
               ratio(c("store.hits"), c("store.hits") + c("store.misses")), "ratio"});
  m.push_back({"exec.tasks", c("exec.tasks"), "count"});
  m.push_back({"exec.steals", c("exec.steals"), "count"});
  m.push_back({"exec.cpu_util",
               ratio(pass.cpu_s, pass.wall_s * ctx->threads), "ratio"});

  m.push_back({"cells.layout_s", rec.self_s("cells.layout"), "s"});
  m.push_back({"liberty.char_s", rec.self_s("liberty.char"), "s"});
  m.push_back({"liberty.cell_max_s", cell_max_s, "s"});
  double arcs = 0.0;
  for (const auto& cell : pass.lib.cells()) arcs += static_cast<double>(cell.arcs.size());
  m.push_back({"liberty.cells", static_cast<double>(pass.lib.size()), "count"});
  m.push_back({"liberty.arcs", arcs, "count"});
  m.push_back({"spice.sim_context_misses", c("spice.sim_context_misses"), "count"});
  m.push_back({"spice.sparse_pivot_fallbacks", c("spice.sparse_pivot_fallbacks"), "count"});
  return out;
}

// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".bench_build/scratch";
  std::string revision = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--revision") {
      a->revision = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->trace >= 0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: m3d_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch dir] [--revision r]\n");
    return 2;
  }
  Context ctx;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) ctx.w = &w;
  }
  if (ctx.w == nullptr) {
    std::fprintf(stderr, "m3d_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  ctx.seed = args.seed;
  ctx.scratch = args.scratch + "/" + ctx.w->name;
  ctx.threads = ctx.w->threads > 0 ? ctx.w->threads : exec::resolve_num_threads();
  util::set_default_log_level(util::LogLevel::kWarn);

  // The calibration kernel runs before the set-up and after every measured
  // pass; setup_s and unit_cpu_s are scaled by its median (calibrate.hpp).
  std::vector<double> cal_s;
  bool cal_same = calibrate(&cal_s);

  // Set-up, repeated; the median CPU time is setup_s. It is repeated before
  // the first pass, as a fresh process does it, and again after every
  // measured pass: on a shared host the CPU speed a process gets drifts
  // over a run, and 101 set-ups at its start read 1.5 to 3 times apart
  // from run to run. The last repetition is kept.
  std::vector<double> setup;
  auto set_up = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const double cpu0 = cpu_seconds();
      set_up_once(&ctx);
      setup.push_back(cpu_seconds() - cpu0);
    }
  };
  set_up(kSetupReps);
  exec::set_default_threads(ctx.threads);

  const Workload& w = *ctx.w;
  std::printf("provenance revision=%s build_type=%s compiler=\"%s\" "
              "threads=%d\n",
              args.revision.c_str(), M3D_BUILD_TYPE, M3D_COMPILER,
              ctx.threads);
  if (w.kind == Kind::kChar) {
    std::printf("provenance workload=%s library=spice-characterized style=T-MI "
                "cells=%zu disk_cache=none reference_flow=DES/scale_shift=%d/"
                "clock=%.2fns seed=%llu (unused) held_out_seed=%llu\n",
                w.name.c_str(), expected_cells().size(), kRefScaleShift, kRefClockNs,
                static_cast<unsigned long long>(ctx.seed),
                static_cast<unsigned long long>(kHeldOutSeed));
  } else {
    std::string instance_seeds;
    for (int k = 1; k < static_cast<int>(kInstances); ++k) {
      if (k > 1) instance_seeds += ",";
      instance_seeds += std::to_string(pass_seed(ctx.seed, k));
    }
    std::printf("provenance workload=%s library=analytic bench=%s seed=%llu "
                "instance_seeds=%s held_out_seed=%llu scale_shift=%d "
                "utilization=%.2f clock=%s check=full\n",
                w.name.c_str(), gen::to_string(w.bench),
                static_cast<unsigned long long>(ctx.seed), instance_seeds.c_str(),
                static_cast<unsigned long long>(kHeldOutSeed), w.scale_shift,
                w.util,
                w.kind == Kind::kIso ? util::strf("%.2fns", w.clocks_ns[0]).c_str()
                                     : "grid");
  }

  // Measured passes. A run first covers its inputs: one pass of each
  // instance (two passes for char_lib, whose input does not vary), as long
  // as the next pass would end, at the mean pass time so far, within
  // kCoverOvershoot x --seconds. After that, another pass starts while
  // --seconds have not elapsed and it would end within kOvershoot of them.
  // A run on a slow host thus measures fewer passes, not longer.
  const size_t cover = w.kind == Kind::kChar ? 2 : kInstances;
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  double rss_mb = 0.0;  // after the first pass: later passes only add
                        // allocator fragmentation, and their count varies
  for (;;) {
    passes.push_back(run_pass(ctx, static_cast<int>(passes.size()), nullptr));
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    set_up(kSetupRepsPerPass);
    cal_same = calibrate(&cal_s) && cal_same;
    const double elapsed = seconds_since(t0);
    const double mean_pass = elapsed / static_cast<double>(passes.size());
    const bool stop =
        passes.size() < cover
            ? elapsed + mean_pass > kCoverOvershoot * args.seconds
            : elapsed >= args.seconds || elapsed + mean_pass > kOvershoot * args.seconds;
    if (stop) break;
  }

  std::vector<double> unit_cpu_s;
  std::vector<double> unit_wall_s;
  std::vector<double> run_s;
  std::vector<double> first_instance_s;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const double units = std::max(1.0, units_of(ctx, p));
    unit_cpu_s.push_back(p.cpu_s / units);
    unit_wall_s.push_back(p.wall_s / units);
    run_s.push_back(p.wall_s);
    if (i % kInstances == 0) first_instance_s.push_back(p.wall_s);
  }
  // Every later pass of an instance, traced one included, must repeat the
  // digests of that instance's first pass exactly.
  const std::vector<Op>& first = passes.front().ops;
  auto check_repeat = [](std::vector<Op>* later, const std::vector<Op>& ref) {
    for (size_t i = 0; i < later->size(); ++i) {
      Op& op = (*later)[i];
      if (op.fault.empty() &&
          (i >= ref.size() || op.digests != ref[i].digests)) {
        op.fault = "results differ from the instance's first pass";
      }
    }
  };
  std::vector<Op> ops;
  ops.push_back({"calibration", {}, cal_same ? "" : "calibration kernel result changed"});
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i >= kInstances) check_repeat(&passes[i].ops, passes[i % kInstances].ops);
    ops.insert(ops.end(), passes[i].ops.begin(), passes[i].ops.end());
  }
  if (w.kind == Kind::kChar && args.trace == 0) {
    ops.push_back(reference_flow(passes.front().lib, &passes.front()));
  }
  Traced traced;
  if (args.trace == 1) {
    // A multiple of kInstances: the first instance, on a store directory of
    // its own.
    const int index = static_cast<int>(
        (passes.size() + kInstances - 1) / kInstances * kInstances);
    traced = traced_run(&ctx, median(run_s), median(unit_wall_s),
                        median(first_instance_s), index);
    check_repeat(&traced.ops, first);
    ops.insert(ops.end(), traced.ops.begin(), traced.ops.end());
    ops.push_back(traced.replay);
  }
  std::filesystem::remove_all(args.scratch);

  long failed = 0;
  for (const Op& op : ops) {
    if (!op.fault.empty()) {
      ++failed;
      std::printf("failed %s: %s\n", op.label.c_str(), op.fault.c_str());
    }
  }
  for (const Op& op : first) {
    for (const auto& [label, h] : op.digests) {
      std::printf("digest %s %s %s\n", op.label.c_str(), label.c_str(),
                  hex64(h).c_str());
    }
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    std::printf("pass %zu wall_s=%.4f cpu_s=%.4f units=%g\n", i,
                passes[i].wall_s, passes[i].cpu_s, units_of(ctx, passes[i]));
  }

  const double scale = kReferenceS / median(cal_s);
  std::printf("calibration kernel_runs=%zu min_s=%.6f median_s=%.6f max_s=%.6f "
              "scale=%.4f\n",
              cal_s.size(), *std::min_element(cal_s.begin(), cal_s.end()),
              median(cal_s), *std::max_element(cal_s.begin(), cal_s.end()), scale);

  const Pass& q = passes.front();
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {{"setup_s", median(setup) * scale, "s"},
               {"unit_cpu_s", median(unit_cpu_s) * scale, "s"},
               {"peak_rss_mb", rss_mb, "MB"},
               {"wl_mm", q.wl_mm, "mm"},
               {"power_mw", q.power_mw, "mW"},
               {"freq_ghz", q.freq_ghz, "GHz"}};
  } else {
    metrics = std::move(traced.metrics);
    metrics.push_back({"setup_raw_s", median(setup), "s"});
    metrics.push_back({"unit_cpu_raw_s", median(unit_cpu_s), "s"});
    metrics.push_back({"calibration_s", median(cal_s), "s"});
  }
  print_result(failed == 0, static_cast<long>(ops.size()), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
