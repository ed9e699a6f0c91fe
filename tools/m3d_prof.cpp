// m3d_prof: one-shot flow profiler. Runs the full flow for one benchmark
// (both styles by default) with structured trace collection on, then emits:
//
//   * trace_<bench>_<style>.json — Chrome trace-event JSON per style, read
//     back and checked with obs::validate_chrome_trace (an invalid trace
//     fails the run); open in https://ui.perfetto.dev or chrome://tracing.
//     One pid per flow, one named tid per thread (main +
//     "<pool>/worker<i>"), with exec pool enqueue/steal instants,
//     per-worker idle windows, and per-stage memory counter tracks
//     (mem.rss_mb / mem.hwm_mb / mem.stage_alloc_mb).
//   * a top-N self-time table per style (from the deterministic span
//     summary that also lands in the v3 run report), and
//   * a per-stage memory profile (stage-exit RSS, peak RSS, counting-
//     allocator traffic) plus the collector's own health stats, so a
//     truncated capture is visible right in the terminal.
//
// The profiler uses the analytic library (liberty/analytic.hpp) of each
// style's cells (tech::cell_style) — the same one the tier-1 goldens run
// against — so it starts instantly and profiles exactly the code paths CI
// locks down. Scale and utilization come from flow::preset; the clock
// defaults to the auto clock.
//
// Usage:
//   m3d_prof [--bench FPU] [--style 2D|T-MI|T-MI+M|G-MI|both] [--clock ns]
//            [--seed n] [--scale n] [--check none|basic|full]
//            [--out-dir .] [--top 15] [--baseline BENCH_flow.json]
//
// --baseline FILE makes the run the flow perf-regression gate. Instead of
// the flow the other options select, it runs fixed cases at the FlowOptions
// defaults: FPU at scale_shift 3 and 4.0 ns and DES at scale_shift 4 and
// 2.0 ns (the tier-1 golden configurations), each in 2D and T-MI, plus one
// combinational and one sequential cell characterization per style (the
// "CHAR" pseudo-bench, stages char_comb and char_dff; the flow cases never
// characterize). Every stage is sampled kGateSamples times, in rounds over
// all cases, and keeps its minimum: a real slowdown shows in every sample,
// scheduler noise rarely in all of them. The gate writes one trace per flow
// case (its last round) and <out-dir>/BENCH_flow.json (schema
// m3d.bench_flow/v1), then fails when a stage's minimum exceeds
// kGateMaxRatio x max(baseline, kGateFloorMs). The floor keeps jitter on a
// 2 ms stage from failing the gate, while a stage that blows past the
// floored limit is caught however small its baseline.
//
// --out-dir is created when missing. Exit status: 0 on success, 1 when a
// trace or BENCH_flow.json cannot be written, a trace fails validation or
// the gate finds a regression, 2 on a usage error or an unreadable
// baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "flow/flow.hpp"
#include "liberty/analytic.hpp"
#include "liberty/characterize.hpp"
#include "obs/export.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "tech/tech.hpp"
#include "util/json.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

namespace {

using m3d::util::strf;
using m3d::util::json::Value;

m3d::gen::Bench parse_bench(const std::string& s) {
  for (m3d::gen::Bench b : m3d::gen::all_benches()) {
    if (s == m3d::gen::to_string(b)) return b;
  }
  std::fprintf(stderr, "m3d_prof: unknown bench '%s' (try FPU, AES, LDPC, "
               "DES, M256)\n", s.c_str());
  std::exit(2);
}

int parse_styles(const std::string& s, std::vector<m3d::tech::Style>* out) {
  if (s == "both") {
    *out = {m3d::tech::Style::k2D, m3d::tech::Style::kTMI};
    return 0;
  }
  for (m3d::tech::Style st : {m3d::tech::Style::k2D, m3d::tech::Style::kTMI,
                              m3d::tech::Style::kTMIPlusM,
                              m3d::tech::Style::kGMI}) {
    if (s == m3d::tech::to_string(st)) {
      *out = {st};
      return 0;
    }
  }
  std::fprintf(stderr, "m3d_prof: unknown style '%s' (2D, T-MI, T-MI+M, "
               "G-MI, both)\n", s.c_str());
  return 2;
}

m3d::check::Level parse_check(const std::string& s) {
  if (s == "none") return m3d::check::Level::kNone;
  if (s == "basic") return m3d::check::Level::kBasic;
  if (s == "full") return m3d::check::Level::kFull;
  std::fprintf(stderr, "m3d_prof: unknown check level '%s'\n", s.c_str());
  std::exit(2);
}

void print_top_spans(const std::vector<m3d::obs::SpanSummary>& spans,
                     const char* style, int top_n) {
  std::vector<m3d::obs::SpanSummary> by_self = spans;
  std::sort(by_self.begin(), by_self.end(),
            [](const auto& a, const auto& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;  // deterministic tie-break
            });
  double total_self = 0.0;
  for (const auto& s : by_self) total_self += s.self_ms;

  m3d::util::Table t(strf("top %d spans by self time — %s", top_n, style));
  t.set_header({"span", "count", "total ms", "self ms", "self %"});
  int shown = 0;
  for (const auto& s : by_self) {
    if (shown++ == top_n) break;
    t.add_row({s.name, strf("%lld", static_cast<long long>(s.count)),
               strf("%.2f", s.total_ms), strf("%.2f", s.self_ms),
               strf("%.1f%%", total_self > 0.0
                                  ? 100.0 * s.self_ms / total_self
                                  : 0.0)});
  }
  t.print();
}

bool read_json(const std::string& path, Value* doc, std::string* err) {
  std::ifstream is(path);
  if (!is) {
    *err = "cannot read it";
    return false;
  }
  std::ostringstream text;
  text << is.rdbuf();
  return m3d::util::json::parse(text.str(), doc, err);
}

/// Writes `snap` as a Chrome trace to `path` and reads it back through the
/// validator; false (after saying why) when either step fails.
bool write_valid_trace(const m3d::obs::Snapshot& snap,
                       const std::string& path) {
  if (!m3d::obs::write_chrome_trace(snap, path)) {
    std::fprintf(stderr, "m3d_prof: cannot write %s\n", path.c_str());
    return false;
  }
  Value doc;
  std::string err;
  if (!read_json(path, &doc, &err) ||
      !m3d::obs::validate_chrome_trace(doc, &err)) {
    std::fprintf(stderr, "m3d_prof: invalid trace %s: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

void print_memory(const m3d::flow::FlowResult& r) {
  m3d::util::Table t("per-stage memory profile");
  t.set_header({"stage", "rss MB", "peak MB", "alloc MB", "allocs"});
  for (const auto& s : r.stages) {
    t.add_row({s.name, strf("%.1f", s.rss_mb), strf("%.1f", s.hwm_mb),
               strf("%.2f", s.alloc_mb),
               strf("%lld", static_cast<long long>(s.allocs))});
  }
  t.print();
}

// --- --baseline: the flow perf-regression gate ------------------------------

struct GateCase {
  m3d::gen::Bench bench;
  int scale_shift;
  double clock_ns;
};

const GateCase kGateCases[] = {
    {m3d::gen::Bench::kFpu, 3, 4.0},
    {m3d::gen::Bench::kDes, 4, 2.0},
};
constexpr int kGateSamples = 3;
constexpr double kGateMaxRatio = 2.5;
constexpr double kGateFloorMs = 25.0;

/// One BENCH_flow.json entry: per-stage minimum wall times of a flow case,
/// or (flow == nullptr) of the CHAR pseudo-bench.
struct GateEntry {
  const GateCase* flow;
  m3d::tech::Style style;
  std::string bench;
  std::vector<std::pair<std::string, double>> stages;  // name, min ms

  void record(size_t i, const std::string& name, double ms) {
    if (i == stages.size()) {
      stages.emplace_back(name, ms);
    } else {
      stages[i].second = std::min(stages[i].second, ms);
    }
  }

  double total_ms() const {
    double total = 0.0;
    for (const auto& [name, ms] : stages) total += ms;
    return total;
  }

  Value to_json() const {
    Value e = Value::object();
    e.set("bench", Value::str(bench));
    e.set("style", Value::str(m3d::tech::to_string(style)));
    if (flow != nullptr) {
      e.set("scale_shift", Value::number(flow->scale_shift));
      e.set("clock_ns", Value::number(flow->clock_ns));
    }
    e.set("total_wall_ms", Value::number(total_ms()));
    Value sv = Value::array();
    for (const auto& [name, ms] : stages) {
      Value st = Value::object();
      st.set("name", Value::str(name));
      st.set("wall_ms", Value::number(ms));
      sv.push(std::move(st));
    }
    e.set("stages", std::move(sv));
    return e;
  }
};

/// Wall ms of one cell characterization, the NLDM sweep that dominates a
/// cold flow (layout generation is not timed).
double char_ms(m3d::cells::Func func, m3d::tech::Style style) {
  const m3d::tech::Tech tch(m3d::tech::Node::k45nm, style);
  const m3d::cells::CellSpec spec = m3d::cells::make_spec(func, 1);
  const m3d::cells::CellLayout layout =
      style == m3d::tech::Style::k2D ? m3d::cells::layout_2d(spec, tch)
                                     : m3d::cells::fold_tmi(spec, tch);
  const auto t0 = std::chrono::steady_clock::now();
  const m3d::liberty::LibCell cell =
      m3d::liberty::characterize_cell(spec, layout, 1.1);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (cell.name.empty()) std::fprintf(stderr, "m3d_prof: empty cell\n");
  return ms;
}

/// "bench|style|stage" -> wall_ms of a BENCH_flow.json document.
std::map<std::string, double> flatten(const Value& doc) {
  std::map<std::string, double> out;
  const Value* benches = doc.find("benches");
  if (benches == nullptr) return out;
  for (const Value& b : benches->items()) {
    const std::string key =
        b.string_or("bench", "?") + "|" + b.string_or("style", "?") + "|";
    const Value* stages = b.find("stages");
    if (stages == nullptr) continue;
    for (const Value& st : stages->items()) {
      out[key + st.string_or("name", "?")] = st.number_or("wall_ms", 0.0);
    }
  }
  return out;
}

int run_gate(const std::string& baseline_path, const std::string& out_dir,
             const m3d::liberty::Library& lib2d,
             const m3d::liberty::Library& lib3d) {
  // Read the baseline first, so a bad path fails before any timing.
  Value base;
  std::string err;
  if (!read_json(baseline_path, &base, &err)) {
    std::fprintf(stderr, "m3d_prof: baseline %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return 2;
  }

  std::vector<GateEntry> entries;
  for (const GateCase& c : kGateCases) {
    for (m3d::tech::Style style :
         {m3d::tech::Style::k2D, m3d::tech::Style::kTMI}) {
      entries.push_back({&c, style, {}, {}});
    }
  }
  for (m3d::tech::Style style :
       {m3d::tech::Style::k2D, m3d::tech::Style::kTMI}) {
    entries.push_back({nullptr, style, "CHAR", {}});
  }

  // Rounds over all cases, so a burst of host noise lands in one sample of
  // several cases rather than in every sample of one.
  int failures = 0;
  for (int round = 0; round < kGateSamples; ++round) {
    for (GateEntry& e : entries) {
      if (e.flow == nullptr) {
        e.record(0, "char_comb", char_ms(m3d::cells::Func::kNand2, e.style));
        e.record(1, "char_dff", char_ms(m3d::cells::Func::kDff, e.style));
        continue;
      }
      m3d::flow::FlowOptions o;
      o.bench = e.flow->bench;
      o.scale_shift = e.flow->scale_shift;
      o.clock_ns = e.flow->clock_ns;
      o.style = e.style;
      o.lib = m3d::tech::cell_style(e.style) == m3d::tech::Style::k2D
                  ? &lib2d
                  : &lib3d;
      o.trace = true;
      m3d::obs::reset();  // one clean capture window per flow
      const m3d::flow::FlowResult r = m3d::flow::run_flow(o);
      e.bench = r.bench_name;
      for (size_t i = 0; i < r.stages.size(); ++i) {
        e.record(i, r.stages[i].name, r.stages[i].wall_ms);
      }
      if (round + 1 == kGateSamples &&
          !write_valid_trace(
              m3d::obs::snapshot(),
              out_dir + "/" +
                  m3d::obs::trace_filename(
                      r.bench_name, m3d::tech::to_string(e.style)))) {
        ++failures;
      }
    }
  }

  Value doc = Value::object();
  doc.set("schema", Value::str("m3d.bench_flow/v1"));
  Value benches = Value::array();
  for (const GateEntry& e : entries) {
    std::fprintf(stderr, "m3d_prof: %s %s total %.1f ms (stage minima of %d)\n",
                 e.bench.c_str(), m3d::tech::to_string(e.style), e.total_ms(),
                 kGateSamples);
    benches.push(e.to_json());
  }
  doc.set("benches", std::move(benches));
  const std::string out_path = out_dir + "/BENCH_flow.json";
  std::ofstream os(out_path);
  os << doc.dump() << '\n';
  os.close();
  if (!os) {
    std::fprintf(stderr, "m3d_prof: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "m3d_prof: wrote %s\n", out_path.c_str());

  const std::map<std::string, double> base_ms = flatten(base);
  int regressions = 0;
  for (const auto& [key, ms] : flatten(doc)) {
    const auto it = base_ms.find(key);
    if (it == base_ms.end()) continue;
    const double limit = kGateMaxRatio * std::max(it->second, kGateFloorMs);
    if (ms > limit) {
      std::fprintf(stderr,
                   "m3d_prof: REGRESSION %s: %.1f ms vs baseline %.1f ms "
                   "(limit %.1f ms)\n",
                   key.c_str(), ms, it->second, limit);
      ++regressions;
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr, "m3d_prof: %d stage regression(s)\n", regressions);
    return 1;
  }
  std::fprintf(stderr, "m3d_prof: no stage regressions vs %s\n",
               baseline_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  m3d::gen::Bench bench = m3d::gen::Bench::kFpu;
  std::vector<m3d::tech::Style> styles = {m3d::tech::Style::k2D,
                                          m3d::tech::Style::kTMI};
  double clock_ns = 0.0;  // 0: auto
  uint64_t seed = 20130529;
  int scale_shift = -1;  // -1: per-bench default
  m3d::check::Level check = m3d::check::Level::kBasic;
  std::string out_dir = ".";
  int top_n = 15;
  std::string baseline;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "m3d_prof: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--bench") {
      bench = parse_bench(next());
    } else if (arg == "--style") {
      if (parse_styles(next(), &styles) != 0) return 2;
    } else if (arg == "--clock") {
      clock_ns = std::atof(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scale") {
      scale_shift = std::atoi(next());
    } else if (arg == "--check") {
      check = parse_check(next());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--top") {
      top_n = std::atoi(next());
    } else if (arg == "--baseline") {
      baseline = next();
    } else {
      std::fprintf(stderr,
                   "m3d_prof: unknown arg %s\n"
                   "usage: m3d_prof [--bench FPU] [--style 2D|T-MI|T-MI+M|"
                   "G-MI|both] [--clock ns] [--seed n] [--scale n] "
                   "[--check none|basic|full] [--out-dir d] [--top n] "
                   "[--baseline f]\n",
                   arg.c_str());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "m3d_prof: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  m3d::obs::set_thread_name("main");
  const m3d::liberty::Library lib2d =
      m3d::liberty::analytic_library(m3d::tech::Style::k2D);
  const m3d::liberty::Library lib3d =
      m3d::liberty::analytic_library(m3d::tech::Style::kTMI);
  if (!baseline.empty()) return run_gate(baseline, out_dir, lib2d, lib3d);

  m3d::flow::FlowOptions base =
      m3d::flow::preset(bench, m3d::tech::Node::k45nm);
  if (scale_shift >= 0) base.scale_shift = scale_shift;
  base.seed = seed;
  base.check_level = check;
  base.lib = &lib2d;
  // Probe the auto clock once, before any capture window, so every style
  // runs at the same clock and no trace contains the probe.
  base.clock_ns = clock_ns > 0.0 ? clock_ns : m3d::flow::auto_clock_ns(base);

  int failures = 0;
  for (m3d::tech::Style style : styles) {
    m3d::obs::reset();  // one clean capture window per style

    m3d::flow::FlowOptions o = base;
    o.style = style;
    o.lib = m3d::tech::cell_style(style) == m3d::tech::Style::k2D ? &lib2d
                                                                  : &lib3d;
    o.trace = true;
    const m3d::flow::FlowResult r = m3d::flow::run_flow(o);

    const m3d::obs::Snapshot snap = m3d::obs::snapshot();
    const std::string trace_path =
        out_dir + "/" +
        m3d::obs::trace_filename(r.bench_name, m3d::tech::to_string(style));
    if (!write_valid_trace(snap, trace_path)) {
      ++failures;
      continue;
    }

    std::printf("\n== %s %s: clk %.3f ns, seed %llu ==\n",
                r.bench_name.c_str(), m3d::tech::to_string(style), r.clock_ns,
                static_cast<unsigned long long>(r.seed));
    print_top_spans(r.trace_spans, m3d::tech::to_string(style), top_n);
    print_memory(r);
    std::printf(
        "collector: %llu events recorded, %llu dropped, high water %llu "
        "of %zu per thread%s\n",
        static_cast<unsigned long long>(snap.events_recorded),
        static_cast<unsigned long long>(snap.events_dropped),
        static_cast<unsigned long long>(snap.buffer_high_water),
        m3d::obs::buffer_capacity(),
        snap.events_dropped > 0
            ? " — TRACE TRUNCATED, raise M3D_TRACE_BUF"
            : "");
    std::printf("trace: %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
