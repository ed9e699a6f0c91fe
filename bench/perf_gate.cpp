// Flow-level perf regression gate. Runs the two smallest paper benchmarks
// (FPU, DES — the tier-1 golden configurations) through the full flow in
// both styles, records per-stage wall times to a BENCH_flow.json trajectory
// file, and — when given a baseline (normally the committed BENCH_flow.json
// at the repo root) — fails if any stage got more than --max-ratio slower.
// Tiny stages are floored at --min-ms before the ratio check so scheduler
// jitter on a 2 ms stage can't fail CI; only genuine hot-path regressions
// (the placer/router kernels this file exists to guard) trip the gate.
//
// With --trace-dir the gate additionally runs each case with trace
// collection on (FlowOptions::trace) and drops one Chrome trace JSON per
// case into the directory — CI uploads them as artifacts, so every perf
// run leaves an inspectable timeline behind. Tracing never affects the
// recorded wall times' comparison semantics: the gate measures the same
// flow either way, and the trace buffers are reset between cases.
//
// Usage:
//   perf_gate [--out BENCH_flow.json] [--baseline path] [--max-ratio 2.5]
//             [--min-ms 25] [--trace-dir dir]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "flow/flow.hpp"
#include "liberty/analytic.hpp"
#include "liberty/characterize.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "tech/tech.hpp"
#include "util/json.hpp"
#include "util/strf.hpp"

namespace {

using m3d::util::json::Value;

struct GateCase {
  m3d::gen::Bench bench;
  int scale_shift;
  double clock_ns;
};

// The two smallest benchmarks, at the tier-1 golden configurations so the
// gate exercises exactly the code paths the golden suite locks down.
const GateCase kCases[] = {
    {m3d::gen::Bench::kFpu, 3, 4.0},
    {m3d::gen::Bench::kDes, 4, 2.0},
};

const m3d::liberty::Library& lib_for(m3d::tech::Style style) {
  static const m3d::liberty::Library flat =
      m3d::liberty::analytic_library(m3d::tech::Style::k2D);
  static const m3d::liberty::Library tmi =
      m3d::liberty::analytic_library(m3d::tech::Style::kTMI);
  return style == m3d::tech::Style::k2D ? flat : tmi;
}

Value run_one(const GateCase& c, m3d::tech::Style style,
              const std::string& trace_dir) {
  m3d::flow::FlowOptions o;
  o.bench = c.bench;
  o.scale_shift = c.scale_shift;
  o.clock_ns = c.clock_ns;
  o.style = style;
  o.lib = &lib_for(style);
  if (!trace_dir.empty()) {
    m3d::obs::reset();  // one clean capture window per case
    o.trace = true;
  }
  const m3d::flow::FlowResult r = m3d::flow::run_flow(o);
  if (!trace_dir.empty()) {
    const std::string path =
        trace_dir + "/" +
        m3d::obs::trace_filename(r.bench_name, m3d::tech::to_string(style));
    if (m3d::obs::write_chrome_trace(m3d::obs::snapshot(), path)) {
      std::fprintf(stderr, "perf_gate: wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perf_gate: cannot write %s\n", path.c_str());
    }
  }

  Value e = Value::object();
  e.set("bench", Value::str(r.bench_name));
  e.set("style", Value::str(m3d::tech::to_string(r.style)));
  e.set("scale_shift", Value::number(c.scale_shift));
  e.set("clock_ns", Value::number(c.clock_ns));
  double total = 0.0;
  Value stages = Value::array();
  for (const auto& s : r.stages) {
    Value sv = Value::object();
    sv.set("name", Value::str(s.name));
    sv.set("wall_ms", Value::number(s.wall_ms));
    stages.push(std::move(sv));
    total += s.wall_ms;
  }
  e.set("total_wall_ms", Value::number(total));
  e.set("stages", std::move(stages));
  return e;
}

/// Characterization gate case: the flow cases above run against prebuilt
/// test libraries, so the NLDM sweep — the cold-flow wall-time dominator
/// that the numeric kernel layer targets — never shows up in their stage
/// list. This entry times one combinational and one sequential cell
/// characterization per style as "CHAR" pseudo-bench stages, putting the
/// sweep on the same BENCH_flow.json trajectory and under the same
/// max-ratio regression gate as the flow stages.
Value run_char_case(m3d::tech::Style style) {
  using clock = std::chrono::steady_clock;
  const m3d::tech::Tech tch(m3d::tech::Node::k45nm, style);
  Value e = Value::object();
  e.set("bench", Value::str("CHAR"));
  e.set("style", Value::str(m3d::tech::to_string(style)));
  double total = 0.0;
  Value stages = Value::array();
  const auto run_stage = [&](const char* name, m3d::cells::Func func) {
    const m3d::cells::CellSpec spec = m3d::cells::make_spec(func, 1);
    const m3d::cells::CellLayout layout =
        style == m3d::tech::Style::k2D ? m3d::cells::layout_2d(spec, tch)
                                       : m3d::cells::fold_tmi(spec, tch);
    const auto t0 = clock::now();
    const m3d::liberty::LibCell cell =
        m3d::liberty::characterize_cell(spec, layout, 1.1);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (cell.name.empty()) std::fprintf(stderr, "perf_gate: empty cell\n");
    Value sv = Value::object();
    sv.set("name", Value::str(name));
    sv.set("wall_ms", Value::number(wall_ms));
    stages.push(std::move(sv));
    total += wall_ms;
  };
  run_stage("char_comb", m3d::cells::Func::kNand2);
  run_stage("char_dff", m3d::cells::Func::kDff);
  e.set("total_wall_ms", Value::number(total));
  e.set("stages", std::move(stages));
  return e;
}

/// Flat "bench|style|stage" -> wall_ms view of a trajectory document.
std::vector<std::pair<std::string, double>> flatten(const Value& doc) {
  std::vector<std::pair<std::string, double>> out;
  const Value* benches = doc.find("benches");
  if (benches == nullptr) return out;
  for (const Value& b : benches->items()) {
    const std::string key =
        b.string_or("bench", "?") + "|" + b.string_or("style", "?");
    const Value* stages = b.find("stages");
    if (stages == nullptr) continue;
    for (const Value& s : stages->items()) {
      out.emplace_back(key + "|" + s.string_or("name", "?"),
                       s.number_or("wall_ms", 0.0));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_flow.json";
  std::string baseline_path;
  std::string trace_dir;
  double max_ratio = 2.5;
  double min_ms = 25.0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "perf_gate: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--max-ratio") {
      max_ratio = std::atof(next());
    } else if (arg == "--min-ms") {
      min_ms = std::atof(next());
    } else if (arg == "--trace-dir") {
      trace_dir = next();
    } else {
      std::fprintf(stderr,
                   "perf_gate: unknown arg %s\n"
                   "usage: perf_gate [--out f] [--baseline f] "
                   "[--max-ratio r] [--min-ms m] [--trace-dir d]\n",
                   arg.c_str());
      return 2;
    }
  }

  Value doc = Value::object();
  doc.set("schema", Value::str("m3d.bench_flow/v1"));
  Value benches = Value::array();
  for (const GateCase& c : kCases) {
    for (const m3d::tech::Style style :
         {m3d::tech::Style::k2D, m3d::tech::Style::kTMI}) {
      Value e = run_one(c, style, trace_dir);
      std::fprintf(stderr, "perf_gate: %s %s total %.1f ms\n",
                   e.string_or("bench", "?").c_str(),
                   e.string_or("style", "?").c_str(),
                   e.number_or("total_wall_ms", 0.0));
      benches.push(std::move(e));
    }
  }
  for (const m3d::tech::Style style :
       {m3d::tech::Style::k2D, m3d::tech::Style::kTMI}) {
    Value e = run_char_case(style);
    std::fprintf(stderr, "perf_gate: CHAR %s total %.1f ms\n",
                 e.string_or("style", "?").c_str(),
                 e.number_or("total_wall_ms", 0.0));
    benches.push(std::move(e));
  }
  doc.set("benches", std::move(benches));

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "perf_gate: cannot write %s\n", out_path.c_str());
    return 2;
  }
  os << doc.dump() << '\n';
  os.close();
  std::fprintf(stderr, "perf_gate: wrote %s\n", out_path.c_str());

  if (baseline_path.empty()) return 0;

  std::ifstream is(baseline_path);
  if (!is) {
    std::fprintf(stderr, "perf_gate: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  Value base;
  std::string err;
  if (!m3d::util::json::parse(buf.str(), &base, &err)) {
    std::fprintf(stderr, "perf_gate: baseline parse error: %s\n", err.c_str());
    return 2;
  }

  const auto base_flat = flatten(base);
  const auto new_flat = flatten(doc);
  int regressions = 0;
  for (const auto& [key, new_ms] : new_flat) {
    for (const auto& [bkey, base_ms] : base_flat) {
      if (bkey != key) continue;
      // Floor the baseline: a stage must exceed max_ratio x the *floored*
      // baseline, so sub-min_ms stages cannot fail on timer noise while a
      // stage that blows past min_ms * max_ratio is still caught even if
      // its baseline was tiny.
      const double limit = max_ratio * std::max(base_ms, min_ms);
      if (new_ms > limit) {
        std::fprintf(stderr,
                     "perf_gate: REGRESSION %s: %.1f ms vs baseline %.1f ms "
                     "(limit %.1f ms at ratio %.2f)\n",
                     key.c_str(), new_ms, base_ms, limit, max_ratio);
        ++regressions;
      }
      break;
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr, "perf_gate: %d stage regression(s)\n", regressions);
    return 1;
  }
  std::fprintf(stderr, "perf_gate: no stage regressions vs %s\n",
               baseline_path.c_str());
  return 0;
}
