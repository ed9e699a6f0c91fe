// Module-level attribution for the benchmark's traced run. The benchmark
// records its own spans around calls into each module's public functions;
// nothing inside the library is instrumented for it.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "liberty/library.hpp"

namespace perfbench {

namespace flow = m3d::flow;
namespace liberty = m3d::liberty;
namespace tech = m3d::tech;

/// Single-threaded nesting span recorder. time() runs `fn` as a span; a span
/// opened inside another is its child, and the parent's self time excludes
/// it. Every second of a closed root span lands in exactly one self time.
class SpanRecorder {
 public:
  struct Totals {
    double self_s = 0.0;
    long calls = 0;
  };

  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    stack_.push_back({name, Clock::now(), 0.0});
    struct Close {
      SpanRecorder* rec;
      ~Close() { rec->close(); }
    } close{this};
    return fn();
  }

  const std::map<std::string, Totals>& totals() const { return totals_; }
  double self_s(const std::string& name) const;
  long calls(const std::string& name) const;
  /// Sum of the durations of all closed root spans.
  double root_s() const { return root_s_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Open {
    std::string name;
    Clock::time_point start;
    double child_s;
  };
  void close();

  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
  double root_s_ = 0.0;
};

/// The sign-off figures a replay must reproduce bit for bit.
struct FlowFigures {
  int cells = 0;
  double wl_um = 0.0;
  double wns_ps = 0.0;
  double total_uw = 0.0;
  int check_errors = 0;

  bool operator==(const FlowFigures&) const = default;
};

FlowFigures figures_of(const flow::FlowResult& r);

/// Re-runs one flow module by module in run_flow's order (gen, synth,
/// place, cts, pre-route opt, route, post-route opt, sign-off extraction,
/// STA, power, checks) with spans "gen", "synth", "place", "cts", "opt",
/// "extract" (also every extraction opt requests, as a child of "opt"),
/// "route", "sta", "power" and "check". `opt.clock_ns` must be fixed and
/// the store unused, so the replay computes exactly what run_flow did.
FlowFigures replay_flow(const flow::FlowOptions& opt, SpanRecorder* spans);

/// Per-cell attribution of a 45 nm library build: spans "cells.layout"
/// (spec plus 2D layout or T-MI fold) and "liberty.char" (characterize_cell),
/// one cell after another. Returns the rebuilt library; `cell_max_s` gets
/// the slowest single characterization.
liberty::Library replay_library(tech::Style style, double vdd_v,
                                SpanRecorder* spans, double* cell_max_s);

}  // namespace perfbench
