// Shared infrastructure for the experiment benches: characterized libraries
// and flow comparison results, both served from the artifact store at
// store::default_dir() so `for b in bench/*; do $b; done` does not
// recompute shared experiments, and paper-style table printing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "liberty/library.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

namespace m3d::bench {

/// The characterized library of a corner (45nm measured, 7nm ITRS-scaled)
/// from flow::characterized_libraries(), one per tech::cell_style: both
/// T-MI styles share the folded library, 2D and G-MI the planar one.
const liberty::Library& library(tech::Node node, tech::Style style);

/// A comparison as the benches see it: the scalar fields of both sides,
/// exactly as flow::artifacts::decode_compare_blob restores them (no
/// netlists, routes or stage reports).
using Cmp = flow::CompareResult;

/// Runs (or loads from the store's "compare" artifacts) an iso-performance
/// comparison. The store key is derived from the options and both
/// libraries' fingerprints (flow::artifacts::compare_key); it names inputs,
/// not code, so clear the store when flow behaviour changes. Fresh
/// (non-cached) runs also drop one JSON run report per side under
/// out_figs/run_<bench>_<style>.json. Fresh results go through the same
/// codec, so a warm run returns the same bits as the cold run that stored
/// them.
Cmp compare_cached(const flow::FlowOptions& base);

/// compare_cached for a batch of independent configurations, fanned out
/// across the exec pool ($M3D_THREADS). Results come back in job order, so
/// table printing is unchanged; run-report writes are serialized.
std::vector<Cmp> compare_cached_all(const std::vector<flow::FlowOptions>& jobs);

/// Writes the out_figs/run_<bench>_<style>.json reports for both sides of a
/// comparison (stage timings + counters; see flow/report.hpp).
void write_run_reports(const flow::CompareResult& r);

/// FlowOptions preset for one of the five paper benchmarks at a node.
flow::FlowOptions preset(gen::Bench bench, tech::Node node);

/// "-41.7%" formatting helper.
std::string pct_str(double v3, double v2);

/// Routing status of both sides: "yes" when both routed without overflow,
/// else "NO (2D)", "NO (T-MI)" or "NO (both)".
std::string routed_str(const Cmp& c);

}  // namespace m3d::bench
