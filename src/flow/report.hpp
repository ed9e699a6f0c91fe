// Machine-readable run reports (schema "m3d.run_report/v2"): one JSON
// document per flow run with the identification (including the RNG seed,
// as a decimal string, so any run replays from its log), the Table 13/14
// metric block, the invariant-check record (level + violations, see
// src/check), and the per-stage wall-clock timings + counters collected by
// the instrumentation layer (obs::Span in obs/trace.hpp, the registry in
// util/metrics.hpp). The benches drop one per run under
// out_figs/run_<bench>_<style>.json so later perf PRs can diff where the
// time goes; tests/golden snapshots the canonical form for regression.
//
// A run traced via FlowOptions::trace / M3D_TRACE serializes as schema
// "m3d.run_report/v3": the v2 document plus a per-stage "mem" object
// (stage-exit RSS, peak RSS, counting-allocator traffic) and a top-level
// "trace" block with the deterministic span-tree summary (per span name:
// count, total ms, self ms; sorted by name). Untraced runs keep producing
// v2 byte-for-byte, so goldens never see the new fields.
#pragma once

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "util/json.hpp"

namespace m3d::report {

/// Full run report document for one flow result.
util::json::Value to_json(const flow::FlowResult& r);

/// to_json, pretty-printed.
std::string to_json_string(const flow::FlowResult& r);

/// Like to_json, but with every volatile field (wall_ms, total_wall_ms)
/// zeroed, so two runs that computed identical results serialize to
/// byte-identical documents regardless of machine speed or thread count.
/// The determinism tests compare serial vs parallel runs through this.
util::json::Value to_canonical_json(const flow::FlowResult& r);
std::string to_canonical_json_string(const flow::FlowResult& r);

/// Writes the run report; returns false when the file cannot be opened.
bool write_json(const flow::FlowResult& r, const std::string& path);

/// Parses a serialized run report back into stage reports (inverse of the
/// "stages" block of to_json). Used by tests and external tooling; returns
/// false on malformed input.
bool parse_stages(const std::string& json_text,
                  std::vector<flow::StageReport>* out,
                  std::string* err = nullptr);

/// Snapshot of the whole global metrics registry (counters, gauges,
/// histogram stats) as JSON — the report for interactive sessions
/// (m3d_shell) that run stages manually rather than through run_flow.
util::json::Value metrics_to_json();
bool write_metrics_json(const std::string& path);

/// "AES" + "T-MI" -> "run_AES_T-MI.json" (characters outside [A-Za-z0-9._-]
/// become '_').
std::string report_filename(const std::string& bench, const std::string& style);

}  // namespace m3d::report
