#include "flow/report.hpp"

#include <cctype>
#include <fstream>

#include "util/metrics.hpp"

namespace m3d::report {

using util::json::Value;

namespace {

Value metrics_block(const flow::FlowResult& r) {
  Value m = Value::object();
  m.set("footprint_um2", Value::number(r.footprint_um2));
  m.set("cells", Value::number(r.cells));
  m.set("buffers", Value::number(r.buffers));
  m.set("utilization", Value::number(r.utilization));
  m.set("total_wl_um", Value::number(r.total_wl_um));
  m.set("wns_ps", Value::number(r.wns_ps));
  m.set("timing_met", Value::boolean(r.timing_met));
  m.set("routed", Value::boolean(r.routed));
  m.set("total_uw", Value::number(r.total_uw));
  m.set("cell_uw", Value::number(r.cell_uw));
  m.set("net_uw", Value::number(r.net_uw));
  m.set("leak_uw", Value::number(r.leak_uw));
  m.set("wire_uw", Value::number(r.wire_uw));
  m.set("pin_uw", Value::number(r.pin_uw));
  m.set("wire_cap_pf", Value::number(r.wire_cap_pf));
  m.set("pin_cap_pf", Value::number(r.pin_cap_pf));
  m.set("longest_path_ns", Value::number(r.longest_path_ns));
  return m;
}

Value stage_to_json(const flow::StageReport& s, bool canonical) {
  Value v = Value::object();
  v.set("name", Value::str(s.name));
  v.set("wall_ms", Value::number(canonical ? 0.0 : s.wall_ms));
  Value counters = Value::object();
  for (const auto& [key, value] : s.counters) {
    counters.set(key, Value::number(value));
  }
  v.set("counters", std::move(counters));
  // The memory profile exists only on traced runs (all-zero otherwise), so
  // untraced reports serialize without a "mem" key — byte-identical to a
  // build that predates the trace subsystem. Canonical form zeroes the
  // machine-dependent values but keeps the key: presence is deterministic
  // for a given FlowOptions, the numbers are not.
  if (s.rss_mb != 0.0 || s.hwm_mb != 0.0 || s.alloc_mb != 0.0 ||
      s.allocs != 0) {
    Value mem = Value::object();
    mem.set("rss_mb", Value::number(canonical ? 0.0 : s.rss_mb));
    mem.set("hwm_mb", Value::number(canonical ? 0.0 : s.hwm_mb));
    mem.set("alloc_mb", Value::number(canonical ? 0.0 : s.alloc_mb));
    mem.set("allocs",
            Value::number(canonical ? 0.0 : static_cast<double>(s.allocs)));
    v.set("mem", std::move(mem));
  }
  return v;
}

Value trace_block(const flow::FlowResult& r, bool canonical) {
  Value t = Value::object();
  Value spans = Value::array();
  for (const obs::SpanSummary& s : r.trace_spans) {
    Value sp = Value::object();
    sp.set("name", Value::str(s.name));
    sp.set("count", Value::number(static_cast<double>(s.count)));
    sp.set("total_ms", Value::number(canonical ? 0.0 : s.total_ms));
    sp.set("self_ms", Value::number(canonical ? 0.0 : s.self_ms));
    spans.push(std::move(sp));
  }
  t.set("spans", std::move(spans));
  return t;
}

Value checks_block(const flow::FlowResult& r) {
  // Cap the serialized violation list: a badly broken run can produce one
  // violation per net, and the report must stay readable.
  constexpr size_t kMaxViolations = 32;
  Value c = Value::object();
  c.set("level", Value::str(check::to_string(r.check_level)));
  c.set("errors", Value::number(r.checks.errors()));
  c.set("warnings", Value::number(r.checks.warnings()));
  Value items = Value::array();
  size_t n = 0;
  for (const check::Violation& v : r.checks.violations) {
    if (n++ == kMaxViolations) break;
    Value item = Value::object();
    item.set("checker", Value::str(v.checker));
    item.set("code", Value::str(v.code));
    item.set("severity", Value::str(
        v.severity == check::Severity::kError ? "error" : "warning"));
    item.set("message", Value::str(v.message));
    items.push(std::move(item));
  }
  c.set("violations", std::move(items));
  if (r.checks.violations.size() > kMaxViolations) {
    c.set("truncated",
          Value::number(static_cast<double>(r.checks.violations.size())));
  }
  return c;
}

Value build_json(const flow::FlowResult& r, bool canonical) {
  Value doc = Value::object();
  // Untraced runs keep serializing the v2 document byte-for-byte (golden
  // snapshots and determinism tests compare against it); a traced run is a
  // v3 document: v2 plus the per-stage "mem" objects and the "trace" block.
  doc.set("schema", Value::str(r.trace_enabled ? "m3d.run_report/v3"
                                               : "m3d.run_report/v2"));
  doc.set("bench", Value::str(r.bench_name));
  doc.set("style", Value::str(tech::to_string(r.style)));
  doc.set("clock_ns", Value::number(r.clock_ns));
  // Decimal string: the seed is a full uint64 and must survive the double-
  // typed JSON number path losslessly (reproducibility from the CI log).
  doc.set("seed", Value::str(std::to_string(r.seed)));
  doc.set("metrics", metrics_block(r));
  doc.set("checks", checks_block(r));
  Value stages = Value::array();
  double total_ms = 0.0;
  for (const auto& s : r.stages) {
    stages.push(stage_to_json(s, canonical));
    total_ms += s.wall_ms;
  }
  doc.set("stages", std::move(stages));
  doc.set("total_wall_ms", Value::number(canonical ? 0.0 : total_ms));
  if (r.trace_enabled) doc.set("trace", trace_block(r, canonical));
  return doc;
}

}  // namespace

Value to_json(const flow::FlowResult& r) { return build_json(r, false); }

std::string to_json_string(const flow::FlowResult& r) {
  return to_json(r).dump() + "\n";
}

Value to_canonical_json(const flow::FlowResult& r) {
  return build_json(r, true);
}

std::string to_canonical_json_string(const flow::FlowResult& r) {
  return to_canonical_json(r).dump() + "\n";
}

bool write_json(const flow::FlowResult& r, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json_string(r);
  return static_cast<bool>(os);
}

bool parse_stages(const std::string& json_text,
                  std::vector<flow::StageReport>* out, std::string* err) {
  Value doc;
  if (!util::json::parse(json_text, &doc, err)) return false;
  const Value* stages = doc.find("stages");
  // Accept both a full report document and a bare stage array.
  if (stages == nullptr && doc.is_array()) stages = &doc;
  if (stages == nullptr || !stages->is_array()) {
    if (err != nullptr) *err = "no 'stages' array";
    return false;
  }
  out->clear();
  for (const Value& item : stages->items()) {
    if (!item.is_object()) {
      if (err != nullptr) *err = "stage entry is not an object";
      return false;
    }
    flow::StageReport sr;
    sr.name = item.string_or("name", "");
    sr.wall_ms = item.number_or("wall_ms", 0.0);
    if (const Value* counters = item.find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [key, value] : counters->members()) {
        sr.counters.emplace_back(key, value.as_number());
      }
    }
    if (const Value* mem = item.find("mem");
        mem != nullptr && mem->is_object()) {
      sr.rss_mb = mem->number_or("rss_mb", 0.0);
      sr.hwm_mb = mem->number_or("hwm_mb", 0.0);
      sr.alloc_mb = mem->number_or("alloc_mb", 0.0);
      sr.allocs = static_cast<int64_t>(mem->number_or("allocs", 0.0));
    }
    out->push_back(std::move(sr));
  }
  return true;
}

Value metrics_to_json() {
  auto& reg = util::MetricsRegistry::global();
  Value doc = Value::object();
  doc.set("schema", Value::str("m3d.metrics/v2"));
  Value counters = Value::object();
  for (const auto& [name, value] : reg.counters()) {
    counters.set(name, Value::number(value));
  }
  doc.set("counters", std::move(counters));
  Value gauges = Value::object();
  for (const auto& [name, value] : reg.gauges()) {
    gauges.set(name, Value::number(value));
  }
  doc.set("gauges", std::move(gauges));
  Value hists = Value::object();
  for (const auto& [name, h] : reg.histograms()) {
    Value stats = Value::object();
    stats.set("count", Value::number(static_cast<double>(h.count)));
    stats.set("min", Value::number(h.min));
    stats.set("mean", Value::number(h.total / static_cast<double>(h.count)));
    stats.set("max", Value::number(h.max));
    stats.set("total", Value::number(h.total));
    hists.set(name, std::move(stats));
  }
  doc.set("histograms", std::move(hists));
  return doc;
}

bool write_metrics_json(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << metrics_to_json().dump() << '\n';
  return static_cast<bool>(os);
}

std::string report_filename(const std::string& bench,
                            const std::string& style) {
  auto sanitize = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '.' || c == '_' || c == '-';
      out.push_back(ok ? c : '_');
    }
    return out;
  };
  return "run_" + sanitize(bench) + "_" + sanitize(style) + ".json";
}

}  // namespace m3d::report
