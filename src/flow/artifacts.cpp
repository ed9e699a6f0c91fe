#include "flow/artifacts.hpp"

#include <array>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "circuit/snapshot.hpp"
#include "gen/gen.hpp"
#include "store/blob.hpp"
#include "util/strf.hpp"

namespace m3d::flow::artifacts {
namespace {

constexpr uint8_t kLibraryVersion = 1;
constexpr uint8_t kNetlistBlobVersion = 1;
constexpr uint8_t kRoutedBlobVersion = 1;
constexpr uint8_t kCompareBlobVersion = 1;

// The stages a routed artifact lets run_flow skip: gen..opt_postroute.
constexpr size_t kRoutedStages = 6;

// --- shared sub-codecs -----------------------------------------------------

constexpr uint32_t kMaxValues = 1u << 24;

void encode_vec(const std::vector<double>& v, store::BlobWriter* w) {
  w->u32(static_cast<uint32_t>(v.size()));
  for (const double x : v) w->f64(x);
}

bool decode_vec(store::BlobReader* r, std::vector<double>* out) {
  uint32_t n = 0;
  if (!r->u32(&n) || n > kMaxValues) return false;
  out->resize(n);
  for (double& v : *out) {
    if (!r->f64(&v)) return false;
  }
  return true;
}

// A per-routing-level triple.
void encode_levels(const std::array<double, route::kNumLevels>& a,
                   store::BlobWriter* w) {
  for (const double v : a) w->f64(v);
}

bool decode_levels(store::BlobReader* r,
                   std::array<double, route::kNumLevels>* a) {
  for (double& v : *a) {
    if (!r->f64(&v)) return false;
  }
  return true;
}

void encode_table(const liberty::NldmTable& t, store::BlobWriter* w) {
  encode_vec(t.slew_ps, w);
  encode_vec(t.load_ff, w);
  encode_vec(t.value, w);
}

bool decode_table(store::BlobReader* r, liberty::NldmTable* t) {
  return decode_vec(r, &t->slew_ps) && decode_vec(r, &t->load_ff) &&
         decode_vec(r, &t->value);
}

void encode_stage_report(const StageReport& sr, store::BlobWriter* w) {
  w->str(sr.name);
  w->f64(sr.wall_ms);
  w->u32(static_cast<uint32_t>(sr.counters.size()));
  for (const auto& [key, value] : sr.counters) {
    w->str(key);
    w->f64(value);
  }
  w->f64(sr.rss_mb);
  w->f64(sr.hwm_mb);
  w->f64(sr.alloc_mb);
  w->i64(sr.allocs);
}

bool decode_stage_report(store::BlobReader* r, StageReport* sr) {
  constexpr uint32_t kMaxCounters = 1u << 20;
  uint32_t n = 0;
  if (!r->str(&sr->name) || !r->f64(&sr->wall_ms) || !r->u32(&n) ||
      n > kMaxCounters) {
    return false;
  }
  sr->counters.resize(n);
  for (auto& [key, value] : sr->counters) {
    if (!r->str(&key) || !r->f64(&value)) return false;
  }
  return r->f64(&sr->rss_mb) && r->f64(&sr->hwm_mb) && r->f64(&sr->alloc_mb) &&
         r->i64(&sr->allocs);
}

void encode_stage_reports(const FlowResult& res, size_t count,
                          store::BlobWriter* w) {
  w->u32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) encode_stage_report(res.stages[i], w);
}

bool decode_stage_reports(store::BlobReader* r, size_t expect,
                          std::vector<StageReport>* out) {
  uint32_t n = 0;
  if (!r->u32(&n) || n != expect) return false;
  for (uint32_t i = 0; i < n; ++i) {
    StageReport sr;
    if (!decode_stage_report(r, &sr)) return false;
    out->push_back(std::move(sr));
  }
  return true;
}

void encode_routes(const route::RouteResult& rr, store::BlobWriter* w) {
  w->u32(static_cast<uint32_t>(rr.nets.size()));
  for (const route::NetRoute& n : rr.nets) {
    encode_levels(n.wl_um, w);
    w->i32(n.vias);
    w->u32(static_cast<uint32_t>(n.sink_path_wl.size()));
    for (const auto& path : n.sink_path_wl) encode_levels(path, w);
  }
  w->f64(rr.total_wl_um);
  encode_levels(rr.wl_by_level, w);
  w->i64(rr.total_vias);
  w->i32(rr.overflow_edges);
  w->f64(rr.max_congestion);
  w->u8(rr.routed ? 1 : 0);
  w->i32(rr.nx);
  w->i32(rr.ny);
  w->f64(rr.gcell_um);
  for (int l = 0; l < route::kNumLevels; ++l) {
    encode_vec(rr.usage_h[l], w);
    encode_vec(rr.usage_v[l], w);
  }
  encode_levels(rr.cap_h, w);
  encode_levels(rr.cap_v, w);
}

bool decode_routes(store::BlobReader* r, route::RouteResult* rr) {
  // Per-net records grow as they decode, so a forged count fails at the
  // end of the blob instead of allocating up front.
  uint32_t n_nets = 0;
  if (!r->u32(&n_nets) || n_nets > kMaxValues) return false;
  for (uint32_t i = 0; i < n_nets; ++i) {
    route::NetRoute& n = rr->nets.emplace_back();
    uint32_t n_sinks = 0;
    if (!decode_levels(r, &n.wl_um) || !r->i32(&n.vias) ||
        !r->u32(&n_sinks) || n_sinks > kMaxValues) {
      return false;
    }
    for (uint32_t k = 0; k < n_sinks; ++k) {
      if (!decode_levels(r, &n.sink_path_wl.emplace_back())) return false;
    }
  }
  int64_t vias = 0;
  uint8_t routed = 0;
  if (!r->f64(&rr->total_wl_um) || !decode_levels(r, &rr->wl_by_level) ||
      !r->i64(&vias) || !r->i32(&rr->overflow_edges) ||
      !r->f64(&rr->max_congestion) || !r->u8(&routed) || !r->i32(&rr->nx) ||
      !r->i32(&rr->ny) || !r->f64(&rr->gcell_um)) {
    return false;
  }
  rr->total_vias = static_cast<long>(vias);
  rr->routed = routed != 0;
  for (int l = 0; l < route::kNumLevels; ++l) {
    if (!decode_vec(r, &rr->usage_h[l]) || !decode_vec(r, &rr->usage_v[l])) {
      return false;
    }
  }
  return decode_levels(r, &rr->cap_h) && decode_levels(r, &rr->cap_v);
}

void encode_parasitics(const extract::Parasitics& par, store::BlobWriter* w) {
  w->u32(static_cast<uint32_t>(par.size()));
  for (const extract::NetParasitics& p : par) {
    w->f64(p.wire_cap_ff);
    w->f64(p.wire_res_kohm);
    encode_vec(p.sink_res_kohm, w);
    w->f64(p.wirelength_um);
  }
}

bool decode_parasitics(store::BlobReader* r, extract::Parasitics* par) {
  uint32_t n = 0;
  if (!r->u32(&n) || n > kMaxValues) return false;
  for (uint32_t i = 0; i < n; ++i) {
    extract::NetParasitics& p = par->emplace_back();
    if (!r->f64(&p.wire_cap_ff) || !r->f64(&p.wire_res_kohm) ||
        !decode_vec(r, &p.sink_res_kohm) || !r->f64(&p.wirelength_um)) {
      return false;
    }
  }
  return true;
}

void encode_timing(const sta::TimingResult& t, store::BlobWriter* w) {
  for (const auto* v : {&t.arrival_ps, &t.slew_ps, &t.required_ps,
                        &t.inst_slack_ps, &t.load_ff}) {
    encode_vec(*v, w);
  }
  w->f64(t.wns_ps);
  w->f64(t.tns_ps);
  w->f64(t.critical_path_ps);
  w->i32(t.critical_endpoint);
}

bool decode_timing(store::BlobReader* r, sta::TimingResult* t) {
  for (auto* v : {&t->arrival_ps, &t->slew_ps, &t->required_ps,
                  &t->inst_slack_ps, &t->load_ff}) {
    if (!decode_vec(r, v)) return false;
  }
  return r->f64(&t->wns_ps) && r->f64(&t->tns_ps) &&
         r->f64(&t->critical_path_ps) && r->i32(&t->critical_endpoint);
}

// The f64 scalars of a FlowResult, in codec order (const or mutable).
template <typename Result>
auto scalar_fields(Result& r) {
  return std::array{&r.clock_ns,    &r.footprint_um2, &r.utilization,
                    &r.total_wl_um, &r.wns_ps,        &r.total_uw,
                    &r.cell_uw,     &r.net_uw,        &r.leak_uw,
                    &r.wire_uw,     &r.pin_uw,        &r.wire_cap_pf,
                    &r.pin_cap_pf,  &r.longest_path_ns};
}

void encode_scalars(const FlowResult& res, store::BlobWriter* w) {
  w->str(res.bench_name);
  w->i32(static_cast<int32_t>(res.style));
  w->u64(res.seed);
  w->i32(res.cells);
  w->i32(res.buffers);
  w->u8(res.timing_met ? 1 : 0);
  w->u8(res.routed ? 1 : 0);
  for (const double* v : scalar_fields(res)) w->f64(*v);
}

bool decode_scalars(store::BlobReader* r, FlowResult* res) {
  int32_t style = 0;
  uint8_t met = 0;
  uint8_t routed = 0;
  if (!r->str(&res->bench_name) || !r->i32(&style) || !r->u64(&res->seed) ||
      !r->i32(&res->cells) || !r->i32(&res->buffers) || !r->u8(&met) ||
      !r->u8(&routed)) {
    return false;
  }
  for (double* v : scalar_fields(*res)) {
    if (!r->f64(v)) return false;
  }
  res->style = static_cast<tech::Style>(style);
  res->timing_met = met != 0;
  res->routed = routed != 0;
  return true;
}

// The design a key's artifact was computed from: the bench, or a custom
// netlist's structural hash in its place.
std::string design_source(const FlowOptions& opt) {
  if (opt.custom_netlist != nullptr) {
    return util::strf(
        "\"netlist\":\"%s\"",
        store::key_hex(check::netlist_hash(*opt.custom_netlist)).c_str());
  }
  return util::strf("\"bench\":\"%s\"", gen::to_string(opt.bench));
}

}  // namespace

std::string resolved_store_dir(const std::string& opt_dir) {
  if (!opt_dir.empty()) return opt_dir;
  const char* env = std::getenv("M3D_STORE");
  return env != nullptr ? std::string(env) : std::string();
}

// --- library ---------------------------------------------------------------

std::string encode_library(const liberty::Library& lib) {
  store::BlobWriter w;
  w.u8(kLibraryVersion);
  w.str(lib.name);
  w.i32(static_cast<int32_t>(lib.node));
  w.i32(static_cast<int32_t>(lib.style));
  w.f64(lib.vdd_v);
  w.u32(static_cast<uint32_t>(lib.cells().size()));
  for (const liberty::LibCell& c : lib.cells()) {
    w.str(c.name);
    w.u32(static_cast<uint32_t>(c.func));
    w.i32(c.drive);
    w.f64(c.width_um);
    w.f64(c.height_um);
    w.u32(static_cast<uint32_t>(c.pin_cap_ff.size()));
    for (const auto& [pin, cap] : c.pin_cap_ff) {  // std::map: sorted order
      w.str(pin);
      w.f64(cap);
    }
    w.f64(c.leakage_uw);
    w.u8(c.sequential ? 1 : 0);
    w.f64(c.setup_ps);
    w.f64(c.hold_ps);
    w.u32(static_cast<uint32_t>(c.arcs.size()));
    for (const liberty::TimingArc& arc : c.arcs) {
      w.str(arc.from);
      w.str(arc.to);
      for (int e = 0; e < 2; ++e) encode_table(arc.delay[e], &w);
      for (int e = 0; e < 2; ++e) encode_table(arc.out_slew[e], &w);
      for (int e = 0; e < 2; ++e) encode_table(arc.energy[e], &w);
    }
  }
  return w.take();
}

bool decode_library(const std::string& blob, liberty::Library* lib) {
  constexpr uint32_t kMaxCells = 1u << 20;
  store::BlobReader r(blob);
  uint8_t version = 0;
  if (!r.u8(&version) || version != kLibraryVersion) return false;
  liberty::Library out;
  int32_t node = 0;
  int32_t style = 0;
  uint32_t n_cells = 0;
  if (!r.str(&out.name) || !r.i32(&node) || !r.i32(&style) ||
      !r.f64(&out.vdd_v) || !r.u32(&n_cells) || n_cells > kMaxCells) {
    return false;
  }
  out.node = static_cast<tech::Node>(node);
  out.style = static_cast<tech::Style>(style);
  for (uint32_t i = 0; i < n_cells; ++i) {
    liberty::LibCell c;
    uint32_t func = 0;
    uint32_t n_pins = 0;
    if (!r.str(&c.name) || !r.u32(&func) || !r.i32(&c.drive) ||
        !r.f64(&c.width_um) || !r.f64(&c.height_um) || !r.u32(&n_pins) ||
        n_pins > kMaxCells) {
      return false;
    }
    c.func = static_cast<cells::Func>(func);
    for (uint32_t p = 0; p < n_pins; ++p) {
      std::string pin;
      double cap = 0.0;
      if (!r.str(&pin) || !r.f64(&cap)) return false;
      c.pin_cap_ff[pin] = cap;
    }
    uint8_t seq = 0;
    uint32_t n_arcs = 0;
    if (!r.f64(&c.leakage_uw) || !r.u8(&seq) || !r.f64(&c.setup_ps) ||
        !r.f64(&c.hold_ps) || !r.u32(&n_arcs) || n_arcs > kMaxCells) {
      return false;
    }
    c.sequential = seq != 0;
    c.arcs.resize(n_arcs);
    for (liberty::TimingArc& arc : c.arcs) {
      if (!r.str(&arc.from) || !r.str(&arc.to)) return false;
      for (int e = 0; e < 2; ++e) {
        if (!decode_table(&r, &arc.delay[e])) return false;
      }
      for (int e = 0; e < 2; ++e) {
        if (!decode_table(&r, &arc.out_slew[e])) return false;
      }
      for (int e = 0; e < 2; ++e) {
        if (!decode_table(&r, &arc.energy[e])) return false;
      }
    }
    out.add(std::move(c));
  }
  if (!r.at_end()) return false;
  *lib = std::move(out);
  return true;
}

uint64_t library_fingerprint(const liberty::Library& lib) {
  return store::fnv1a64(encode_library(lib));
}

std::string library_key(const std::string& provider_id, tech::Node node,
                        tech::Style style) {
  return util::strf(
      "{\"artifact\":\"library\",\"provider\":\"%s\",\"node\":\"%s\","
      "\"style\":\"%s\"}",
      provider_id.c_str(), tech::to_string(node), tech::to_string(style));
}

// --- generated netlist -----------------------------------------------------

std::string netlist_key(const FlowOptions& opt) {
  return util::strf(
      "{\"artifact\":\"netlist\",\"bench\":\"%s\",\"scale_shift\":%d,"
      "\"seed\":\"%llu\"}",
      gen::to_string(opt.bench), opt.scale_shift,
      static_cast<unsigned long long>(opt.seed));
}

std::string encode_netlist_blob(const FlowResult& res) {
  store::BlobWriter w;
  w.u8(kNetlistBlobVersion);
  circuit::encode_netlist(res.netlist, &w);
  encode_stage_reports(res, 1, &w);
  return w.take();
}

bool decode_netlist_blob(const std::string& blob, FlowResult* res) {
  store::BlobReader r(blob);
  uint8_t version = 0;
  if (!r.u8(&version) || version != kNetlistBlobVersion) return false;
  // Decode into locals first: a torn blob must leave `*res` untouched so
  // the caller can fall back to running the stage.
  circuit::Netlist nl;
  std::vector<StageReport> reports;
  if (!circuit::decode_netlist(&r, &nl) ||
      !decode_stage_reports(&r, 1, &reports) || !r.at_end()) {
    return false;
  }
  res->netlist = std::move(nl);
  for (StageReport& sr : reports) res->stages.push_back(std::move(sr));
  return true;
}

// --- routed design ---------------------------------------------------------

std::string routed_key(const FlowOptions& opt, uint64_t lib_fp) {
  // Everything stages gen..opt_postroute read from the options; sign-off's
  // own inputs (pi/seq activity, check_level) stay out.
  return util::strf(
      "{\"artifact\":\"routed\",%s,\"node\":\"%s\",\"style\":\"%s\","
      "\"scale_shift\":%d,\"seed\":\"%llu\",\"clock_ns\":%.17g,"
      "\"target_util\":%.17g,\"tmi_wlm\":%d,"
      "\"local_blockage_frac\":%.17g,\"resistivity_scale\":%.17g,"
      "\"lib\":\"%s\"}",
      design_source(opt).c_str(), tech::to_string(opt.node),
      tech::to_string(opt.style), opt.scale_shift,
      static_cast<unsigned long long>(opt.seed), opt.clock_ns, opt.target_util,
      opt.tmi_wlm ? 1 : 0, effective_local_blockage_frac(opt),
      opt.resistivity_scale, store::key_hex(lib_fp).c_str());
}

std::string encode_routed_blob(const FlowResult& res,
                               const extract::Parasitics& par,
                               const sta::TimingResult& timing) {
  store::BlobWriter w;
  w.u8(kRoutedBlobVersion);
  circuit::encode_netlist(res.netlist, &w);
  w.f64(res.die.core.xlo);
  w.f64(res.die.core.ylo);
  w.f64(res.die.core.xhi);
  w.f64(res.die.core.yhi);
  w.f64(res.die.row_height_um);
  w.i32(res.die.num_rows);
  encode_routes(res.routes, &w);
  encode_parasitics(par, &w);
  encode_timing(timing, &w);
  encode_stage_reports(res, kRoutedStages, &w);
  return w.take();
}

bool decode_routed_blob(const std::string& blob, FlowResult* res,
                        extract::Parasitics* par, sta::TimingResult* timing) {
  store::BlobReader r(blob);
  uint8_t version = 0;
  if (!r.u8(&version) || version != kRoutedBlobVersion) return false;
  circuit::Netlist nl;
  place::Die die;
  route::RouteResult routes;
  extract::Parasitics p;
  sta::TimingResult t;
  std::vector<StageReport> reports;
  if (!circuit::decode_netlist(&r, &nl)) return false;
  if (!r.f64(&die.core.xlo) || !r.f64(&die.core.ylo) ||
      !r.f64(&die.core.xhi) || !r.f64(&die.core.yhi) ||
      !r.f64(&die.row_height_um) || !r.i32(&die.num_rows)) {
    return false;
  }
  if (!decode_routes(&r, &routes) || !decode_parasitics(&r, &p) ||
      !decode_timing(&r, &t) || !decode_stage_reports(&r, kRoutedStages, &reports) ||
      !r.at_end()) {
    return false;
  }
  res->netlist = std::move(nl);
  res->die = die;
  res->routes = std::move(routes);
  *par = std::move(p);
  *timing = std::move(t);
  for (StageReport& sr : reports) res->stages.push_back(std::move(sr));
  return true;
}

// --- iso-comparison --------------------------------------------------------

std::string compare_key(const FlowOptions& opt, uint64_t lib2d_fp,
                        uint64_t lib3d_fp) {
  // Every option run_iso_comparison reads, with the 3D style resolved as it
  // resolves it. opt.lib is not read (the two libraries replace it), and
  // store_dir, trace and stage_observer never change a result.
  const tech::Style style3d =
      opt.style == tech::Style::k2D ? tech::Style::kTMI : opt.style;
  return util::strf(
      "{\"artifact\":\"compare\",%s,\"node\":\"%s\",\"style\":\"%s\","
      "\"scale_shift\":%d,\"seed\":\"%llu\",\"clock_ns\":%.17g,"
      "\"target_util\":%.17g,\"tmi_wlm\":%d,"
      "\"local_blockage_frac\":%.17g,\"resistivity_scale\":%.17g,"
      "\"pi_activity\":%.17g,\"seq_activity\":%.17g,\"check\":\"%s\","
      "\"lib2d\":\"%s\",\"lib3d\":\"%s\"}",
      design_source(opt).c_str(), tech::to_string(opt.node),
      tech::to_string(style3d), opt.scale_shift,
      static_cast<unsigned long long>(opt.seed), opt.clock_ns, opt.target_util,
      opt.tmi_wlm ? 1 : 0, opt.local_blockage_frac, opt.resistivity_scale,
      opt.pi_activity, opt.seq_activity, check::to_string(opt.check_level),
      store::key_hex(lib2d_fp).c_str(), store::key_hex(lib3d_fp).c_str());
}

std::string encode_compare_blob(const CompareResult& cmp) {
  store::BlobWriter w;
  w.u8(kCompareBlobVersion);
  encode_scalars(cmp.flat, &w);
  encode_scalars(cmp.tmi, &w);
  return w.take();
}

bool decode_compare_blob(const std::string& blob, CompareResult* cmp) {
  store::BlobReader r(blob);
  uint8_t version = 0;
  if (!r.u8(&version) || version != kCompareBlobVersion) return false;
  CompareResult out;
  if (!decode_scalars(&r, &out.flat) || !decode_scalars(&r, &out.tmi) ||
      !r.at_end()) {
    return false;
  }
  *cmp = std::move(out);
  return true;
}

}  // namespace m3d::flow::artifacts
