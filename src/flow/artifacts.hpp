// Stage-artifact keys and codecs for the content-addressed store
// (src/store): the bridge between run_flow / WarmContext and Store.
//
// Key schema (DESIGN.md "Stage-artifact keys" / "Result store"): each stage
// artifact keys on the *prefix* of the resolved flow options that
// determines it, serialized as fixed-order compact JSON —
//
//   library  <- (provider, node, style)
//   netlist  <- (bench, scale_shift, seed)           [pure generator output]
//   routed   <- + (node, style, clock_ns, target_util, tmi_wlm,
//                  effective local_blockage_frac, resistivity_scale,
//                  library fp)
//   compare  <- (bench, node, resolved 3D style, scale_shift, seed,
//                clock_ns, target_util, tmi_wlm, local_blockage_frac,
//                resistivity_scale, pi/seq activity, check_level,
//                2D library fp, 3D library fp)
//
// The routed key leaves out exactly what only sign-off reads (pi_activity,
// seq_activity, check_level): a switching-activity sweep over one design
// routes it once and re-runs only sign-off per activity.
//
// The library fingerprint (FNV-1a-64 over the lossless binary encoding)
// appears in every key whose artifact was computed *against* a library, so
// two providers serving different cells for the same (node, style) can
// never poison each other's designs. A custom netlist has no canonical
// serialization in the key schema: the routed and compare keys carry its
// structural hash in place of the bench, and the netlist artifact is
// skipped for it.
//
// Keys name inputs, not code: an entry written by older code is served to
// newer code unchanged (ROADMAP item 5). Clear the store after changing a
// stage.
//
// Codecs are bit-exact (store/blob.hpp): library tables, netlist state,
// placement coordinates, routes, parasitics and timing round-trip as raw
// IEEE-754 bit patterns, never text — the acceptance bar is that a
// store-hit flow emits the same canonical report bytes as a cold flow. Each
// blob also carries the StageReports of the stages it lets run_flow skip,
// so replayed reports keep the per-stage counters byte-identical in the
// canonical report.
#pragma once

#include <cstdint>
#include <string>

#include "extract/parasitics.hpp"
#include "flow/flow.hpp"
#include "liberty/library.hpp"
#include "sta/sta.hpp"
#include "tech/tech.hpp"

namespace m3d::flow::artifacts {

/// The store directory for `opt_dir`: itself when non-empty, else the
/// M3D_STORE environment variable, else "" (store disabled — the serial
/// fallback: every stage simply runs).
std::string resolved_store_dir(const std::string& opt_dir);

// --- library ---------------------------------------------------------------

/// Lossless binary encoding of a characterized library (every table value
/// as its exact bit pattern). decode_library returns false on malformed
/// input.
std::string encode_library(const liberty::Library& lib);
bool decode_library(const std::string& blob, liberty::Library* lib);

/// FNV-1a-64 of encode_library(lib): the identity of the exact numbers the
/// flow computes against.
uint64_t library_fingerprint(const liberty::Library& lib);

/// `provider_id` names who characterizes (e.g. "fixture"); two providers
/// must never share library entries.
std::string library_key(const std::string& provider_id, tech::Node node,
                        tech::Style style);

// --- generated netlist -----------------------------------------------------

/// Key of the generated benchmark netlist (requires custom_netlist ==
/// nullptr; generation does not depend on the library or style).
std::string netlist_key(const FlowOptions& opt);

/// Blob: exact netlist snapshot + the "gen" StageReport (res.stages[0]).
std::string encode_netlist_blob(const FlowResult& res);
/// Restores res->netlist and appends the stored StageReport to
/// res->stages. False on malformed input (caller falls back to running).
bool decode_netlist_blob(const std::string& blob, FlowResult* res);

// --- routed design ---------------------------------------------------------

/// Key of the routed, post-route-optimized design: everything that
/// determines stages gen..opt_postroute. `opt.clock_ns` must already be
/// resolved (> 0); local_blockage_frac enters at its effective value. A
/// custom netlist contributes its structural hash in place of the bench.
std::string routed_key(const FlowOptions& opt, uint64_t lib_fp);

/// Blob: the state run_flow holds when opt_postroute ends — exact netlist
/// snapshot, die, routes, the post-route optimizer's final parasitics and
/// timing (what sign-off consumes), and the six StageReports
/// gen..opt_postroute (res.stages[0..5]).
std::string encode_routed_blob(const FlowResult& res,
                               const extract::Parasitics& par,
                               const sta::TimingResult& timing);
/// Restores res->netlist (unbound — caller rebinds), res->die, res->routes,
/// `*par` and `*timing`, and appends the six stored StageReports. False on
/// malformed input, leaving every output untouched.
bool decode_routed_blob(const std::string& blob, FlowResult* res,
                        extract::Parasitics* par, sta::TimingResult* timing);

// --- iso-comparison --------------------------------------------------------

/// Key of a memoized run_iso_comparison(opt, lib2d, lib3d): every option
/// field the comparison reads, plus the fingerprints of the 2D and 3D
/// libraries it ran against, so neither an edited preset nor a
/// re-characterized library ever serves an old result.
std::string compare_key(const FlowOptions& opt, uint64_t lib2d_fp,
                        uint64_t lib3d_fp);

/// Blob: the scalar fields of both sides (identification, seed, the Table
/// 13/14 columns and the S8 split). Netlists, routes, stage reports and
/// checks are not stored.
std::string encode_compare_blob(const CompareResult& cmp);
/// Restores those scalar fields into a default FlowResult per side. False
/// on malformed input (`*cmp` untouched).
bool decode_compare_blob(const std::string& blob, CompareResult* cmp);

}  // namespace m3d::flow::artifacts
