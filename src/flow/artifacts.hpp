// Stage-artifact keys and codecs for the content-addressed store
// (src/store): the bridge between run_flow / WarmContext and Store.
//
// Key schema (DESIGN.md "Stage-artifact keys" / "Result store"): each stage
// artifact keys on the *prefix* of the resolved flow options that
// determines it, serialized as fixed-order compact JSON —
//
//   library  <- (provider, node, style)
//   clock    <- + (bench, scale_shift, seed, target_util, library fp)
//   netlist  <- (bench, scale_shift, seed)           [pure generator output]
//   place    <- + (node, style, clock_ns, target_util, tmi_wlm,
//                  resistivity_scale, build_cts, library fp)
//   compare  <- (caller's configuration key, 2D library fp, 3D library fp)
//
// The library fingerprint (FNV-1a-64 over the lossless binary encoding)
// appears in every key whose artifact was computed *against* a library, so
// two providers serving different cells for the same (node, style) can
// never poison each other's clocks or placements. Custom WLMs and custom
// netlists have no canonical serialization in the key schema; options
// carrying them bypass the affected artifacts (store_usable /
// netlist-hash substitution below).
//
// Codecs are bit-exact (store/blob.hpp): library tables, netlist state and
// placement coordinates round-trip as raw IEEE-754 bit patterns, never
// text — the acceptance bar is that a store-hit flow emits the same
// canonical report bytes as a cold flow. Each blob also carries the
// StageReports of the stages it lets run_flow skip, so replayed reports
// keep the per-stage counters byte-identical in the canonical report.
#pragma once

#include <cstdint>
#include <string>

#include "flow/flow.hpp"
#include "liberty/library.hpp"
#include "store/store.hpp"
#include "tech/tech.hpp"

namespace m3d::flow::artifacts {

/// The store directory for `opt_dir`: itself when non-empty, else the
/// M3D_STORE environment variable, else "" (store disabled — the serial
/// fallback: every stage simply runs).
std::string resolved_store_dir(const std::string& opt_dir);

/// True when `opt` is expressible in the key schema at all (no custom WLM;
/// custom netlists are handled per-artifact via their structural hash).
bool store_usable(const FlowOptions& opt);

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

// --- auto-clock ------------------------------------------------------------

/// Key of the memoized auto_clock_ns probe result for `opt` (requires
/// opt.custom_netlist == nullptr). `lib_fp` fingerprints the library the
/// probe runs against (opt.lib).
std::string clock_key(const FlowOptions& opt, uint64_t lib_fp);

/// opt.clock_ns when positive; else the store-memoized probe (get, or run
/// auto_clock_ns and put). `store` may be null or disabled — then always a
/// fresh probe. opt.lib must be set.
double resolved_clock_ns(const FlowOptions& opt, const store::Store* store);

// --- generated netlist -----------------------------------------------------

/// Key of the generated benchmark netlist (requires custom_netlist ==
/// nullptr; generation does not depend on the library or style).
std::string netlist_key(const FlowOptions& opt);

/// Blob: exact netlist snapshot + the "gen" StageReport (res.stages[0]).
std::string encode_netlist_blob(const FlowResult& res);
/// Restores res->netlist and appends the stored StageReport to
/// res->stages. False on malformed input (caller falls back to running).
bool decode_netlist_blob(const std::string& blob, FlowResult* res);

// --- placement -------------------------------------------------------------

/// Key of the placed (and CTS'd) design: everything that determines stages
/// gen/synth/place. `opt.clock_ns` must already be resolved (> 0). A
/// custom netlist contributes its structural hash in place of the bench.
std::string place_key(const FlowOptions& opt, uint64_t lib_fp);

/// Blob: exact post-place netlist snapshot + die + the "gen"/"synth"/
/// "place" StageReports (res.stages[0..2]).
std::string encode_place_blob(const FlowResult& res);
/// Restores res->netlist (unbound — caller rebinds) and res->die, appends
/// the three stored StageReports. False on malformed input.
bool decode_place_blob(const std::string& blob, FlowResult* res);

// --- iso-comparison --------------------------------------------------------

/// Key of a memoized iso-comparison: the caller's configuration key (it
/// must tell apart every configuration the caller runs) plus the
/// fingerprints of the 2D and 3D libraries it ran against, so a
/// re-characterized library never serves an old result.
std::string compare_key(const std::string& config_key, uint64_t lib2d_fp,
                        uint64_t lib3d_fp);

/// Blob: the scalar fields of both sides (identification, seed, the Table
/// 13/14 columns and the S8 split). Netlists, routes, stage reports and
/// checks are not stored.
std::string encode_compare_blob(const CompareResult& cmp);
/// Restores those scalar fields into a default FlowResult per side. False
/// on malformed input (`*cmp` untouched).
bool decode_compare_blob(const std::string& blob, CompareResult* cmp);

}  // namespace m3d::flow::artifacts
