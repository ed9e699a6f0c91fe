// Reentrant warm-state handle: one process runs many flows without paying
// per-run setup again. The serving layer (src/serve) keeps exactly one of
// these alive for the daemon's lifetime; benches and tests can use it the
// same way.
//
// What stays warm:
//   * Libraries. A LibraryProvider builds the library for a (node, style)
//     pair once — characterization is the expensive cold-start the ROADMAP
//     "millions of users" item names — and every later flow at that corner
//     reuses the same immutable instance. Builds are serialized per corner
//     (std::call_once), so two concurrent first requests never characterize
//     twice, and requests for an already-warm corner never block behind a
//     build for a different one.
//   * Auto-clock probes. run_flow resolves clock_ns == 0 by synthesizing a
//     2D probe netlist; the result is a pure function of (bench, node,
//     scale_shift, seed, target_util), so WarmContext memoizes it and a
//     request flood at the same configuration pays for one probe.
//
// Thread-safety: every method is safe to call concurrently; run() itself is
// reentrant (run_flow keeps all mutable state flow-local, see src/exec's
// determinism contract). Counters: warm.lib_build / warm.lib_hit /
// warm.lib_load / warm.clock_probe / warm.clock_hit.
//
// With attach_store(), warm state additionally persists across process
// restarts: library characterizations and auto-clock probes are loaded from
// the content-addressed store (src/store) before being rebuilt, and run()
// threads the store directory into every flow so placements and generated
// netlists are reused too.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "flow/flow.hpp"
#include "liberty/library.hpp"
#include "store/store.hpp"
#include "tech/tech.hpp"

namespace m3d::flow {

class WarmContext {
 public:
  /// Builds the library for one (node, style) corner. Called at most once
  /// per corner for the lifetime of the context; may be slow
  /// (characterization) — concurrent requests for the same corner wait,
  /// requests for other corners proceed.
  using LibraryProvider =
      std::function<liberty::Library(tech::Node, tech::Style)>;

  explicit WarmContext(LibraryProvider provider);

  /// Backs this context with a persistent artifact store at `dir`:
  /// libraries and auto-clock probes are fetched from it before falling
  /// back to the provider / a fresh probe, and run() defaults
  /// FlowOptions::store_dir to `dir`. `provider_id` names the library
  /// provider in store keys (two providers must never share entries).
  /// Call before the first library()/run(); empty `dir` is a no-op.
  void attach_store(const std::string& dir, const std::string& provider_id);

  /// The attached store (null when attach_store was not called / no-op).
  const store::Store* store() const { return store_.get(); }

  /// The warm library for a corner (built on first use; never rebuilt).
  const liberty::Library& library(tech::Node node, tech::Style style);

  /// True when the corner's library has already been built (stats/ops).
  bool warmed(tech::Node node, tech::Style style) const;

  /// The resolved clock for `opt`: opt.clock_ns when positive, else the
  /// memoized auto_clock_ns probe result. `opt.lib` may be null — the probe
  /// uses the warm 2D library for opt.node.
  double clock_for(const FlowOptions& opt);

  /// run_flow with warm state filled in: opt.lib resolved from the corner
  /// (unless the caller pinned one), opt.clock_ns resolved via clock_for.
  FlowResult run(FlowOptions opt);

 private:
  struct Corner {
    std::once_flag once;
    std::unique_ptr<liberty::Library> lib;
  };

  Corner& corner(tech::Node node, tech::Style style);

  LibraryProvider provider_;
  std::unique_ptr<store::Store> store_;  // set once, before first use
  std::string provider_id_;
  mutable std::mutex mu_;  // guards corners_ map shape and clocks_
  std::map<std::pair<int, int>, std::unique_ptr<Corner>> corners_;
  std::map<std::string, double> clocks_;
};

/// The process-wide context of the SPICE-characterized libraries (store
/// provider id "spice"), attached to the store at store::default_dir().
/// The first process on a store characterizes each 45 nm style once
/// (liberty::build_library_45nm) and stores it bit-exactly; later ones load
/// it. A 7 nm corner is never characterized: it is the liberty::scale_to_7nm
/// of the warm 45 nm corner.
WarmContext& characterized_libraries();

}  // namespace m3d::flow
