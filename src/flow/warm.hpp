// Warm library cache: one process runs many flows without characterizing a
// library again. A LibraryProvider builds the library for a (node, style)
// corner once — characterization is the expensive cold start — and every
// later flow at that corner reuses the same immutable instance. Builds are
// serialized per corner (std::call_once), so two concurrent first requests
// (e.g. flows on different exec pool workers) never characterize twice, and
// requests for an already-warm corner never block behind a build for a
// different one.
//
// Thread-safety: every method is safe to call concurrently. Counters:
// warm.lib_build / warm.lib_hit / warm.lib_load.
//
// With attach_store(), libraries also persist across process restarts: each
// corner is loaded from the content-addressed store (src/store) before the
// provider is asked to build it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

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
  /// libraries are fetched from it before falling back to the provider.
  /// `provider_id` names the library provider in store keys (two providers
  /// must never share entries). Call before the first library(); empty
  /// `dir` is a no-op.
  void attach_store(const std::string& dir, const std::string& provider_id);

  /// The attached store (null when attach_store was not called / no-op).
  const store::Store* store() const { return store_.get(); }

  /// The warm library for a corner (built on first use; never rebuilt).
  const liberty::Library& library(tech::Node node, tech::Style style);

  /// True when the corner's library has already been built (stats/ops).
  bool warmed(tech::Node node, tech::Style style) const;

 private:
  struct Corner {
    std::once_flag once;
    std::unique_ptr<liberty::Library> lib;
  };

  Corner& corner(tech::Node node, tech::Style style);

  LibraryProvider provider_;
  std::unique_ptr<store::Store> store_;  // set once, before first use
  std::string provider_id_;
  mutable std::mutex mu_;  // guards corners_ map shape
  std::map<std::pair<int, int>, std::unique_ptr<Corner>> corners_;
};

/// The process-wide context of the SPICE-characterized libraries (store
/// provider id "spice"), attached to the store at store::default_dir().
/// The first process on a store characterizes each 45 nm style once
/// (liberty::build_library_45nm) and stores it bit-exactly; later ones load
/// it. A 7 nm corner is never characterized: it is the liberty::scale_to_7nm
/// of the warm 45 nm corner.
WarmContext& characterized_libraries();

}  // namespace m3d::flow
