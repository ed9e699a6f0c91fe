#include "flow/warm.hpp"

#include "flow/artifacts.hpp"
#include "liberty/characterize.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::flow {

WarmContext::WarmContext(LibraryProvider provider)
    : provider_(std::move(provider)) {}

void WarmContext::attach_store(const std::string& dir,
                               const std::string& provider_id) {
  if (dir.empty()) return;
  store_ = std::make_unique<store::Store>(dir);
  provider_id_ = provider_id;
}

WarmContext::Corner& WarmContext::corner(tech::Node node, tech::Style style) {
  const std::pair<int, int> key{static_cast<int>(node),
                                static_cast<int>(style)};
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Corner>& slot = corners_[key];
  if (slot == nullptr) slot = std::make_unique<Corner>();
  return *slot;
}

const liberty::Library& WarmContext::library(tech::Node node,
                                             tech::Style style) {
  Corner& c = corner(node, style);
  // call_once serializes the (possibly slow) build per corner while holding
  // no lock of ours, so other corners stay available during a build.
  std::call_once(c.once, [&] {
    std::string key;
    if (store_ != nullptr && store_->enabled()) {
      key = artifacts::library_key(provider_id_, node, style);
      if (const auto blob = store_->get("library", key)) {
        auto lib = std::make_unique<liberty::Library>();
        if (artifacts::decode_library(*blob, lib.get())) {
          util::count("warm.lib_load");
          c.lib = std::move(lib);
          return;
        }
      }
    }
    util::count("warm.lib_build");
    c.lib = std::make_unique<liberty::Library>(provider_(node, style));
    if (store_ != nullptr && store_->enabled()) {
      store_->put("library", key, artifacts::encode_library(*c.lib));
    }
  });
  util::count("warm.lib_hit");
  return *c.lib;
}

bool WarmContext::warmed(tech::Node node, tech::Style style) const {
  const std::pair<int, int> key{static_cast<int>(node),
                                static_cast<int>(style)};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = corners_.find(key);
  return it != corners_.end() && it->second->lib != nullptr;
}

double WarmContext::clock_for(const FlowOptions& opt) {
  if (opt.clock_ns > 0.0) return opt.clock_ns;
  // The probe is a pure function of these fields (auto_clock_ns always
  // probes the 2D corner regardless of opt.style). Custom netlists are not
  // memoizable by value; fall through to a fresh probe for those.
  const bool memoizable = opt.custom_netlist == nullptr;
  std::string key;
  if (memoizable) {
    key = util::strf("%s/%s/s%d/u%.6f/seed%llu", gen::to_string(opt.bench),
                     tech::to_string(opt.node), opt.scale_shift,
                     opt.target_util,
                     static_cast<unsigned long long>(opt.seed));
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = clocks_.find(key);
    if (it != clocks_.end()) {
      util::count("warm.clock_hit");
      return it->second;
    }
  }
  FlowOptions probe = opt;
  if (probe.lib == nullptr) {
    probe.lib = &library(opt.node, tech::Style::k2D);
  }
  util::count("warm.clock_probe");
  // The attached store (if any) persists the probe result across restarts;
  // a store hit skips the synthesis probe entirely (visible as store.hits).
  const double clock = artifacts::resolved_clock_ns(probe, store_.get());
  if (memoizable) {
    // A concurrent probe for the same key computed the identical value
    // (the probe is deterministic), so last-writer-wins is benign.
    const std::lock_guard<std::mutex> lock(mu_);
    clocks_[key] = clock;
  }
  return clock;
}

FlowResult WarmContext::run(FlowOptions opt) {
  if (opt.lib == nullptr) {
    opt.lib = &library(opt.node, opt.style);
  }
  if (opt.clock_ns <= 0.0) {
    opt.clock_ns = clock_for(opt);
  }
  if (opt.store_dir.empty() && store_ != nullptr) {
    opt.store_dir = store_->dir();
  }
  return run_flow(opt);
}

WarmContext& characterized_libraries() {
  static const std::unique_ptr<WarmContext> warm = [] {
    auto w = std::make_unique<WarmContext>([](tech::Node node,
                                              tech::Style style) {
      if (node == tech::Node::k45nm) return liberty::build_library_45nm(style);
      return liberty::scale_to_7nm(
          characterized_libraries().library(tech::Node::k45nm, style));
    });
    w->attach_store(store::default_dir(), "spice");
    return w;
  }();
  return *warm;
}

}  // namespace m3d::flow
