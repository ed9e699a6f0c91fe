#include "flow/warm.hpp"

#include "flow/artifacts.hpp"
#include "liberty/characterize.hpp"
#include "util/metrics.hpp"

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
