#include "common.hpp"

#include <cassert>
#include <mutex>
#include <optional>
#include <sys/stat.h>

#include "exec/exec.hpp"
#include "flow/artifacts.hpp"
#include "flow/report.hpp"
#include "flow/warm.hpp"
#include "store/store.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"

namespace m3d::bench {
namespace {

// Concurrent comparisons can share report filenames (e.g. the fig11
// activity sweep reruns the same bench); serialize the writes.
std::mutex g_report_mu;

}  // namespace

const liberty::Library& library(tech::Node node, tech::Style style) {
  return flow::characterized_libraries().library(
      node, style == tech::Style::k2D ? tech::Style::k2D : tech::Style::kTMI);
}

void write_run_reports(const flow::CompareResult& r) {
  const std::lock_guard<std::mutex> lock(g_report_mu);
  ::mkdir("out_figs", 0755);
  for (const flow::FlowResult* res : {&r.flat, &r.tmi}) {
    const std::string path =
        "out_figs/" + report::report_filename(res->bench_name,
                                              tech::to_string(res->style));
    if (report::write_json(*res, path)) {
      util::info("wrote run report " + path);
    } else {
      util::warn("could not write run report " + path);
    }
  }
}

Cmp compare_cached(const std::string& key, const flow::FlowOptions& base) {
  const liberty::Library& l2 = library(base.node, tech::Style::k2D);
  const liberty::Library& l3 = library(base.node, tech::Style::kTMI);
  const store::Store& store = *flow::characterized_libraries().store();
  const std::string store_key = flow::artifacts::compare_key(
      key, flow::artifacts::library_fingerprint(l2),
      flow::artifacts::library_fingerprint(l3));
  Cmp cmp;
  const std::optional<std::string> stored = store.get("compare", store_key);
  if (stored && flow::artifacts::decode_compare_blob(*stored, &cmp)) {
    return cmp;
  }
  const flow::CompareResult r = flow::run_iso_comparison(base, l2, l3);
  write_run_reports(r);
  const std::string blob = flow::artifacts::encode_compare_blob(r);
  if (!store.put("compare", store_key, blob)) {
    util::warn("could not store comparison " + key);
  }
  [[maybe_unused]] const bool decoded =
      flow::artifacts::decode_compare_blob(blob, &cmp);
  assert(decoded);
  return cmp;
}

std::vector<Cmp> compare_cached_all(const std::vector<Job>& jobs) {
  // Warm the libraries before fanning out, so characterization runs on the
  // whole pool instead of inside one job while the others wait for it.
  for (const Job& job : jobs) {
    (void)library(job.opt.node, tech::Style::k2D);
    (void)library(job.opt.node, tech::Style::kTMI);
  }
  std::vector<Cmp> out(jobs.size());
  exec::TaskGroup group(exec::default_pool());
  for (size_t i = 0; i < jobs.size(); ++i) {
    group.run([&jobs, &out, i] { out[i] = compare_cached(jobs[i].key, jobs[i].opt); });
  }
  group.wait();
  return out;
}

flow::FlowOptions preset(gen::Bench bench, tech::Node node) {
  flow::FlowOptions o = flow::preset(bench, node);
  o.lib = &library(node, tech::Style::k2D);
  // Paper-table runs carry the full invariant battery: a violation in a
  // published number should be loud, and the check stage is a rounding
  // error next to the flow itself.
  o.check_level = check::Level::kFull;
  return o;
}

std::string pct_str(double v3, double v2) {
  if (v2 == 0.0) return "n/a";
  return util::strf("%+.1f%%", 100.0 * (v3 / v2 - 1.0));
}

std::string routed_str(const Cmp& c) {
  if (c.flat.routed && c.tmi.routed) return "yes";
  if (c.flat.routed) return "NO (T-MI)";
  if (c.tmi.routed) return "NO (2D)";
  return "NO (both)";
}

}  // namespace m3d::bench
