// Global thread-safe metrics registry: named counters, gauges, and duration
// histograms. Every flow stage, the placer/router/optimizer inner loops and
// STA report into it; `flow::run_flow` snapshots it per stage to build the
// machine-readable StageReports, and `report::write_metrics_json` dumps the
// whole registry for interactive sessions (m3d_shell).
//
// Counters are monotonically accumulated doubles ("route.twopins"),
// gauges hold the last value set ("place.hpwl_um"), histograms keep one
// fixed-size record per name: count, total, min and max ("span.route";
// the mean is total / count). No sample is stored, so a histogram costs the
// same after a million observations as after one.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace m3d::util {

/// One histogram: every field is exact. min and max are 0 while count is 0.
struct HistStats {
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double total = 0.0;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& global();

  /// The calling thread's active sink: the registry most recently installed
  /// with ScopedMetricsSink on this thread, else global(). The convenience
  /// wrappers below report here, which lets concurrent flows collect their
  /// counters into private registries (merged back via merge_from) without
  /// interleaving each other's StageReports.
  static MetricsRegistry& current();

  void add_counter(const std::string& name, double delta = 1.0);
  void set_gauge(const std::string& name, double value);
  /// Records one sample into the named histogram (any unit; spans use ms).
  void observe(const std::string& name, double sample);

  /// Current value (0 if the name was never touched).
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// The named histogram (count 0 if absent).
  HistStats histogram(const std::string& name) const;

  /// Snapshots for reporting.
  std::map<std::string, double> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistStats> histograms() const;

  /// Drops every metric (tests and fresh interactive sessions).
  void reset();

  /// Folds `src` into this registry: counters add, gauges take src's value,
  /// histograms add count and total and widen min/max. Used to publish a
  /// flow-local registry into its parent when a concurrent flow finishes.
  void merge_from(const MetricsRegistry& src);

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistStats> hists_;
};

/// RAII redirection of this thread's metric reporting into `sink` (see
/// MetricsRegistry::current()). The sink is part of the thread's
/// obs::Context (obs/trace.hpp), which the exec pool captures at submit and
/// installs on the worker, so metrics emitted on pool threads land in the
/// flow that spawned the work.
class ScopedMetricsSink {
 public:
  explicit ScopedMetricsSink(MetricsRegistry& sink);
  ~ScopedMetricsSink();
  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

 private:
  MetricsRegistry* saved_;
};

/// Convenience wrappers over MetricsRegistry::current().
inline void count(const std::string& name, double delta = 1.0) {
  MetricsRegistry::current().add_counter(name, delta);
}
inline void set_gauge(const std::string& name, double value) {
  MetricsRegistry::current().set_gauge(name, value);
}
inline void observe(const std::string& name, double sample) {
  MetricsRegistry::current().observe(name, sample);
}

}  // namespace m3d::util
