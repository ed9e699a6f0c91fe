// Global thread-safe metrics registry: named counters, gauges, and duration
// histograms. Every flow stage, the placer/router/optimizer inner loops and
// STA report into it; `flow::run_flow` snapshots it per stage to build the
// machine-readable StageReports, and `report::write_metrics_json` dumps the
// whole registry for interactive sessions (m3d_shell).
//
// Counters are monotonically accumulated doubles ("route.twopins"),
// gauges hold the last value set ("place.hpwl_um"), histograms collect
// samples and expose min/mean/max/p95 ("span.route").
//
// Histogram memory is bounded: the first kExactSamples (4096) samples of a
// histogram are kept verbatim and p95 is exact nearest-rank. The 4097th
// sample triggers a one-way switchover to fixed logarithmic buckets (8 per
// octave over 2^-20..2^34 — sub-microsecond to hours, in ms units), after
// which p95 is a deterministic within-bucket linear interpolation, flagged
// by HistStats::approximate. count/min/max/total/mean stay exact in both
// modes, and a saturated histogram costs ~2 KiB flat, so paper-scale runs
// with millions of observations never grow the registry without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace m3d::util {

struct HistStats {
  int64_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p95 = 0.0;
  double total = 0.0;
  /// False while the histogram holds all samples verbatim (exact
  /// nearest-rank p95); true after the kExactSamples switchover to log
  /// buckets (interpolated p95; count/min/max/total/mean still exact).
  bool approximate = false;
};

class MetricsRegistry {
 public:
  /// Samples a histogram keeps verbatim before switching to log buckets.
  static constexpr size_t kExactSamples = 4096;

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
  /// Summary stats of a histogram (count 0 if absent). See the header
  /// comment for the exact-vs-bucketed p95 switchover.
  HistStats histogram(const std::string& name) const;

  /// Snapshots for reporting; histogram samples are reduced to HistStats.
  std::map<std::string, double> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistStats> histograms() const;

  /// Drops every metric (tests and fresh interactive sessions).
  void reset();

  /// Folds `src` into this registry: counters add, gauges take src's value,
  /// histograms merge (staying exact only while both sides are exact and
  /// the combined sample count fits under kExactSamples). Used to publish a
  /// flow-local registry into its parent when a concurrent flow finishes.
  void merge_from(const MetricsRegistry& src);

 private:
  /// One histogram: exact sample list up to kExactSamples, then fixed log
  /// buckets (`buckets` non-empty marks the switch; `samples` is then
  /// empty). count/min/max/total are maintained exactly in both modes.
  struct Hist {
    int64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double total = 0.0;
    std::vector<double> samples;
    std::vector<uint32_t> buckets;
  };

  static void bucketize(Hist* h);
  static void bucket_add(Hist* h, double sample, uint32_t n);
  static HistStats stats_of(const Hist& h);
  static void merge_hist(Hist* dst, const Hist& src);

  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Hist> hists_;
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
