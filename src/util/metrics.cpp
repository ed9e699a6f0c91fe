#include "util/metrics.hpp"

#include <algorithm>

namespace m3d::util {
namespace {

/// Adds `src` (count >= 1: every stored record holds at least one sample)
/// into `dst`: counts and totals add, min/max widen.
void fold(HistStats* dst, const HistStats& src) {
  if (dst->count == 0) {
    *dst = src;
    return;
  }
  dst->count += src.count;
  dst->total += src.total;
  dst->min = std::min(dst->min, src.min);
  dst->max = std::max(dst->max, src.max);
}

thread_local MetricsRegistry* t_sink = nullptr;

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

MetricsRegistry& MetricsRegistry::current() {
  return t_sink != nullptr ? *t_sink : global();
}

ScopedMetricsSink::ScopedMetricsSink(MetricsRegistry& sink) : saved_(t_sink) {
  t_sink = &sink;
}

ScopedMetricsSink::~ScopedMetricsSink() { t_sink = saved_; }

void MetricsRegistry::add_counter(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double sample) {
  std::lock_guard<std::mutex> lock(mu_);
  fold(&hists_[name], HistStats{1, sample, sample, sample});
}

double MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistStats MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = hists_.find(name);
  return it == hists_.end() ? HistStats{} : it->second;
}

std::map<std::string, double> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::map<std::string, HistStats> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hists_;
}

void MetricsRegistry::merge_from(const MetricsRegistry& src) {
  if (&src == this) return;
  std::scoped_lock lock(mu_, src.mu_);
  for (const auto& [name, value] : src.counters_) counters_[name] += value;
  for (const auto& [name, value] : src.gauges_) gauges_[name] = value;
  for (const auto& [name, h] : src.hists_) fold(&hists_[name], h);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

}  // namespace m3d::util
