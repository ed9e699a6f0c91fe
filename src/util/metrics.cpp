#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace m3d::util {
namespace {

// Fixed log-bucket layout used after the exact->bucketed switchover:
// 8 sub-buckets per octave over exponents [kMinExp, kMaxExp), plus an
// underflow bucket (index 0, samples < 2^kMinExp incl. zero/negative) and
// an overflow bucket (last index, samples >= 2^kMaxExp). In ms units the
// range spans ~1 ns to ~4.8 h, so real span/kernel durations never land in
// the catch-all buckets.
constexpr int kSubBuckets = 8;
constexpr int kMinExp = -20;
constexpr int kMaxExp = 34;
constexpr size_t kNumBuckets =
    static_cast<size_t>((kMaxExp - kMinExp) * kSubBuckets) + 2;

/// Bucket index of a sample. Deterministic: depends only on the value.
size_t bucket_index(double v) {
  if (!(v > 0.0)) return 0;
  const double lg = std::log2(v);
  if (lg < kMinExp) return 0;
  if (lg >= kMaxExp) return kNumBuckets - 1;
  const size_t sub = static_cast<size_t>((lg - kMinExp) * kSubBuckets);
  return std::min(sub + 1, kNumBuckets - 2);
}

/// Inclusive-lower bound of a bucket (0 for the underflow bucket).
double bucket_lower(size_t idx) {
  if (idx == 0) return 0.0;
  const double exp =
      kMinExp + static_cast<double>(idx - 1) / kSubBuckets;
  return std::exp2(exp);
}

double bucket_upper(size_t idx) {
  if (idx >= kNumBuckets - 1) return std::exp2(static_cast<double>(kMaxExp));
  return std::exp2(kMinExp + static_cast<double>(idx) / kSubBuckets);
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

void MetricsRegistry::bucket_add(Hist* h, double sample, uint32_t n) {
  h->buckets[bucket_index(sample)] += n;
}

void MetricsRegistry::bucketize(Hist* h) {
  if (!h->buckets.empty()) return;
  h->buckets.assign(kNumBuckets, 0);
  for (double v : h->samples) bucket_add(h, v, 1);
  h->samples.clear();
  h->samples.shrink_to_fit();
}

HistStats MetricsRegistry::stats_of(const Hist& h) {
  HistStats s;
  s.count = h.count;
  if (h.count == 0) return s;
  s.min = h.min;
  s.max = h.max;
  s.total = h.total;
  s.mean = h.total / static_cast<double>(h.count);

  if (h.buckets.empty()) {
    // Exact mode: nearest-rank p95, the ceil(0.95 * n)-th smallest sample.
    std::vector<double> sorted = h.samples;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = (19 * sorted.size() + 19) / 20;  // ceil(0.95 * n)
    s.p95 = sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
    return s;
  }

  // Bucketed mode: locate the bucket holding the nearest-rank sample and
  // linearly interpolate within it by rank position.
  s.approximate = true;
  const int64_t rank = (19 * h.count + 19) / 20;  // ceil(0.95 * n), >= 1
  int64_t cum = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    cum += h.buckets[i];
    if (cum < rank) continue;
    const int64_t into = rank - (cum - h.buckets[i]);  // 1..bucket count
    const double lo = bucket_lower(i);
    const double hi = bucket_upper(i);
    const double frac =
        static_cast<double>(into) / static_cast<double>(h.buckets[i]);
    s.p95 = std::clamp(lo + frac * (hi - lo), s.min, s.max);
    return s;
  }
  s.p95 = s.max;  // unreachable unless counts drift; stay sane
  return s;
}

void MetricsRegistry::merge_hist(Hist* dst, const Hist& src) {
  if (src.count == 0) return;
  if (dst->count == 0) {
    dst->min = src.min;
    dst->max = src.max;
  } else {
    dst->min = std::min(dst->min, src.min);
    dst->max = std::max(dst->max, src.max);
  }
  dst->count += src.count;
  dst->total += src.total;

  const bool both_exact = dst->buckets.empty() && src.buckets.empty();
  if (both_exact &&
      dst->samples.size() + src.samples.size() <= kExactSamples) {
    dst->samples.insert(dst->samples.end(), src.samples.begin(),
                        src.samples.end());
    return;
  }
  bucketize(dst);
  if (src.buckets.empty()) {
    for (double v : src.samples) bucket_add(dst, v, 1);
  } else {
    for (size_t i = 0; i < src.buckets.size(); ++i) {
      dst->buckets[i] += src.buckets[i];
    }
  }
}

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
  Hist& h = hists_[name];
  if (h.count == 0) {
    h.min = h.max = sample;
  } else {
    h.min = std::min(h.min, sample);
    h.max = std::max(h.max, sample);
  }
  ++h.count;
  h.total += sample;
  if (h.buckets.empty() && h.samples.size() < kExactSamples) {
    h.samples.push_back(sample);
  } else {
    bucketize(&h);  // no-op once switched
    bucket_add(&h, sample, 1);
  }
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
  return it == hists_.end() ? HistStats{} : stats_of(it->second);
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
  std::map<std::string, HistStats> out;
  for (const auto& [name, h] : hists_) out[name] = stats_of(h);
  return out;
}

void MetricsRegistry::merge_from(const MetricsRegistry& src) {
  if (&src == this) return;
  std::scoped_lock lock(mu_, src.mu_);
  for (const auto& [name, value] : src.counters_) counters_[name] += value;
  for (const auto& [name, value] : src.gauges_) gauges_[name] = value;
  for (const auto& [name, h] : src.hists_) merge_hist(&hists_[name], h);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

}  // namespace m3d::util
