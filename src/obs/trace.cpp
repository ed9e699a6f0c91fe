#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::obs {
namespace {

constexpr size_t kDefaultCapacity = 65536;

std::atomic<int> g_enable_refcount{0};
std::atomic<uint64_t> g_next_span{1};
std::atomic<size_t> g_capacity{0};  // 0 = not yet resolved from the env

/// One thread's buffer. The mutex is uncontended on the hot path (only the
/// owning thread records); snapshot/reset briefly take it from outside.
struct ThreadBuffer {
  std::mutex mu;
  int tid = 0;
  std::string name;
  std::vector<TraceEvent> events;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  uint64_t high_water = 0;
  /// Spans whose begin this buffer accepted and whose end is still due:
  /// each holds one reserved slot, so its end is never dropped.
  std::vector<uint64_t> open;
  /// Spans whose begin was dropped: their ends are dropped too.
  std::vector<uint64_t> refused;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> threads;
  std::vector<std::string> flow_names;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

/// Leaked on purpose: worker threads may outlive static destruction order,
/// and a destroyed registry under a recording thread would be a
/// use-after-free. One registry per process, never torn down.
Registry& registry() {
  static Registry* g_registry = new Registry;
  return *g_registry;
}

thread_local ThreadBuffer* t_buffer = nullptr;

/// The calling thread's Context minus its sink, which util/metrics keeps.
struct ThreadContext {
  int depth = 0;
  uint64_t span_id = 0;
  uint32_t flow = 0;
};
thread_local ThreadContext t_ctx;

ThreadBuffer& local_buffer() {
  if (t_buffer != nullptr) return *t_buffer;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->tid = static_cast<int>(reg.threads.size());
  buf->name = util::strf("thread%d", buf->tid);
  t_buffer = buf.get();
  reg.threads.push_back(std::move(buf));
  return *t_buffer;
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - registry().epoch)
          .count());
}

std::string indent(int depth) {
  return std::string(static_cast<size_t>(depth) * 2, ' ');
}

/// Spans format their begin/end lines only when they would be printed.
bool debug_logging() { return util::log_level() == util::LogLevel::kDebug; }

void drop(ThreadBuffer& buf) {
  ++buf.dropped;
  if (buf.dropped == 1) {
    util::warn(util::strf(
        "obs: trace buffer of %s full (%zu events); dropping new events — "
        "raise M3D_TRACE_BUF to capture more",
        buf.name.c_str(), buf.events.size()));
  }
}

/// Removes `id` from `ids` (searched from the back: spans end LIFO);
/// false when absent.
bool take(std::vector<uint64_t>& ids, uint64_t id) {
  const auto it = std::find(ids.rbegin(), ids.rend(), id);
  if (it == ids.rend()) return false;
  ids.erase(std::next(it).base());
  return true;
}

void record(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (ev.type == EventType::kEnd) {
    if (take(buf.refused, ev.span_id)) {
      drop(buf);
      return;
    }
    // An end whose begin reset() cleared away would be unmatched.
    if (!take(buf.open, ev.span_id)) return;
  } else {
    // Room for this event, the reserved ends of the spans already open
    // and, for a begin, its own end.
    const size_t need = buf.events.size() + buf.open.size() +
                        (ev.type == EventType::kBegin ? 2 : 1);
    if (need > buffer_capacity()) {
      if (ev.type == EventType::kBegin) buf.refused.push_back(ev.span_id);
      drop(buf);
      return;
    }
    if (ev.type == EventType::kBegin) buf.open.push_back(ev.span_id);
  }
  buf.events.push_back(std::move(ev));
  ++buf.recorded;
  if (buf.events.size() > buf.high_water) buf.high_water = buf.events.size();
}

}  // namespace

bool enabled() {
  return g_enable_refcount.load(std::memory_order_relaxed) > 0;
}

bool env_enabled() {
  static const bool on = [] {
    const char* s = std::getenv("M3D_TRACE");
    return s != nullptr && *s != '\0' && std::string(s) != "0";
  }();
  return on;
}

ScopedTraceEnable::ScopedTraceEnable() {
  g_enable_refcount.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceEnable::~ScopedTraceEnable() {
  g_enable_refcount.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t next_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

uint32_t register_flow(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.flow_names.push_back(name);
  return static_cast<uint32_t>(reg.flow_names.size());
}

void set_flow_name(uint32_t flow, const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (flow >= 1 && flow <= reg.flow_names.size()) {
    reg.flow_names[flow - 1] = name;
  }
}

Context context() {
  return Context{t_ctx.depth, t_ctx.span_id, t_ctx.flow,
                 &util::MetricsRegistry::current()};
}

ScopedContext::ScopedContext(const Context& ctx)
    : saved_(context()), sink_(*ctx.sink) {
  t_ctx = {ctx.depth, ctx.span_id, ctx.flow};
}

ScopedContext::~ScopedContext() {
  t_ctx = {saved_.depth, saved_.span_id, saved_.flow};
}

Span::Span(std::string name) : name_(std::move(name)), start_ns_(now_ns()) {
  if (debug_logging()) {
    util::debug(util::strf("%s%s ...", indent(t_ctx.depth).c_str(),
                           name_.c_str()));
  }
  ++t_ctx.depth;
  if (enabled()) {
    parent_id_ = t_ctx.span_id;
    span_id_ = next_span_id();
    emit_begin(name_, span_id_, parent_id_);
    t_ctx.span_id = span_id_;
  }
}

double Span::stop() {
  if (stopped_) return 0.0;
  stopped_ = true;
  const double ms = static_cast<double>(now_ns() - start_ns_) / 1e6;
  --t_ctx.depth;
  if (span_id_ != 0) {
    // Unconditional (not gated on enabled()): the begin was recorded, so
    // the end must be too, even if the trace window closed mid-span —
    // exported traces stay balanced and the span is recorded exactly once.
    emit_end(span_id_);
    t_ctx.span_id = parent_id_;
    span_id_ = 0;
  }
  if (debug_logging()) {
    util::debug(util::strf("%s%s: %.2f ms", indent(t_ctx.depth).c_str(),
                           name_.c_str(), ms));
  }
  util::observe("span." + name_, ms);
  return ms;
}

Span::~Span() { stop(); }

void set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.name = name;
}

void emit_begin(const std::string& name, uint64_t span_id,
                uint64_t parent_id) {
  TraceEvent ev;
  ev.type = EventType::kBegin;
  ev.flow = t_ctx.flow;
  ev.ts_ns = now_ns();
  ev.span_id = span_id;
  ev.parent_id = parent_id;
  ev.name = name;
  record(std::move(ev));
}

void emit_end(uint64_t span_id) {
  TraceEvent ev;
  ev.type = EventType::kEnd;
  ev.flow = t_ctx.flow;
  ev.ts_ns = now_ns();
  ev.span_id = span_id;
  record(std::move(ev));
}

void emit_complete(const std::string& name, uint64_t start_ns) {
  const uint64_t end_ns = now_ns();
  TraceEvent ev;
  ev.type = EventType::kComplete;
  ev.flow = t_ctx.flow;
  ev.ts_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.name = name;
  record(std::move(ev));
}

uint64_t timestamp_ns() { return now_ns(); }

void emit_instant(const std::string& name) {
  TraceEvent ev;
  ev.type = EventType::kInstant;
  ev.flow = t_ctx.flow;
  ev.ts_ns = now_ns();
  ev.name = name;
  record(std::move(ev));
}

void emit_counter(const std::string& name, double value) {
  TraceEvent ev;
  ev.type = EventType::kCounter;
  ev.flow = t_ctx.flow;
  ev.ts_ns = now_ns();
  ev.value = value;
  ev.name = name;
  record(std::move(ev));
}

Snapshot snapshot() {
  Registry& reg = registry();
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (uint32_t i = 0; i < reg.flow_names.size(); ++i) {
      snap.flows.emplace_back(i + 1, reg.flow_names[i]);
    }
    for (const auto& buf : reg.threads) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      ThreadSnapshot ts;
      ts.tid = buf->tid;
      ts.name = buf->name;
      ts.events = buf->events;
      ts.recorded = buf->recorded;
      ts.dropped = buf->dropped;
      snap.events_recorded += buf->recorded;
      snap.events_dropped += buf->dropped;
      if (buf->high_water > snap.buffer_high_water) {
        snap.buffer_high_water = buf->high_water;
      }
      snap.threads.push_back(std::move(ts));
    }
  }
  // Collector health: gauges (not counters) so repeated snapshots of the
  // same window do not double-count. Truncation is never silent — any
  // nonzero obs.events_dropped means the exported trace is a prefix.
  auto& metrics = util::MetricsRegistry::global();
  metrics.set_gauge("obs.events_recorded",
                    static_cast<double>(snap.events_recorded));
  metrics.set_gauge("obs.events_dropped",
                    static_cast<double>(snap.events_dropped));
  metrics.set_gauge("obs.buffer_high_water",
                    static_cast<double>(snap.buffer_high_water));
  return snap;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& buf : reg.threads) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
    buf->open.clear();
    buf->refused.clear();
    buf->recorded = 0;
    buf->dropped = 0;
    buf->high_water = 0;
  }
  reg.flow_names.clear();
}

size_t buffer_capacity() {
  size_t cap = g_capacity.load(std::memory_order_relaxed);
  if (cap != 0) return cap;
  const char* s = std::getenv("M3D_TRACE_BUF");
  cap = kDefaultCapacity;
  if (s != nullptr && *s != '\0') {
    const long long n = std::atoll(s);
    if (n > 0) cap = static_cast<size_t>(n);
  }
  g_capacity.store(cap, std::memory_order_relaxed);
  return cap;
}

void set_buffer_capacity(size_t events) {
  g_capacity.store(events == 0 ? kDefaultCapacity : events,
                   std::memory_order_relaxed);
}

}  // namespace m3d::obs
