// Structured trace-event collection and the flow's one span layer. Spans
// (obs::Span) time named regions of the flow into the metrics registry and,
// while collection is on, into the timeline. Each thread records
// TraceEvents (span begin/end, instant markers, counter samples) into its
// own fixed-capacity buffer — no cross-thread contention on the hot path
// beyond one uncontended mutex — and a snapshot copies everything out for
// export (obs/export.hpp: Chrome trace JSON + deterministic span summaries).
// The exec pool and the memory profiler (obs/mem.hpp) report here too.
//
// One per-thread Context says where a thread reports: its span nesting
// depth, its innermost traced span, its trace flow and its metrics sink.
// The exec pool captures it at submit and installs it on the worker with
// one ScopedContext, so work on pool threads reports to the span, flow and
// sink that spawned it.
//
// Collection is off by default and costs one relaxed atomic load per
// call site when off, so canonical outputs, goldens and the serial-vs-
// parallel byte-identity guarantee are untouched unless a caller opts in
// (FlowOptions::trace, M3D_TRACE=1, or a ScopedTraceEnable).
//
// Buffer policy: each thread's buffer holds at most buffer_capacity()
// events (M3D_TRACE_BUF, default 65536). When full, *new* events are
// dropped — never overwritten. A span's begin is accepted only with room
// for its end on top of the ends already reserved by the thread's open
// spans; an accepted begin's end is always recorded, and a dropped begin's
// end is dropped with it. So a truncated trace stays balanced: every B has
// its E, though the spans that closed after the buffer filled are missing
// from it. Drops are counted per thread and published as `obs.events_dropped`
// (plus `obs.events_recorded` and `obs.buffer_high_water`) at snapshot
// time, and the first drop per thread logs a warning. Trace truncation is
// never silent.
//
// Timestamps are steady-clock nanoseconds since the process-wide collector
// epoch: monotonic per thread, comparable across threads, and free of
// wall-clock reads (m3d_lint L003 stays enforced here; the one sanctioned
// wall-clock site is the `captured_at` stamp in obs/export.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.hpp"

namespace m3d::obs {

enum class EventType : uint8_t { kBegin, kEnd, kComplete, kInstant, kCounter };

struct TraceEvent {
  EventType type = EventType::kInstant;
  /// Flow attribution (export pid); 0 = process-level (exec pool, tests).
  uint32_t flow = 0;
  /// Steady-clock nanoseconds since the collector epoch.
  uint64_t ts_ns = 0;
  /// kComplete: span length (emitted once, at close — exec idle windows use
  /// this so a sleeping worker never leaves an unbalanced begin behind).
  uint64_t dur_ns = 0;
  /// kBegin/kEnd: this span's id (process-unique, never 0 for real spans).
  uint64_t span_id = 0;
  /// kBegin: the enclosing span at emission time (0 = root).
  uint64_t parent_id = 0;
  /// kCounter: the sampled value.
  double value = 0.0;
  /// kBegin/kComplete/kInstant/kCounter: event name. kEnd: empty (pairs by
  /// span_id).
  std::string name;
};

/// True while at least one ScopedTraceEnable is alive. One relaxed atomic
/// load: every emission site checks this first.
bool enabled();

/// True when the M3D_TRACE environment variable is set to a nonzero value
/// (read once per process).
bool env_enabled();

/// RAII collection window: increments the enable refcount so overlapping
/// windows (concurrent traced flows) compose.
class ScopedTraceEnable {
 public:
  ScopedTraceEnable();
  ~ScopedTraceEnable();
  ScopedTraceEnable(const ScopedTraceEnable&) = delete;
  ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;
};

/// Allocates a process-unique span id (monotonic, starts at 1).
uint64_t next_span_id();

/// Registers a flow timeline (one pid in the Chrome export) and returns its
/// id (>= 1). `set_flow_name` renames it once the flow knows its benchmark.
uint32_t register_flow(const std::string& name);
void set_flow_name(uint32_t flow, const std::string& name);

/// Where the calling thread reports: span nesting, trace parent, trace flow
/// and metrics sink.
struct Context {
  /// Span nesting depth (0 outside any span); indents the span log lines.
  int depth = 0;
  /// Innermost traced span (0 outside any): the parent of new spans.
  uint64_t span_id = 0;
  /// Flow attribution of new events (export pid); 0 = process-level.
  uint32_t flow = 0;
  /// Metrics sink: util::MetricsRegistry::current() (never null in a
  /// captured context; util/metrics keeps this one per-thread pointer so
  /// util::count routes without depending on obs).
  util::MetricsRegistry* sink = nullptr;
};

/// The calling thread's context.
Context context();

/// RAII installation of a context on the calling thread: the exec pool
/// adopts the submitter's on a worker, and a traced flow sets its own
/// flow. `ctx.sink` must be set (context() always sets it).
/// Restores the previous context on exit.
class ScopedContext {
 public:
  explicit ScopedContext(const Context& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
  util::ScopedMetricsSink sink_;
};

/// RAII span: marks a named region of the flow. Construction logs a nested
/// "begin" line at debug level; stop() (or the destructor) logs the elapsed
/// wall time and records it into the thread's metrics sink as the histogram
/// `span.<name>` (ms). Spans nest per thread, and the log indentation
/// follows the nesting, so `M3D_LOG_LEVEL=debug` prints a live call-tree.
///
/// While collection is on, a span also emits a begin/end TraceEvent pair
/// carrying a process-unique span id and its parent's id, and is the parent
/// of the spans opened inside it. The pair is emitted exactly once, whether
/// the span ends via stop() or the destructor; when collection is off the
/// only trace cost is one relaxed atomic load.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; the destructor then does nothing, so metrics and
  /// trace each see the span once. Returns the elapsed ms (0 when already
  /// stopped).
  double stop();

 private:
  std::string name_;
  uint64_t start_ns_;
  uint64_t span_id_ = 0;  // 0: tracing was off at construction
  uint64_t parent_id_ = 0;
  bool stopped_ = false;
};

/// Names the calling thread's track in the export ("main", "route/worker3").
/// Cheap and safe to call whether or not collection is enabled.
void set_thread_name(const std::string& name);

/// Emission. Callers gate on enabled() except emit_end: a span that emitted
/// its begin must emit its end even if the window closed in between, so
/// exported traces stay balanced.
void emit_begin(const std::string& name, uint64_t span_id, uint64_t parent_id);
void emit_end(uint64_t span_id);
/// One already-closed span [start_ns, now]: a Chrome "X" complete event.
void emit_complete(const std::string& name, uint64_t start_ns);
void emit_instant(const std::string& name);
void emit_counter(const std::string& name, double value);

/// Steady-clock nanoseconds since the collector epoch (the timebase of
/// every TraceEvent) — capture before a window to emit_complete later.
uint64_t timestamp_ns();

/// Per-thread copy-out of everything recorded since the last reset().
struct ThreadSnapshot {
  int tid = 0;
  std::string name;
  std::vector<TraceEvent> events;  // in emission (= timestamp) order
  uint64_t recorded = 0;
  uint64_t dropped = 0;
};

struct Snapshot {
  std::vector<ThreadSnapshot> threads;  // ordered by tid
  /// flow id -> name, ordered by id (flow ids restart at 1 after reset()).
  std::vector<std::pair<uint32_t, std::string>> flows;
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
  /// Largest single-thread event count — how close the busiest buffer came
  /// to truncation.
  uint64_t buffer_high_water = 0;
};

/// Copies all buffers out and publishes the collector's own health gauges
/// (`obs.events_recorded`, `obs.events_dropped`, `obs.buffer_high_water`)
/// into the global metrics registry.
Snapshot snapshot();

/// Clears every thread buffer and the flow table (thread registrations and
/// names persist; buffers are reused). Tests and m3d_prof call this between
/// capture windows.
void reset();

/// Per-thread event capacity: M3D_TRACE_BUF at first use, default 65536.
/// set_buffer_capacity overrides it at runtime (tests; applies to events
/// recorded after the call — it does not evict already-buffered events).
size_t buffer_capacity();
void set_buffer_capacity(size_t events);

/// Aggregated span statistics ("trace" block of the v3 run report and the
/// m3d_prof top-N table): per span name, how many spans completed, their
/// total wall time and their self time (total minus enclosed child spans).
struct SpanSummary {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

}  // namespace m3d::obs
