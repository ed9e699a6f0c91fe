// Tests for the structured trace subsystem (src/obs): the per-thread event
// collector, the drop-newest buffer policy, exactly-once span emission from
// obs::Span, obs::Context propagation across ThreadPool workers, the
// Chrome trace export + validator, the v2/v3 run-report split, and the
// memory profiling hooks.
//
// The collector is process-global; every test opens with obs::reset() and
// runs its capture inside its own ScopedTraceEnable window. The suite runs
// single-process with other tests, so assertions about "this thread's"
// events filter the snapshot by the recording thread's events rather than
// assuming the process recorded nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "obs/export.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "test_fixtures.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

const liberty::Library& lib2d() {
  static const liberty::Library lib =
      test::make_test_library(tech::Style::k2D);
  return lib;
}

flow::FlowOptions small_opts() {
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.scale_shift = 4;
  o.clock_ns = 2.0;
  o.lib = &lib2d();
  return o;
}

/// All events of every thread, flattened (tests run the capture window
/// themselves, so everything in the snapshot belongs to them).
std::vector<obs::TraceEvent> all_events(const obs::Snapshot& snap) {
  std::vector<obs::TraceEvent> out;
  for (const auto& th : snap.threads) {
    out.insert(out.end(), th.events.begin(), th.events.end());
  }
  return out;
}

int count_type(const std::vector<obs::TraceEvent>& evs, obs::EventType t,
               const std::string& name = "") {
  int n = 0;
  for (const auto& ev : evs) {
    if (ev.type == t && (name.empty() || ev.name == name)) ++n;
  }
  return n;
}

TEST(ObsCollector, DisabledByDefaultAndRefcounted) {
  obs::reset();
  EXPECT_FALSE(obs::enabled());
  {
    obs::ScopedTraceEnable outer;
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedTraceEnable inner;
      EXPECT_TRUE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled()) << "overlapping windows must compose";
  }
  EXPECT_FALSE(obs::enabled());
  // Emission helpers are no-ops for gated callers; nothing recorded.
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.events_recorded, 0u);
}

TEST(ObsCollector, RecordsEventsWithMonotonicTimestamps) {
  obs::reset();
  obs::ScopedTraceEnable window;
  const uint64_t id = obs::next_span_id();
  obs::emit_begin("t.span", id, 0);
  obs::emit_instant("t.marker");
  obs::emit_counter("t.value", 42.0);
  obs::emit_end(id);
  const obs::Snapshot snap = obs::snapshot();
  const auto evs = all_events(snap);
  EXPECT_EQ(snap.events_recorded, 4u);
  EXPECT_EQ(snap.events_dropped, 0u);
  EXPECT_EQ(count_type(evs, obs::EventType::kBegin, "t.span"), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kEnd), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kInstant, "t.marker"), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kCounter, "t.value"), 1);
  for (const auto& th : snap.threads) {
    for (size_t i = 1; i < th.events.size(); ++i) {
      EXPECT_GE(th.events[i].ts_ns, th.events[i - 1].ts_ns);
    }
  }
  // The collector publishes its own health gauges — truncation (here: none)
  // is observable without parsing any trace file.
  auto& reg = util::MetricsRegistry::global();
  EXPECT_DOUBLE_EQ(reg.gauge("obs.events_recorded"), 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("obs.events_dropped"), 0.0);
  EXPECT_GE(reg.gauge("obs.buffer_high_water"), 4.0);
}

TEST(ObsCollector, FullBufferDropsNewestAndCountsDrops) {
  obs::reset();
  obs::set_buffer_capacity(8);
  {
    obs::ScopedTraceEnable window;
    for (int i = 0; i < 20; ++i) obs::emit_instant("t.flood");
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::set_buffer_capacity(0);  // restore the default for later tests
  EXPECT_EQ(snap.events_recorded, 8u) << "well-formed prefix kept";
  EXPECT_EQ(snap.events_dropped, 12u) << "overflow counted, never silent";
  EXPECT_EQ(snap.buffer_high_water, 8u);
  EXPECT_DOUBLE_EQ(util::MetricsRegistry::global().gauge("obs.events_dropped"),
                   12.0);
}

// A buffer that fills mid-span still yields a valid trace: accepted begins
// keep a reserved slot for their ends, and a dropped begin takes its end
// with it — on every worker, with spans nested inside pool tasks.
TEST(ObsCollector, TruncatedTraceStaysBalancedAcrossPoolWorkers) {
  exec::ExecOptions opt;
  opt.num_threads = 4;
  exec::ThreadPool pool(opt);
  constexpr size_t kCapacity = 16;
  obs::reset();
  obs::set_buffer_capacity(kCapacity);
  {
    obs::ScopedTraceEnable window;
    obs::Span outer("t.trunc_outer");
    pool.parallel_for(64, 1, [](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        obs::Span task("t.trunc_task");
        {
          obs::Span inner("t.trunc_inner");
          obs::emit_instant("t.trunc_mark");
        }
        obs::emit_counter("t.trunc_value", static_cast<double>(i));
      }
    });
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::set_buffer_capacity(0);  // restore the default for later tests
  EXPECT_GT(snap.events_dropped, 0u) << "the case must truncate";
  for (const auto& th : snap.threads) {
    EXPECT_LE(th.events.size(), kCapacity) << th.name;
    EXPECT_EQ(count_type(th.events, obs::EventType::kBegin),
              count_type(th.events, obs::EventType::kEnd))
        << th.name;
  }
  util::json::Value doc;
  std::string err;
  ASSERT_TRUE(util::json::parse(obs::chrome_trace_string(snap), &doc, &err))
      << err;
  EXPECT_TRUE(obs::validate_chrome_trace(doc, &err)) << err;
}

TEST(ObsTrace, SpanEmitsBalancedPairExactlyOnce) {
  obs::reset();
  obs::ScopedTraceEnable window;
  {
    obs::Span outer("t.outer");
    {
      obs::Span inner("t.inner");
      inner.stop();
      // A second stop and the destructor must not re-emit.
      inner.stop();
    }
  }
  const auto evs = all_events(obs::snapshot());
  EXPECT_EQ(count_type(evs, obs::EventType::kBegin, "t.outer"), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kBegin, "t.inner"), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kEnd), 2);
  // The inner begin is parented to the outer span.
  uint64_t outer_id = 0;
  for (const auto& ev : evs) {
    if (ev.type == obs::EventType::kBegin && ev.name == "t.outer") {
      outer_id = ev.span_id;
    }
  }
  ASSERT_NE(outer_id, 0u);
  for (const auto& ev : evs) {
    if (ev.type == obs::EventType::kBegin && ev.name == "t.inner") {
      EXPECT_EQ(ev.parent_id, outer_id);
    }
  }
}

// A span's begin and end lines are formatted and printed only when the log
// level admits debug; at warn it prints nothing.
TEST(ObsTrace, SpanLogsItsDebugLinesOnlyAtDebugLevel) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  testing::internal::CaptureStderr();
  { obs::Span span("t.logged"); }
  const std::string debug_err = testing::internal::GetCapturedStderr();
  util::set_log_level(util::LogLevel::kWarn);
  testing::internal::CaptureStderr();
  { obs::Span span("t.logged"); }
  const std::string warn_err = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);

  EXPECT_NE(debug_err.find("t.logged ..."), std::string::npos) << debug_err;
  const size_t end = debug_err.find("t.logged: ");
  ASSERT_NE(end, std::string::npos) << debug_err;
  const size_t ms = debug_err.find(" ms\n", end);
  ASSERT_NE(ms, std::string::npos) << debug_err;
  const std::string value = debug_err.substr(end + 10, ms - end - 10);
  EXPECT_EQ(value.find_first_not_of("0123456789."), std::string::npos)
      << value;
  EXPECT_EQ(warn_err, "");
}

TEST(ObsTrace, SpanBegunInsideWindowEndsAfterWindowCloses) {
  // A span whose begin was recorded must emit its end even if collection
  // was disabled in between — exported traces stay balanced.
  obs::reset();
  auto* window = new obs::ScopedTraceEnable;
  auto* span = new obs::Span("t.straddle");
  delete window;  // collection off, span still open
  EXPECT_FALSE(obs::enabled());
  delete span;
  const auto evs = all_events(obs::snapshot());
  EXPECT_EQ(count_type(evs, obs::EventType::kBegin, "t.straddle"), 1);
  EXPECT_EQ(count_type(evs, obs::EventType::kEnd), 1);
}

/// Runs one traced task through `pool` under a registered flow and a
/// private metrics sink, installed by one ScopedContext. The task opens an
/// inner span and bumps a counter; the submitter waits (without helping)
/// until the task ran, so on a parallel pool the body runs on a worker.
struct PropagationTrace {
  uint64_t submitter_id = 0;
  uint32_t flow = 0;  // the submitter's registered flow
  int task_begins = 0;
  uint64_t task_id = 0;
  uint64_t task_parent = 0;
  uint64_t inner_parent = 0;
  /// Flow of every exec.task and inner begin event.
  std::vector<uint32_t> task_side_flows;
  bool inner_on_submitter_thread = false;
  double sink_count = 0.0;    // the task's counter in the submitter's sink
  double global_delta = 0.0;  // ... and in the global registry
};

PropagationTrace run_propagation_case(exec::ThreadPool& pool) {
  obs::reset();
  obs::ScopedTraceEnable window;
  PropagationTrace out;
  util::MetricsRegistry sink;
  auto& global = util::MetricsRegistry::global();
  const double global_before = global.counter("t.worker_count");
  {
    obs::Context ctx = obs::context();
    ctx.flow = out.flow = obs::register_flow("t.propagation");
    ctx.sink = &sink;
    const obs::ScopedContext scope(ctx);
    obs::Span submitter("t.submit");
    out.submitter_id = obs::context().span_id;
    std::atomic<bool> ran{false};
    exec::TaskGroup group(pool);
    group.run([&ran] {
      obs::Span inner("t.worker_inner");
      util::count("t.worker_count");
      ran = true;
    });
    for (int spins = 0; !ran.load() && spins < 5000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    group.wait();
  }
  out.sink_count = sink.counter("t.worker_count");
  out.global_delta = global.counter("t.worker_count") - global_before;
  for (const auto& th : obs::snapshot().threads) {
    bool has_submit = false;
    bool has_inner = false;
    for (const auto& ev : th.events) {
      if (ev.type != obs::EventType::kBegin) continue;
      if (ev.name == "t.submit") {
        has_submit = true;
      } else if (ev.name == "exec.task") {
        ++out.task_begins;
        out.task_id = ev.span_id;
        out.task_parent = ev.parent_id;
        out.task_side_flows.push_back(ev.flow);
      } else if (ev.name == "t.worker_inner") {
        has_inner = true;
        out.inner_parent = ev.parent_id;
        out.task_side_flows.push_back(ev.flow);
      }
    }
    if (has_submit && has_inner) out.inner_on_submitter_thread = true;
  }
  return out;
}

/// Flow and sink attribution hold on every pool: each task-side begin
/// carries the submitter's flow, and the task's counter lands in the
/// submitter's sink, never in the global registry.
void expect_submitter_attribution(const PropagationTrace& t,
                                  size_t task_side_begins) {
  ASSERT_NE(t.flow, 0u);
  EXPECT_EQ(t.task_side_flows.size(), task_side_begins);
  for (uint32_t f : t.task_side_flows) EXPECT_EQ(f, t.flow);
  EXPECT_DOUBLE_EQ(t.sink_count, 1.0);
  EXPECT_DOUBLE_EQ(t.global_delta, 0.0);
}

TEST(ObsTrace, ContextPropagatesToSerialPool) {
  exec::ExecOptions opt;
  opt.num_threads = 1;
  exec::ThreadPool pool(opt);
  ASSERT_TRUE(pool.serial());
  const PropagationTrace t = run_propagation_case(pool);
  ASSERT_NE(t.submitter_id, 0u);
  // Serial pools run tasks inline: no exec.task wrapper span, and the
  // worker-side span parents directly under the submitting span.
  EXPECT_EQ(t.task_begins, 0);
  EXPECT_TRUE(t.inner_on_submitter_thread);
  EXPECT_EQ(t.inner_parent, t.submitter_id);
  expect_submitter_attribution(t, 1);
}

TEST(ObsTrace, ContextPropagatesAcrossPoolWorkers) {
  exec::ExecOptions opt;
  opt.num_threads = 4;
  exec::ThreadPool pool(opt);
  ASSERT_EQ(pool.num_workers(), 4);
  const PropagationTrace t = run_propagation_case(pool);
  ASSERT_NE(t.submitter_id, 0u);
  // The task body ran on a worker thread, wrapped in an exec.task span that
  // parents to the submitting span; the inner span parents to the wrapper.
  // That chain is what keeps worker-side spans attached to the submitting
  // task in the exported trace.
  EXPECT_FALSE(t.inner_on_submitter_thread);
  EXPECT_EQ(t.task_begins, 1);
  EXPECT_EQ(t.task_parent, t.submitter_id);
  EXPECT_EQ(t.inner_parent, t.task_id);
  expect_submitter_attribution(t, 2);
}

TEST(ObsExport, SummarizeSpansComputesSelfTime) {
  obs::reset();
  obs::ScopedTraceEnable window;
  {
    obs::Span outer("t.sum_outer");
    obs::Span inner("t.sum_inner");
  }
  const auto spans = obs::summarize_spans(obs::snapshot());
  const auto find = [&](const char* name) -> const obs::SpanSummary* {
    for (const auto& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const obs::SpanSummary* outer = find("t.sum_outer");
  const obs::SpanSummary* inner = find("t.sum_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 1);
  EXPECT_GE(outer->total_ms, inner->total_ms);
  // Self time excludes the nested child span.
  EXPECT_NEAR(outer->self_ms, outer->total_ms - inner->total_ms, 1e-9);
  // Canonical order: sorted by name.
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(ObsExport, ChromeTraceValidatesAndNamesEveryTrack) {
  obs::reset();
  obs::ScopedTraceEnable window;
  obs::set_thread_name("test_main");
  const uint32_t flow_id = obs::register_flow("test_flow");
  {
    obs::Context ctx = obs::context();
    ctx.flow = flow_id;
    const obs::ScopedContext attribution(ctx);
    obs::Span span("t.export");
    obs::emit_counter("t.gauge", 7.0);
    obs::emit_instant("t.mark");
  }
  const std::string text = obs::chrome_trace_string(obs::snapshot());
  util::json::Value doc;
  std::string err;
  ASSERT_TRUE(util::json::parse(text, &doc, &err)) << err;
  EXPECT_TRUE(obs::validate_chrome_trace(doc, &err)) << err;
  // The flow's events export under its own pid, named in the metadata.
  const util::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_flow_name = false;
  for (const auto& ev : events->items()) {
    if (ev.string_or("ph", "") == "M" &&
        ev.string_or("name", "") == "process_name") {
      const util::json::Value* args = ev.find("args");
      if (args != nullptr && args->string_or("name", "") == "test_flow") {
        found_flow_name = true;
        EXPECT_EQ(static_cast<uint32_t>(ev.number_or("pid", 0)), flow_id + 1);
      }
    }
  }
  EXPECT_TRUE(found_flow_name);
}

TEST(ObsExport, ValidatorRejectsMalformedTraces) {
  using util::json::Value;
  std::string err;
  // No traceEvents at all.
  EXPECT_FALSE(obs::validate_chrome_trace(Value::object(), &err));

  auto meta = [](int pid, int tid, const char* what, const char* name) {
    Value m = Value::object();
    m.set("ph", Value::str("M"));
    m.set("pid", Value::number(pid));
    m.set("tid", Value::number(tid));
    m.set("name", Value::str(what));
    Value args = Value::object();
    args.set("name", Value::str(name));
    m.set("args", std::move(args));
    return m;
  };
  auto ev = [](const char* ph, int pid, int tid, double ts) {
    Value e = Value::object();
    e.set("ph", Value::str(ph));
    e.set("pid", Value::number(pid));
    e.set("tid", Value::number(tid));
    e.set("ts", Value::number(ts));
    e.set("name", Value::str("x"));
    return e;
  };
  auto doc_of = [](Value events) {
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    return doc;
  };

  // Unbalanced: B without E.
  Value unbalanced = Value::array();
  unbalanced.push(meta(1, 0, "process_name", "p"));
  unbalanced.push(meta(1, 0, "thread_name", "t"));
  unbalanced.push(ev("B", 1, 0, 1.0));
  EXPECT_FALSE(obs::validate_chrome_trace(doc_of(std::move(unbalanced)), &err));
  EXPECT_NE(err.find("unclosed"), std::string::npos) << err;

  // Non-monotonic timestamps on one tid.
  Value backwards = Value::array();
  backwards.push(meta(1, 0, "process_name", "p"));
  backwards.push(meta(1, 0, "thread_name", "t"));
  backwards.push(ev("B", 1, 0, 5.0));
  backwards.push(ev("E", 1, 0, 2.0));
  EXPECT_FALSE(obs::validate_chrome_trace(doc_of(std::move(backwards)), &err));
  EXPECT_NE(err.find("monotonic"), std::string::npos) << err;

  // Missing thread_name metadata for a used track.
  Value unnamed = Value::array();
  unnamed.push(meta(1, 0, "process_name", "p"));
  unnamed.push(ev("B", 1, 0, 1.0));
  unnamed.push(ev("E", 1, 0, 2.0));
  EXPECT_FALSE(obs::validate_chrome_trace(doc_of(std::move(unnamed)), &err));
  EXPECT_NE(err.find("thread_name"), std::string::npos) << err;
}

TEST(ObsFlow, TracedFlowProducesValidTraceAndV3Report) {
  obs::reset();
  flow::FlowOptions o = small_opts();
  o.trace = true;
  const flow::FlowResult r = flow::run_flow(o);
  EXPECT_TRUE(r.trace_enabled);

  // The exported trace validates and carries stage memory counter samples.
  const obs::Snapshot snap = obs::snapshot();
  const std::string text = obs::chrome_trace_string(snap);
  util::json::Value doc;
  std::string err;
  ASSERT_TRUE(util::json::parse(text, &doc, &err)) << err;
  EXPECT_TRUE(obs::validate_chrome_trace(doc, &err)) << err;
  const auto evs = all_events(snap);
  EXPECT_GT(count_type(evs, obs::EventType::kCounter, "mem.rss_mb"), 0);
  EXPECT_GT(count_type(evs, obs::EventType::kCounter, "mem.hwm_mb"), 0);

  // Stage memory profile is populated (procfs available on test machines).
  const flow::StageReport* route = r.stage("route");
  ASSERT_NE(route, nullptr);
  EXPECT_GT(route->rss_mb, 0.0);
  EXPECT_GE(route->hwm_mb, route->rss_mb);

  // The run report upgrades to v3 with the span-summary trace block.
  const util::json::Value rep = report::to_json(r);
  EXPECT_EQ(rep.string_or("schema", ""), "m3d.run_report/v3");
  const util::json::Value* trace = rep.find("trace");
  ASSERT_NE(trace, nullptr);
  const util::json::Value* spans = trace->find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_FALSE(spans->items().empty());
  // The flow's own spans are attributed to it (not the process timeline).
  ASSERT_FALSE(r.trace_spans.empty());
  bool has_route_span = false;
  for (const auto& s : r.trace_spans) {
    if (s.name == "flow.route") has_route_span = true;
  }
  EXPECT_TRUE(has_route_span);
}

TEST(ObsFlow, UntracedFlowStaysOnV2SchemaWithNoTraceArtifacts) {
  obs::reset();
  const flow::FlowResult r = flow::run_flow(small_opts());
  EXPECT_FALSE(r.trace_enabled);
  EXPECT_TRUE(r.trace_spans.empty());
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.events_recorded, 0u) << "tracing off must record nothing";
  const util::json::Value rep = report::to_canonical_json(r);
  EXPECT_EQ(rep.string_or("schema", ""), "m3d.run_report/v2");
  EXPECT_EQ(rep.find("trace"), nullptr);
  // Stage entries carry no mem key either — byte-identical v2 documents.
  const util::json::Value* stages = rep.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const auto& s : stages->items()) {
    EXPECT_EQ(s.find("mem"), nullptr);
  }
}

TEST(ObsMem, CountingAllocatorAndRssSampling) {
  const uint64_t bytes0 = obs::allocated_bytes();
  const uint64_t calls0 = obs::allocation_calls();
  {
    obs::vector<double> v;
    v.resize(1024);
    EXPECT_GE(obs::allocated_bytes() - bytes0, 1024 * sizeof(double));
    EXPECT_GE(obs::allocation_calls() - calls0, 1u);
  }
  const obs::MemSample mem = obs::sample_rss();
  EXPECT_GT(mem.rss_mb, 0.0) << "procfs RSS sampling";
  EXPECT_GE(mem.hwm_mb, mem.rss_mb);
}

TEST(ObsExport, TraceFilenameSanitizes) {
  EXPECT_EQ(obs::trace_filename("FPU", "T-MI"), "trace_FPU_T-MI.json");
  EXPECT_EQ(obs::trace_filename("a b", "x/y"), "trace_a_b_x_y.json");
}

}  // namespace
}  // namespace m3d
