#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "flow/report.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace m3d {
namespace {

using util::MetricsRegistry;

// The registry is process-global; each test works under its own unique name
// prefix (or resets) so tests stay independent of ordering.

TEST(Metrics, CountersAccumulate) {
  auto& reg = MetricsRegistry::global();
  reg.add_counter("t.counter_a");
  reg.add_counter("t.counter_a", 2.5);
  EXPECT_DOUBLE_EQ(reg.counter("t.counter_a"), 3.5);
  EXPECT_DOUBLE_EQ(reg.counter("t.never_touched"), 0.0);
}

TEST(Metrics, GaugesHoldLastValue) {
  auto& reg = MetricsRegistry::global();
  reg.set_gauge("t.gauge", 1.0);
  reg.set_gauge("t.gauge", 42.0);
  EXPECT_DOUBLE_EQ(reg.gauge("t.gauge"), 42.0);
}

TEST(Metrics, HistogramStats) {
  auto& reg = MetricsRegistry::global();
  for (int i = 1; i <= 100; ++i) {
    reg.observe("t.hist", static_cast<double>(i));
  }
  const util::HistStats h = reg.histogram("t.hist");
  EXPECT_EQ(h.count, 100);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.total, 5050.0);
}

TEST(Metrics, HistogramSingleSample) {
  auto& reg = MetricsRegistry::global();
  reg.observe("t.hist_one", 7.0);
  const util::HistStats h = reg.histogram("t.hist_one");
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.min, 7.0);
  EXPECT_DOUBLE_EQ(h.max, 7.0);
  EXPECT_DOUBLE_EQ(h.total, 7.0);
  EXPECT_EQ(reg.histogram("t.hist_absent").count, 0);
}

// The three tests below keep the names they had when histograms switched
// from an exact sample list to log buckets after 4096 samples. Histograms
// are now one count/total/min/max record; the tests check that it stays
// exact and deterministic across and far past that old switchover.

TEST(Metrics, HistogramExactUpToSwitchoverThenBucketed) {
  auto& reg = MetricsRegistry::global();
  const int n = 4096;  // the old exact-sample cap
  for (int i = 1; i <= n; ++i) {
    reg.observe("t.hist_switch", static_cast<double>(i));
  }
  util::HistStats h = reg.histogram("t.hist_switch");
  EXPECT_EQ(h.count, n);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(h.total, 0.5 * n * (n + 1));

  // One more sample past the old cap: every field stays exact.
  reg.observe("t.hist_switch", static_cast<double>(n + 1));
  h = reg.histogram("t.hist_switch");
  EXPECT_EQ(h.count, n + 1);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(n + 1));
  EXPECT_DOUBLE_EQ(h.total, 0.5 * (n + 1) * (n + 2));
}

TEST(Metrics, BucketedHistogramBoundsMemoryDeterministically) {
  // Two registries fed the same 50k samples agree bitwise on every field,
  // and each field is exact: the record is a pure function of the samples.
  MetricsRegistry a;
  MetricsRegistry b;
  double total = 0.0;
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < 50000; ++i) {
    const double v = 0.001 * ((i * 7919) % 100000 + 1);
    a.observe("t.big", v);
    b.observe("t.big", v);
    total += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const util::HistStats ha = a.histogram("t.big");
  const util::HistStats hb = b.histogram("t.big");
  EXPECT_EQ(ha.count, 50000);
  EXPECT_EQ(ha.count, hb.count);
  EXPECT_EQ(ha.total, hb.total);
  EXPECT_EQ(ha.min, hb.min);
  EXPECT_EQ(ha.max, hb.max);
  EXPECT_EQ(ha.total, total);
  EXPECT_EQ(ha.min, lo);
  EXPECT_EQ(ha.max, hi);
}

TEST(Metrics, MergePreservesExactnessUnderCapOnly) {
  // Under the old cap: merging adds counts and totals and widens min/max.
  MetricsRegistry small1;
  MetricsRegistry small2;
  for (int i = 1; i <= 100; ++i) {
    small1.observe("t.merge", static_cast<double>(i));
    small2.observe("t.merge", static_cast<double>(100 + i));
  }
  small1.merge_from(small2);
  util::HistStats h = small1.histogram("t.merge");
  EXPECT_EQ(h.count, 200);
  EXPECT_DOUBLE_EQ(h.total, 0.5 * 200 * 201);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 200.0);

  // Merging past the old cap: count/total/min/max stay exact.
  MetricsRegistry big;
  for (int i = 0; i < 5000; ++i) big.observe("t.merge", 1.0);
  small1.merge_from(big);
  h = small1.histogram("t.merge");
  EXPECT_EQ(h.count, 5200);
  EXPECT_DOUBLE_EQ(h.total, 0.5 * 200 * 201 + 5000.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 200.0);

  // Merging into an empty registry copies the record; an empty source
  // changes nothing.
  MetricsRegistry empty;
  empty.merge_from(small2);
  EXPECT_EQ(empty.histogram("t.merge").count, 100);
  EXPECT_DOUBLE_EQ(empty.histogram("t.merge").min, 101.0);
  small1.merge_from(MetricsRegistry{});
  EXPECT_EQ(small1.histogram("t.merge").count, 5200);
}

TEST(Metrics, ThreadSafeCounting) {
  auto& reg = MetricsRegistry::global();
  constexpr int kThreads = 8, kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) reg.add_counter("t.mt");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(reg.counter("t.mt"), kThreads * kPerThread);
}

TEST(Trace, SpansNestAndRecord) {
  EXPECT_EQ(obs::context().depth, 0);
  {
    obs::Span outer("test.outer");
    EXPECT_EQ(obs::context().depth, 1);
    {
      obs::Span inner("test.inner");
      EXPECT_EQ(obs::context().depth, 2);
    }
    EXPECT_EQ(obs::context().depth, 1);
  }
  EXPECT_EQ(obs::context().depth, 0);
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.histogram("span.test.outer").count, 1);
  EXPECT_EQ(reg.histogram("span.test.inner").count, 1);
  EXPECT_GE(reg.histogram("span.test.outer").min, 0.0);
}

TEST(Trace, StopIsIdempotentAndEndsTheSpan) {
  obs::Span t("test.stop");
  const double ms = t.stop();
  EXPECT_GE(ms, 0.0);
  EXPECT_EQ(obs::context().depth, 0);
  EXPECT_DOUBLE_EQ(t.stop(), 0.0);  // second stop: no-op
  EXPECT_EQ(MetricsRegistry::global().histogram("span.test.stop").count, 1);
}

TEST(Log, ParsesLevelNames) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("INFO"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("Warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("silent"), util::LogLevel::kSilent);
  EXPECT_FALSE(util::parse_log_level("verbose").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
}

TEST(Json, RoundTripsValues) {
  using util::json::Value;
  Value doc = Value::object();
  doc.set("name", Value::str("AES \"quoted\"\n"));
  doc.set("count", Value::number(42.0));
  doc.set("ratio", Value::number(0.625));
  doc.set("ok", Value::boolean(true));
  Value arr = Value::array();
  arr.push(Value::number(1.0)).push(Value::str("two")).push(Value::null());
  doc.set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    Value back;
    std::string err;
    ASSERT_TRUE(util::json::parse(doc.dump(indent), &back, &err)) << err;
    EXPECT_EQ(back.string_or("name", ""), "AES \"quoted\"\n");
    EXPECT_DOUBLE_EQ(back.number_or("count", 0.0), 42.0);
    EXPECT_DOUBLE_EQ(back.number_or("ratio", 0.0), 0.625);
    ASSERT_NE(back.find("ok"), nullptr);
    EXPECT_TRUE(back.find("ok")->as_bool());
    ASSERT_NE(back.find("items"), nullptr);
    ASSERT_EQ(back.find("items")->items().size(), 3u);
    EXPECT_EQ(back.find("items")->items()[1].as_string(), "two");
  }
}

TEST(Json, RejectsMalformedInput) {
  util::json::Value v;
  std::string err;
  EXPECT_FALSE(util::json::parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(util::json::parse("[1, 2", &v, &err));
  EXPECT_FALSE(util::json::parse("{} trailing", &v, &err));
  EXPECT_FALSE(util::json::parse("\"open", &v, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Report, FlowResultJsonRoundTrip) {
  flow::FlowResult r;
  r.bench_name = "AES";
  r.style = tech::Style::kTMI;
  r.clock_ns = 1.25;
  r.total_uw = 123.5;
  r.timing_met = true;
  flow::StageReport synth{"synth", 12.5, {{"synth.cells", 1000.0}}};
  flow::StageReport route{"route", 80.0,
                          {{"route.twopins", 2500.0}, {"route.rrr_iters", 3.0}}};
  r.stages = {synth, route};

  const std::string text = report::to_json_string(r);
  util::json::Value doc;
  std::string err;
  ASSERT_TRUE(util::json::parse(text, &doc, &err)) << err;
  EXPECT_EQ(doc.string_or("schema", ""), "m3d.run_report/v2");
  EXPECT_EQ(doc.string_or("bench", ""), "AES");
  EXPECT_EQ(doc.string_or("style", ""), "T-MI");
  EXPECT_DOUBLE_EQ(doc.number_or("clock_ns", 0.0), 1.25);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("metrics")->number_or("total_uw", 0.0), 123.5);

  std::vector<flow::StageReport> stages;
  ASSERT_TRUE(report::parse_stages(text, &stages, &err)) << err;
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "synth");
  EXPECT_DOUBLE_EQ(stages[0].wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(stages[0].counter("synth.cells"), 1000.0);
  EXPECT_EQ(stages[1].name, "route");
  EXPECT_DOUBLE_EQ(stages[1].counter("route.rrr_iters"), 3.0);
  EXPECT_DOUBLE_EQ(stages[1].counter("not.there"), 0.0);
}

TEST(Report, MetricsSnapshotSerializes) {
  auto& reg = MetricsRegistry::global();
  reg.add_counter("t.report_counter", 5.0);
  reg.observe("t.report_hist", 2.0);
  reg.observe("t.report_hist", 4.0);
  const util::json::Value doc = report::metrics_to_json();
  EXPECT_EQ(doc.string_or("schema", ""), "m3d.metrics/v2");
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("counters")->number_or("t.report_counter", 0.0),
                   5.0);
  const util::json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const util::json::Value* h = hists->find("t.report_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->number_or("count", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(h->number_or("mean", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(h->number_or("min", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(h->number_or("max", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(h->number_or("total", 0.0), 6.0);
  EXPECT_EQ(h->find("p95"), nullptr);
  EXPECT_EQ(h->find("approximate"), nullptr);
  // Round-trip through the writer/parser too.
  util::json::Value back;
  std::string err;
  ASSERT_TRUE(util::json::parse(doc.dump(), &back, &err)) << err;
  EXPECT_DOUBLE_EQ(back.find("counters")->number_or("t.report_counter", 0.0),
                   5.0);
}

TEST(Report, FilenameSanitizesStyleNames) {
  EXPECT_EQ(report::report_filename("AES", "2D"), "run_AES_2D.json");
  EXPECT_EQ(report::report_filename("AES", "T-MI"), "run_AES_T-MI.json");
  EXPECT_EQ(report::report_filename("M256", "T-MI+M"), "run_M256_T-MI_M.json");
  EXPECT_EQ(report::report_filename("a/b", "x y"), "run_a_b_x_y.json");
}

TEST(Flow, ComparePctGuardsZeroBaseline) {
  const flow::CompareResult c;
  EXPECT_DOUBLE_EQ(c.pct(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(c.pct(1.0, 0.0)));
  EXPECT_GT(c.pct(1.0, 0.0), 0.0);
  EXPECT_LT(c.pct(-1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.pct(50.0, 100.0), -50.0);
}

}  // namespace
}  // namespace m3d
