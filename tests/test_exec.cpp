// The exec subsystem's contract: work actually runs (and runs inline on a
// serial pool), exceptions surface at wait(), and — the load-bearing
// guarantee — results are bit-identical at every thread count, including
// the full iso-comparison flow.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "gen/gen.hpp"
#include "obs/trace.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/tech.hpp"
#include "util/metrics.hpp"
#include "test_fixtures.hpp"

namespace m3d::exec {
namespace {

ExecOptions threads(int n) {
  ExecOptions o;
  o.num_threads = n;
  o.name = "test";
  return o;
}

TEST(Exec, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(threads(4));
  const size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 0, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Exec, SerialPoolRunsSubmittedWorkInline) {
  ThreadPool pool(threads(1));
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.num_workers(), 0);
  const auto main_id = std::this_thread::get_id();
  bool ran = false;
  pool.submit([&] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), main_id);
  });
  EXPECT_TRUE(ran);  // no wait needed: serial submit returns after running
}

TEST(Exec, ChunkGrainDependsOnlyOnSizeAndGrain) {
  EXPECT_EQ(chunk_grain(100, 7), 7u);
  EXPECT_EQ(chunk_grain(10, 0), 1u);
  EXPECT_EQ(chunk_grain(64, 0), 1u);
  EXPECT_EQ(chunk_grain(6400, 0), 100u);
  EXPECT_EQ(chunk_grain(6401, 0), 101u);
}

TEST(Exec, TaskGroupRethrowsFirstTaskExceptionAtWait) {
  ThreadPool pool(threads(4));
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

// The property the whole subsystem leans on: a parallel_reduce over doubles
// of wildly mixed magnitude — where float addition is NOT associative, so
// any reordering would change the bits — produces the exact same result at
// every pool size.
TEST(Exec, ReduceIsBitStableAcrossThreadCounts) {
  const size_t n = 4097;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i)) *
           std::pow(10.0, static_cast<double>(i % 21) - 10.0);
  }
  auto sum_with = [&](int nthreads) {
    ThreadPool pool(threads(nthreads));
    return parallel_reduce(
        pool, n, 0.0,
        [&](size_t b, size_t e) {
          double s = 0.0;
          for (size_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  for (int nthreads : {2, 4, 8}) {
    const double parallel = sum_with(nthreads);
    // Bitwise, not approximate: EXPECT_EQ on doubles is exact equality.
    EXPECT_EQ(serial, parallel) << "threads=" << nthreads;
  }
}

TEST(Exec, NestedParallelForCompletesWithoutDeadlock) {
  ThreadPool pool(threads(4));
  std::atomic<int> total{0};
  pool.parallel_for(8, 1, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      pool.parallel_for(16, 1, [&](size_t ib, size_t ie) {
        total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(Exec, WorkerSpansAdoptSubmitterSpanDepth) {
  ThreadPool pool(threads(4));
  std::atomic<int> seen_depth{-1};
  {
    const obs::Span span("test.exec.span_ctx");
    ASSERT_EQ(obs::context().depth, 1);
    pool.submit([&] { seen_depth = obs::context().depth; });
    // Poll without helping, so the task demonstrably runs on a pool worker.
    for (int spins = 0; seen_depth.load() < 0 && spins < 5000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(seen_depth.load(), 1);
}

TEST(Exec, WorkerMetricsLandInSubmitterSink) {
  ThreadPool pool(threads(4));
  util::MetricsRegistry local;
  const double global_before =
      util::MetricsRegistry::global().counter("test.exec.sunk");
  {
    const util::ScopedMetricsSink sink(local);
    TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) {
      group.run([] { util::count("test.exec.sunk"); });
    }
    group.wait();
  }
  EXPECT_DOUBLE_EQ(local.counter("test.exec.sunk"), 32.0);
  EXPECT_DOUBLE_EQ(util::MetricsRegistry::global().counter("test.exec.sunk"),
                   global_before);
}

TEST(Exec, PoolReportsTaskCounters) {
  const double before = util::MetricsRegistry::global().counter("exec.tasks");
  ThreadPool pool(threads(2));
  TaskGroup group(pool);
  for (int i = 0; i < 10; ++i) group.run([] {});
  group.wait();
  EXPECT_GE(util::MetricsRegistry::global().counter("exec.tasks"),
            before + 10.0);
}

// Spins (yielding, never sleeping) until every worker of `pool` is parked,
// so the next parallel_for deterministically sees idle workers to recruit.
void wait_until_all_idle(const ThreadPool& pool) {
  while (pool.idle_workers() < pool.num_workers()) std::this_thread::yield();
}

double exec_tasks() {
  return util::MetricsRegistry::global().counter("exec.tasks");
}

// parallel_for makes no task per chunk: it recruits at most one helper per
// parked worker, and none at all while every worker is busy.
TEST(Exec, ParallelForBoundsHelpersByIdleWorkers) {
  ThreadPool pool(threads(4));
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  auto count_hits = [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  };
  auto expect_each_index_once = [&] {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].exchange(0), 1) << "index " << i;
    }
  };

  // (a) Idle pool: 1,000 chunks, at most one helper task per worker.
  wait_until_all_idle(pool);
  double before = exec_tasks();
  pool.parallel_for(n, 1, count_hits);
  const double idle_tasks = exec_tasks() - before;
  EXPECT_GT(idle_tasks, 0.0);
  EXPECT_LE(idle_tasks, 4.0);
  expect_each_index_once();

  // (b) Saturated pool: every worker sits in a task blocked on `release`,
  // so the loop runs inline on the caller and submits nothing.
  std::latch entered(4);
  std::latch release(1);
  TaskGroup blockers(pool);
  for (int w = 0; w < 4; ++w) {
    blockers.run([&] {
      entered.count_down();
      release.wait();
    });
  }
  entered.wait();
  before = exec_tasks();
  pool.parallel_for(n, 1, count_hits);
  EXPECT_EQ(exec_tasks() - before, 0.0);
  release.count_down();
  blockers.wait();
  expect_each_index_once();
}

// A throwing chunk propagates out of parallel_for whether it ran on the
// caller or on a helper, and leaves the pool usable.
TEST(Exec, ParallelForPropagatesChunkExceptionsAndPoolStaysUsable) {
  const auto caller = std::this_thread::get_id();
  auto on_caller = [caller] { return std::this_thread::get_id() == caller; };
  for (int nthreads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(nthreads));
    ThreadPool pool(threads(nthreads));

    // Throw on the caller. Helpers hold their first chunk until the caller
    // has run one, so the caller is sure to claim a chunk.
    wait_until_all_idle(pool);
    std::atomic<bool> caller_ran{false};
    EXPECT_THROW(pool.parallel_for(1000, 1,
                                   [&](size_t, size_t) {
                                     if (on_caller()) {
                                       caller_ran = true;
                                       throw std::runtime_error("caller chunk");
                                     }
                                     while (!caller_ran) std::this_thread::yield();
                                   }),
                 std::runtime_error);

    // Throw on a helper: the caller's first chunk waits until a helper has
    // thrown. A serial pool has no helpers.
    if (!pool.serial()) {
      wait_until_all_idle(pool);
      std::atomic<bool> helper_threw{false};
      EXPECT_THROW(pool.parallel_for(1000, 1,
                                     [&](size_t, size_t) {
                                       if (!on_caller()) {
                                         helper_threw = true;
                                         throw std::runtime_error("helper chunk");
                                       }
                                       while (!helper_threw) std::this_thread::yield();
                                     }),
                   std::runtime_error);
    }

    // Still usable: an uneven split (the last chunk holds 4 of grain 7)
    // covers every index exactly once.
    wait_until_all_idle(pool);
    const size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 7, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

// The tentpole acceptance test: a full iso-comparison (two complete
// physical-design flows plus reruns) serializes to byte-identical canonical
// run reports on a serial pool and on a 4-thread pool.
TEST(Exec, IsoComparisonBitIdenticalSerialVsParallel) {
  const liberty::Library lib2d = test::make_test_library(tech::Style::k2D);
  const liberty::Library lib3d = test::make_test_library(tech::Style::kTMI);
  flow::FlowOptions o;
  o.bench = gen::Bench::kAes;
  o.scale_shift = 4;
  o.clock_ns = 2.0;  // fixed clock: exercises the speculative 2D∥T-MI path
  o.lib = &lib2d;

  auto run_reports = [&](int nthreads) {
    set_default_threads(nthreads);
    const flow::CompareResult c = flow::run_iso_comparison(o, lib2d, lib3d);
    return std::pair<std::string, std::string>(
        report::to_canonical_json_string(c.flat),
        report::to_canonical_json_string(c.tmi));
  };
  const auto serial = run_reports(1);
  const auto parallel = run_reports(4);
  set_default_threads(0);  // restore the environment-resolved pool

  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  // Sanity: the reports are real documents, not empty strings.
  EXPECT_NE(serial.first.find("\"schema\""), std::string::npos);
  EXPECT_NE(serial.first.find("\"stages\""), std::string::npos);
}

// The maze router's per-thread epoch-stamped scratch must not leak state
// between calls or threads: route a deliberately congested design (local
// capacity derated to force rip-up-and-reroute, so the parallel maze
// batches really run) serially and on a 4-thread pool, and require the
// routing results to be bitwise equal.
TEST(Exec, CongestedRouteBitIdenticalSerialVsParallel) {
  const liberty::Library lib = test::make_test_library();
  gen::GenOptions g;
  g.scale_shift = 4;
  circuit::Netlist nl = gen::make_des(g);
  nl.bind(lib);
  const place::Die die = place::make_die(&nl, 0.8, 1.4);
  place::place_design(&nl, die, {});
  const tech::Tech tch(tech::Node::k45nm, tech::Style::k2D);
  route::RouteOptions ro;
  ro.local_blockage_frac = 0.6;  // starve local tracks -> overflow -> mazes
  ro.rrr_iters = 3;

  auto route_with = [&](int nthreads) {
    set_default_threads(nthreads);
    return route::global_route(nl, die, tch, ro);
  };
  const route::RouteResult serial = route_with(1);
  const route::RouteResult parallel = route_with(4);
  set_default_threads(0);  // restore the environment-resolved pool

  // The reroutes must actually have happened for this test to mean much.
  ASSERT_GT(util::MetricsRegistry::global().counter("route.maze_calls"), 0.0);
  EXPECT_EQ(serial.total_wl_um, parallel.total_wl_um);
  EXPECT_EQ(serial.total_vias, parallel.total_vias);
  EXPECT_EQ(serial.overflow_edges, parallel.overflow_edges);
  EXPECT_EQ(serial.max_congestion, parallel.max_congestion);
  for (int l = 0; l < route::kNumLevels; ++l) {
    EXPECT_EQ(serial.wl_by_level[static_cast<size_t>(l)],
              parallel.wl_by_level[static_cast<size_t>(l)]);
    EXPECT_EQ(serial.usage_h[static_cast<size_t>(l)],
              parallel.usage_h[static_cast<size_t>(l)]);
    EXPECT_EQ(serial.usage_v[static_cast<size_t>(l)],
              parallel.usage_v[static_cast<size_t>(l)]);
  }
  ASSERT_EQ(serial.nets.size(), parallel.nets.size());
  for (size_t n = 0; n < serial.nets.size(); ++n) {
    EXPECT_EQ(serial.nets[n].wl_um, parallel.nets[n].wl_um) << "net " << n;
    EXPECT_EQ(serial.nets[n].vias, parallel.nets[n].vias) << "net " << n;
  }
}

}  // namespace
}  // namespace m3d::exec
