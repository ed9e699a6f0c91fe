// Deterministic parallel execution: a work-stealing thread pool with a
// task-graph API used by characterization, the flow harness, STA and the
// router. The design contract is that a parallel run is *bit-identical* to
// the serial run:
//
//  * `parallel_for` uses static chunking whose boundaries depend only on
//    (n, grain) — never on the thread count — so per-chunk work and
//    chunk-ordered reductions (`parallel_reduce`) reproduce on any pool.
//    Which thread runs a chunk is dynamic: the caller claims chunk indices
//    from a shared counter, helped by at most one task per worker that is
//    idle at the call (lazy splitting: none on a saturated pool).
//  * Callers only parallelize bodies whose writes are disjoint per index
//    (or reduce through `parallel_reduce`, which folds partials in chunk
//    order), so execution interleaving cannot change results.
//  * Tasks inherit the submitting thread's obs::Context (obs/trace.hpp):
//    span nesting, trace parent, trace flow and metrics sink, so reports
//    and traces attribute worker-side work to the task that spawned it.
//
// Thread count: `ExecOptions::num_threads`, else the `M3D_THREADS`
// environment variable, else `hardware_concurrency()`. One (or fewer)
// thread means serial fallback: submitted work runs inline on the calling
// thread and no workers are spawned.
//
// Observability (always in the *global* registry, never the flow-local
// sink, so StageReport counter deltas stay identical between serial and
// parallel runs): `exec.tasks`, `exec.steals`, and a per-pool
// `exec.<name>.queue_depth` gauge. When trace collection is on
// (src/obs/trace.hpp) the pool additionally emits timeline events:
// an `exec.enqueue` instant at submit, one `exec.task` span per executed
// task (for `parallel_for`, one per helper, not per chunk; parented to the
// submitter's span, so flow timelines follow work across threads), an
// `exec.steal` instant on every cross-worker steal, and an `exec.idle`
// complete-event per worker sleep window. Workers
// register named trace tracks ("<pool>/worker<i>").
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace m3d::exec {

struct ExecOptions {
  /// Worker threads. 0: resolve from $M3D_THREADS, falling back to
  /// hardware_concurrency(). 1 (or a resolved 1): serial fallback.
  int num_threads = 0;
  /// Names the pool's queue-depth gauge: exec.<name>.queue_depth.
  std::string name = "default";
};

/// The worker count `opt` resolves to (>= 1; 1 means serial).
int resolve_num_threads(const ExecOptions& opt = {});

class ThreadPool {
 public:
  explicit ThreadPool(const ExecOptions& opt = {});
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker thread count; 0 in serial fallback.
  int num_workers() const { return static_cast<int>(workers_.size()); }
  bool serial() const { return workers_.empty(); }

  /// Workers parked waiting for work at this instant (a snapshot).
  int idle_workers() const { return idle_.load(); }

  /// Submits one task. The task captures the submitter's obs::Context; on
  /// a serial pool it runs inline before submit returns.
  void submit(std::function<void()> fn);

  /// Runs one pending task on the calling thread, if any is immediately
  /// available (own deque for workers, else global queue / stealing).
  /// Returns false when nothing was run.
  bool try_run_one();

  /// Splits [0, n) into chunks of `grain` indices (0: see chunk_grain) and
  /// runs `body(begin, end)` per chunk, blocking until all complete. The
  /// caller runs chunks itself, claiming them from a shared counter, and
  /// submits min(chunks - 1, idle_workers()) helper tasks that claim from
  /// the same counter; with no idle worker the loop runs inline and creates
  /// no task. Body results must not depend on how [0, n) is partitioned or
  /// which thread runs a chunk: writes disjoint per index, reductions via
  /// parallel_reduce. An exception a chunk throws propagates out of
  /// parallel_for once every helper has finished.
  void parallel_for(size_t n, size_t grain,
                    const std::function<void(size_t, size_t)>& body);

 private:
  friend class TaskGroup;

  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  void worker_main(int index);
  /// Pops a task: own deque back (LIFO) for workers, then the global queue
  /// front, then steals another worker's front (FIFO).
  bool pop_task(int worker_index, std::function<void()>* out);

  ExecOptions opt_;
  std::vector<std::unique_ptr<WorkerQueue>> local_;
  WorkerQueue global_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  bool stop_ = false;          // guarded by sleep_mu_
  size_t queued_ = 0;          // guarded by sleep_mu_
  // Workers parked on sleep_cv_. Written under sleep_mu_; parallel_for
  // reads it without the lock to size its helpers.
  std::atomic<int> idle_{0};
  std::string queue_depth_gauge_;  // exec.<name>.queue_depth
  std::vector<std::thread> workers_;
};

/// Structured fan-out: run() submits, wait() blocks (helping execute pool
/// work) until every task of this group finished, then rethrows the first
/// task exception, if any. The destructor waits but swallows errors.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> fn);
  void wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    std::exception_ptr error;
  };
  ThreadPool& pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// The process-wide pool, created on first use from ExecOptions{} (i.e.
/// $M3D_THREADS or hardware_concurrency).
ThreadPool& default_pool();

/// Replaces the process-wide pool with an `n`-thread one (n <= 0: re-resolve
/// from the environment). Tests and benches only — not safe while tasks are
/// in flight.
void set_default_threads(int n);

/// Chunk size for `n` items: `grain` if positive, else ceil(n / 64) — a
/// function of n only, never of the thread count, so chunk boundaries (and
/// with them chunk-ordered reductions) are identical on every pool size.
size_t chunk_grain(size_t n, size_t grain);

/// parallel_for on the default pool.
inline void parallel_for(size_t n,
                         const std::function<void(size_t, size_t)>& body,
                         size_t grain = 0) {
  default_pool().parallel_for(n, grain, body);
}

/// Deterministic map-reduce: `chunk_fn(begin, end)` produces one partial per
/// static chunk; partials fold left-to-right in chunk order, so the result
/// is bit-identical across thread counts (including serial, which uses the
/// same chunking).
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(ThreadPool& pool, size_t n, T init, ChunkFn chunk_fn,
                  Combine combine, size_t grain = 0) {
  if (n == 0) return init;
  const size_t g = chunk_grain(n, grain);
  const size_t nchunks = (n + g - 1) / g;
  std::vector<T> parts(nchunks, init);
  pool.parallel_for(nchunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      parts[c] = chunk_fn(c * g, std::min(n, (c + 1) * g));
    }
  });
  T acc = init;
  for (const T& p : parts) acc = combine(acc, p);
  return acc;
}

template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(size_t n, T init, ChunkFn chunk_fn, Combine combine,
                  size_t grain = 0) {
  return parallel_reduce(default_pool(), n, init, std::move(chunk_fn),
                         std::move(combine), grain);
}

}  // namespace m3d::exec
