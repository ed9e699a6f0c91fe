#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "obs/trace.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::exec {
namespace {

// Exec's own bookkeeping goes straight to the global registry, bypassing
// MetricsRegistry::current(): task/steal counts differ between serial and
// parallel runs, and routing them through a flow-local sink would leak that
// difference into StageReport counter deltas — breaking the bit-identical
// report guarantee.
void exec_count(const std::string& name, double delta = 1.0) {
  util::MetricsRegistry::global().add_counter(name, delta);
}

int env_threads() {
  const char* s = std::getenv("M3D_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  const int n = std::atoi(s);
  return n > 0 ? n : 0;
}

}  // namespace

int resolve_num_threads(const ExecOptions& opt) {
  int n = opt.num_threads;
  if (n <= 0) n = env_threads();
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n);
}

ThreadPool::ThreadPool(const ExecOptions& opt)
    : opt_(opt),
      queue_depth_gauge_(util::strf("exec.%s.queue_depth", opt_.name.c_str())) {
  const int n = resolve_num_threads(opt_);
  if (n <= 1) return;  // serial fallback: no workers, submit runs inline
  local_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) local_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

namespace {
// Which worker of which pool the current thread is; -1 on non-pool threads.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;
}  // namespace

void ThreadPool::submit(std::function<void()> fn) {
  exec_count("exec.tasks");
  if (serial()) {
    fn();
    return;
  }
  if (obs::enabled()) obs::emit_instant("exec.enqueue");
  // Wrap so the task runs under the submitter's context (span nesting,
  // trace parent, flow and metrics sink) regardless of which worker picks
  // it up. While tracing, the task gets its own exec.task span: parented to
  // the submitter's innermost span, and itself the parent of every span the
  // task body opens — the link that keeps worker-side timelines attached to
  // the submitting flow. The guard emits the end even if fn() throws
  // (TaskGroup carries the exception), keeping the trace balanced.
  auto task = [ctx = obs::context(), fn = std::move(fn)] {
    const uint64_t span = obs::enabled() ? obs::next_span_id() : 0;
    obs::Context task_ctx = ctx;
    if (span != 0) task_ctx.span_id = span;
    const obs::ScopedContext scope(task_ctx);
    if (span == 0) {
      fn();
      return;
    }
    obs::emit_begin("exec.task", span, ctx.span_id);
    struct EndGuard {
      uint64_t id;
      ~EndGuard() { obs::emit_end(id); }
    } guard{span};
    fn();
  };
  size_t depth = 0;
  if (t_pool == this && t_worker >= 0) {
    WorkerQueue& wq = *local_[static_cast<size_t>(t_worker)];
    std::lock_guard<std::mutex> lock(wq.mu);
    wq.q.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(global_.mu);
    global_.q.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    depth = ++queued_;
  }
  util::MetricsRegistry::global().set_gauge(queue_depth_gauge_,
                                            static_cast<double>(depth));
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_task(int worker_index, std::function<void()>* out) {
  if (worker_index >= 0) {
    // Own deque, newest first: keeps the hot chunk cache-resident.
    WorkerQueue& wq = *local_[static_cast<size_t>(worker_index)];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (!wq.q.empty()) {
      *out = std::move(wq.q.back());
      wq.q.pop_back();
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(global_.mu);
    if (!global_.q.empty()) {
      *out = std::move(global_.q.front());
      global_.q.pop_front();
      return true;
    }
  }
  // Steal oldest-first from the other workers.
  const size_t nq = local_.size();
  const size_t start =
      worker_index >= 0 ? static_cast<size_t>(worker_index) + 1 : 0;
  for (size_t k = 0; k < nq; ++k) {
    const size_t v = (start + k) % nq;
    if (worker_index >= 0 && v == static_cast<size_t>(worker_index)) continue;
    WorkerQueue& wq = *local_[v];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (!wq.q.empty()) {
      *out = std::move(wq.q.front());
      wq.q.pop_front();
      exec_count("exec.steals");
      if (obs::enabled()) obs::emit_instant("exec.steal");
      return true;
    }
  }
  return false;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  const int wi = t_pool == this ? t_worker : -1;
  if (!pop_task(wi, &task)) return false;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    --queued_;
  }
  task();
  return true;
}

void ThreadPool::worker_main(int index) {
  t_pool = this;
  t_worker = index;
  obs::set_thread_name(util::strf("%s/worker%d", opt_.name.c_str(), index));
  for (;;) {
    if (try_run_one()) continue;
    // Idle windows are emitted as complete ("X") events after the wait, not
    // begin/end pairs around it: a worker parked on the condition variable
    // at snapshot time must not leave an unbalanced begin in its buffer.
    const bool traced = obs::enabled();
    const uint64_t idle_start = traced ? obs::timestamp_ns() : 0;
    bool exiting;
    {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      ++idle_;
      sleep_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      --idle_;
      exiting = stop_ && queued_ == 0;
    }
    if (traced && obs::enabled()) obs::emit_complete("exec.idle", idle_start);
    if (exiting) return;
  }
}

void ThreadPool::parallel_for(size_t n, size_t grain,
                              const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  const size_t g = chunk_grain(n, grain);
  const size_t nchunks = (n + g - 1) / g;
  // At most one helper per worker parked right now: on a saturated pool no
  // worker could start a task sooner than the caller runs the chunk itself.
  const size_t helpers =
      serial() ? 0 : std::min(nchunks - 1, static_cast<size_t>(idle_workers()));
  if (helpers == 0) {
    // Same chunk boundaries as the shared path (callers must not depend on
    // them anyway), but no task machinery.
    for (size_t b = 0; b < n; b += g) body(b, std::min(n, b + g));
    return;
  }
  // The caller and the helpers claim chunk indices from one counter, so
  // chunks balance across whoever is running.
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t c = next++; c < nchunks; c = next++) {
      body(c * g, std::min(n, (c + 1) * g));
    }
  };
  // Declared after `next` and `drain`: if the caller's chunk throws, the
  // group's destructor joins the helpers before what they reference unwinds.
  TaskGroup group(*this);
  for (size_t h = 0; h < helpers; ++h) group.run(drain);
  drain();
  group.wait();
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // The destructor must not throw; callers that care call wait().
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->pending;
  }
  pool_.submit([state = state_, fn = std::move(fn)] {
    std::exception_ptr err;
    try {
      fn();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (err && !state->error) state->error = err;
    if (--state->pending == 0) state->cv.notify_all();
  });
}

void TaskGroup::wait() {
  // Help execute pool work while waiting: a task that itself runs a
  // parallel_for can block in this wait, and draining the queues here is
  // what keeps nested parallelism deadlock-free.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->pending == 0) break;
    }
    if (pool_.try_run_one()) continue;
    std::unique_lock<std::mutex> lock(state_->mu);
    if (state_->pending == 0) break;
    // Timed wait: our group's last task may be running on a worker, but new
    // pool work could also arrive that we should help with.
    state_->cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    err = state_->error;
    state_->error = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

namespace {
std::mutex g_default_mu;
// m3d-lint: allow(L005) every access below takes g_default_mu first
std::unique_ptr<ThreadPool> g_default_pool;
}  // namespace

ThreadPool& default_pool() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (!g_default_pool) g_default_pool = std::make_unique<ThreadPool>();
  return *g_default_pool;
}

void set_default_threads(int n) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  g_default_pool.reset();  // join old workers before spawning the new pool
  ExecOptions opt;
  opt.num_threads = n;
  g_default_pool = std::make_unique<ThreadPool>(opt);
}

size_t chunk_grain(size_t n, size_t grain) {
  if (grain > 0) return grain;
  return std::max<size_t>(1, (n + 63) / 64);
}

}  // namespace m3d::exec
