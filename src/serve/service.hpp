// Transport-independent serving core: admission control, request
// coalescing, per-request timeouts and the persistent response cache,
// executing validated Requests (serve/protocol.hpp) on the warm flow state
// (flow/warm.hpp). The socket server (serve/server.hpp) is a thin framing
// shell around one Service; unit tests drive Service directly.
//
// Request lifecycle (Service::run, one blocking call per request):
//
//   cache?  ──hit──────────────────────────────► result (cached=true)
//     │miss
//   registry?  ──same key in flight──► attach (coalesce): receive the
//     │                                owner's progress + result copy
//     │no
//   admission:  executing + waiting >= max_inflight + max_queue
//     │              └──► deterministic "busy" (retry_after_ms), never a
//     │                   hang — overload sheds load instead of queueing it
//   wait for an execution slot (bounded by timeout_ms; expiry → timeout
//     │                         error, entry withdrawn)
//   execute run_flow on the warm context, streaming one progress event per
//   stage to every attached listener; canonicalize the report; cache it;
//   publish to listeners; reply.
//
// Determinism contract: identical requests (same canonical form) always
// yield byte-identical canonical report JSON, whether computed, coalesced
// or cached — the flow's serial-vs-parallel bit-identity guarantee extends
// end-to-end through the service.
//
// Timeouts are deadline-based on std::chrono::steady_clock (never the wall
// clock). A request that times out *waiting* is withdrawn; once a flow is
// executing it runs to completion (flows are not preemptible) and still
// populates the cache — the timed-out client just stops waiting.
//
// Observability: serve.admit / serve.reject / serve.coalesce /
// serve.cache_hit / serve.cache_store / serve.timeout / serve.flow_runs /
// serve.errors counters, a serve.queue_depth gauge and a span.serve.request
// latency histogram (one obs::Span per executed request) in the global
// MetricsRegistry, plus a per-Service Stats snapshot (tests assert on
// Stats so parallel suites cannot interfere). With ServeOptions::trace,
// each executed request registers an obs flow ("serve <bench> <style>"),
// runs under it, and its serve.request span roots the request's timeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/warm.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace m3d::serve {

struct ServeOptions {
  /// Flows executing concurrently. Each flow itself parallelizes on the
  /// exec pool, so a small number saturates the machine.
  int max_inflight = 2;
  /// Admitted requests allowed to wait for a slot beyond max_inflight;
  /// anything past that bound is rejected with "busy" immediately.
  int max_queue = 8;
  /// Deadline for queue-slot waits and coalesced-result waits, ms.
  int64_t timeout_ms = 120000;
  /// Retry hint carried in "busy" replies, ms.
  int64_t retry_after_ms = 250;
  /// Artifact-store directory (src/store): the response cache is its
  /// outermost layer, and executed flows store/reuse their stage artifacts
  /// (libraries, netlists, placements) in the same directory. Empty
  /// disables persistence.
  std::string store_dir;
  /// Trace each executed request, under its own obs flow.
  bool trace = false;
  /// Test seams (default no-ops): invoked by the owner right after its
  /// entry is registered (before slot wait), and by a coalescing request
  /// right after it attached (before blocking). Tests use these to build
  /// deterministic interleavings; production leaves them empty.
  std::function<void(uint64_t key)> hook_after_register;
  std::function<void(uint64_t key)> hook_after_attach;
};

/// One stage-boundary progress event (index is 0-based stage order).
struct Progress {
  std::string stage;
  int index = 0;
  double wall_ms = 0.0;
};
using ProgressFn = std::function<void(const Progress&)>;

struct Response {
  enum class Status { kOk, kBusy, kTimeout, kError };
  Status status = Status::kError;
  uint64_t key = 0;
  /// kOk: the canonical run-report JSON document (compact). Byte-identical
  /// across computed / coalesced / cached paths for one canonical request.
  std::string report_json;
  bool cached = false;
  bool coalesced = false;
  /// kBusy.
  int64_t retry_after_ms = 0;
  int queue_depth = 0;
  /// kError / kTimeout.
  std::string error_code;
  std::string error_message;
};

class Service {
 public:
  Service(ServeOptions opt, flow::WarmContext* warm);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Executes one validated request, blocking until a terminal Response.
  /// `progress` (may be empty) receives stage-boundary events; it is called
  /// from the executing thread (possibly another request's thread, when
  /// coalesced) and must be fast and must not call back into the Service.
  /// Thread-safe; any number of concurrent callers.
  Response run(const Request& req, const ProgressFn& progress);

  /// Monotonic per-Service counters (a consistent snapshot).
  struct Stats {
    int64_t admitted = 0;     // entered the execution path (owner role)
    int64_t rejected = 0;     // "busy" replies
    int64_t coalesced = 0;    // attached to an in-flight execution
    int64_t cache_hits = 0;
    int64_t flow_runs = 0;    // flows actually executed
    int64_t timeouts = 0;
    int64_t errors = 0;
    int executing = 0;        // currently running flows
    int waiting = 0;          // currently queued for a slot
  };
  Stats stats() const;
  util::json::Value stats_json() const;

  const ResponseCache& cache() const { return cache_; }
  const ServeOptions& options() const { return opt_; }

 private:
  /// Shared state of one in-flight execution; owners publish, coalescers
  /// subscribe. Guarded by its own mutex so progress fan-out never holds
  /// the registry lock.
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response result;  // valid once done
    /// Listener slots; a slot holds nullptr after its waiter detached.
    std::vector<std::shared_ptr<ProgressFn>> listeners;
  };

  Response run_owner(const Request& req, uint64_t key,
                     const std::string& canonical,
                     const std::shared_ptr<Inflight>& entry,
                     const ProgressFn& progress);
  Response execute(const Request& req, uint64_t key,
                   const std::string& canonical,
                   const std::shared_ptr<Inflight>& entry);
  void publish(const std::shared_ptr<Inflight>& entry, uint64_t key,
               Response terminal);
  void bump_queue_gauge();

  ServeOptions opt_;
  flow::WarmContext* warm_;  // not owned
  ResponseCache cache_;

  mutable std::mutex mu_;  // registry + admission accounting + stats
  std::condition_variable slot_cv_;
  std::map<uint64_t, std::shared_ptr<Inflight>> inflight_;
  int executing_ = 0;
  int waiting_ = 0;
  Stats stats_;
};

}  // namespace m3d::serve
