#include "serve/service.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "flow/report.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::serve {

Service::Service(ServeOptions opt, flow::WarmContext* warm)
    : opt_(std::move(opt)), warm_(warm), cache_(opt_.store_dir) {}

Service::~Service() = default;

void Service::bump_queue_gauge() {
  // Caller holds mu_. The registry has its own lock; the nesting order is
  // always mu_ -> registry, never the reverse.
  util::set_gauge("serve.queue_depth",
                  static_cast<double>(executing_ + waiting_));
}

Service::Stats Service::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.executing = executing_;
  s.waiting = waiting_;
  return s;
}

util::json::Value Service::stats_json() const {
  const Stats s = stats();
  using util::json::Value;
  Value v = Value::object();
  v.set("type", Value::str("stats"));
  v.set("admitted", Value::number(static_cast<double>(s.admitted)));
  v.set("rejected", Value::number(static_cast<double>(s.rejected)));
  v.set("coalesced", Value::number(static_cast<double>(s.coalesced)));
  v.set("cache_hits", Value::number(static_cast<double>(s.cache_hits)));
  v.set("flow_runs", Value::number(static_cast<double>(s.flow_runs)));
  v.set("timeouts", Value::number(static_cast<double>(s.timeouts)));
  v.set("errors", Value::number(static_cast<double>(s.errors)));
  v.set("executing", Value::number(s.executing));
  v.set("waiting", Value::number(s.waiting));
  return v;
}

Response Service::run(const Request& req_in, const ProgressFn& progress) {
  const Request req = resolve_defaults(req_in);
  const uint64_t key = request_key(req);
  const std::string canonical = request_canonical(req);

  // 1. Persistent cache: repeats — including across restarts — never run
  // or queue.
  if (std::optional<std::string> hit = cache_.get(key, canonical)) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_hits;
    }
    util::count("serve.cache_hit");
    Response r;
    r.status = Response::Status::kOk;
    r.key = key;
    r.report_json = std::move(*hit);
    r.cached = true;
    return r;
  }

  // 2. Registry: coalesce onto an identical in-flight request, or register
  // as the owner — subject to the admission bound.
  std::shared_ptr<Inflight> entry;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      entry = it->second;
      ++stats_.coalesced;
    } else {
      if (executing_ + waiting_ >= opt_.max_inflight + opt_.max_queue) {
        ++stats_.rejected;
        util::count("serve.reject");
        Response r;
        r.status = Response::Status::kBusy;
        r.key = key;
        r.retry_after_ms = opt_.retry_after_ms;
        r.queue_depth = executing_ + waiting_;
        return r;
      }
      entry = std::make_shared<Inflight>();
      inflight_[key] = entry;
      ++waiting_;
      ++stats_.admitted;
      bump_queue_gauge();
      owner = true;
    }
  }

  if (owner) {
    if (progress) {
      const std::lock_guard<std::mutex> elock(entry->mu);
      entry->listeners.push_back(std::make_shared<ProgressFn>(progress));
    }
    util::count("serve.admit");
    return run_owner(req, key, canonical, entry, progress);
  }

  // Coalesced path: subscribe, then wait for the owner's terminal result.
  util::count("serve.coalesce");
  std::shared_ptr<ProgressFn> slot;
  if (progress) {
    slot = std::make_shared<ProgressFn>(progress);
    const std::lock_guard<std::mutex> elock(entry->mu);
    entry->listeners.push_back(slot);
  }
  if (opt_.hook_after_attach) opt_.hook_after_attach(key);
  {
    std::unique_lock<std::mutex> elock(entry->mu);
    const bool done = entry->cv.wait_for(
        elock, std::chrono::milliseconds(opt_.timeout_ms),
        [&] { return entry->done; });
    if (done) {
      Response r = entry->result;
      r.coalesced = true;
      return r;
    }
    // Deadline expired: detach our listener slot (the owner keeps running
    // and will still cache the result) and report the timeout.
    for (std::shared_ptr<ProgressFn>& l : entry->listeners) {
      if (l == slot) l = nullptr;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.timeouts;
  }
  util::count("serve.timeout");
  Response r;
  r.status = Response::Status::kTimeout;
  r.key = key;
  r.error_code = "timeout";
  r.error_message = util::strf("result not ready within %lld ms",
                               static_cast<long long>(opt_.timeout_ms));
  return r;
}

Response Service::run_owner(const Request& req, uint64_t key,
                            const std::string& canonical,
                            const std::shared_ptr<Inflight>& entry,
                            const ProgressFn& progress) {
  (void)progress;  // already subscribed as a listener by run()
  if (opt_.hook_after_register) opt_.hook_after_register(key);

  // Acquire an execution slot (bounded wait).
  {
    std::unique_lock<std::mutex> lock(mu_);
    const bool got = slot_cv_.wait_for(
        lock, std::chrono::milliseconds(opt_.timeout_ms),
        [&] { return executing_ < opt_.max_inflight; });
    if (!got) {
      --waiting_;
      ++stats_.timeouts;
      inflight_.erase(key);
      bump_queue_gauge();
      lock.unlock();
      util::count("serve.timeout");
      Response r;
      r.status = Response::Status::kTimeout;
      r.key = key;
      r.error_code = "timeout";
      r.error_message =
          util::strf("no execution slot within %lld ms",
                     static_cast<long long>(opt_.timeout_ms));
      publish(entry, key, r);
      return r;
    }
    --waiting_;
    ++executing_;
    bump_queue_gauge();
  }

  Response r = execute(req, key, canonical, entry);

  {
    const std::lock_guard<std::mutex> lock(mu_);
    --executing_;
    inflight_.erase(key);
    bump_queue_gauge();
    if (r.status == Response::Status::kOk) {
      ++stats_.flow_runs;
    } else {
      ++stats_.errors;
    }
    slot_cv_.notify_all();
  }
  publish(entry, key, r);
  return r;
}

Response Service::execute(const Request& req, uint64_t key,
                          const std::string& canonical,
                          const std::shared_ptr<Inflight>& entry) {
  std::optional<obs::ScopedTraceEnable> trace_window;
  std::optional<obs::ScopedContext> attribution;
  if (opt_.trace) {
    trace_window.emplace();
    obs::Context ctx = obs::context();
    ctx.flow = obs::register_flow(util::strf(
        "serve %s %s", gen::to_string(req.bench), tech::to_string(req.style)));
    attribution.emplace(ctx);
  }
  // The request's root span: its latency (hold included) and, when traced,
  // the parent of the flow's spans.
  const obs::Span request_span("serve.request");

  // Ops/test knob: hold the slot before running (deterministic overload
  // windows for the CI smoke script). Bounded by kMaxHoldMs at parse time.
  if (req.hold_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(req.hold_ms));
  }

  flow::FlowOptions fopt;
  fopt.bench = req.bench;
  fopt.node = req.node;
  fopt.style = req.style;
  fopt.clock_ns = req.clock_ns;
  fopt.seed = req.seed;
  fopt.scale_shift = req.scale_shift;
  fopt.target_util = req.target_util;
  fopt.check_level = req.check_level;
  fopt.trace = opt_.trace;
  // Same directory as the response cache: the flow reuses stored stage
  // artifacts (netlist, placement) even when the full-report lookup missed.
  fopt.store_dir = opt_.store_dir;
  fopt.stage_observer = [entry, idx = 0](const flow::StageReport& sr) mutable {
    const Progress p{sr.name, idx++, sr.wall_ms};
    const std::lock_guard<std::mutex> elock(entry->mu);
    for (const std::shared_ptr<ProgressFn>& l : entry->listeners) {
      if (l != nullptr) (*l)(p);
    }
  };

  Response r;
  r.key = key;
  try {
    const flow::FlowResult fr = warm_->run(fopt);
    r.status = Response::Status::kOk;
    r.report_json = report::to_canonical_json(fr).dump(-1);
    cache_.put(key, canonical, r.report_json);
  } catch (const std::exception& e) {
    util::error(util::strf("serve: flow for key %s failed: %s",
                           key_hex(key).c_str(), e.what()));
    util::count("serve.errors");
    r.status = Response::Status::kError;
    r.error_code = "flow-failed";
    r.error_message = e.what();
  }
  return r;
}

void Service::publish(const std::shared_ptr<Inflight>& entry, uint64_t key,
                      Response terminal) {
  (void)key;
  const std::lock_guard<std::mutex> elock(entry->mu);
  entry->result = std::move(terminal);
  entry->done = true;
  entry->listeners.clear();
  entry->cv.notify_all();
}

}  // namespace m3d::serve
