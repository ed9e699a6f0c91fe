// Tests for the serving subsystem (src/serve): wire framing, strict request
// parsing, the canonical request identity, the persistent response cache,
// the Service lifecycle (coalescing, admission control, timeouts) and the
// socket server end-to-end — including the acceptance demo: two concurrent
// clients asking for the same flow get byte-identical canonical reports off
// a single execution, repeats are served from the cache across a restart,
// and overload yields a deterministic "busy".
//
// Concurrency tests use the ServeOptions hooks (hook_after_register /
// hook_after_attach) and stats polling with steady_clock deadlines — no
// sleeps-as-synchronization. Assertions target per-Service Stats, not
// global metrics, so parallel test binaries cannot interfere.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flow/warm.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "store/store.hpp"
#include "util/json.hpp"
#include "util/strf.hpp"
#include "test_fixtures.hpp"

namespace m3d::serve {
namespace {

using util::json::Value;

// ---------------------------------------------------------------------------
// Framing.

TEST(FrameDecoder, LengthFramedRoundTrip) {
  const std::string payload = "{\"type\":\"ping\"}";
  const std::string frame = encode_frame(payload);
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(dec.next(&out), FrameStatus::kNeedMore);
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(FrameDecoder, LineFramedJson) {
  const std::string wire = "{\"type\":\"ping\"}\n";
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"type\":\"ping\"}");
}

TEST(FrameDecoder, ByteAtATimeFeeds) {
  // The payload is complete once its declared bytes arrive; the trailing
  // newline is consumed lazily (by the blank-line skip) on the next call.
  const std::string frame = encode_frame("{\"a\":1}");
  FrameDecoder dec;
  std::string out;
  for (size_t i = 0; i + 2 < frame.size(); ++i) {
    dec.feed(&frame[i], 1);
    EXPECT_EQ(dec.next(&out), FrameStatus::kNeedMore) << "byte " << i;
  }
  dec.feed(&frame[frame.size() - 2], 1);  // last payload byte
  EXPECT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"a\":1}");
  dec.feed(&frame[frame.size() - 1], 1);  // trailing frame newline
  EXPECT_EQ(dec.next(&out), FrameStatus::kNeedMore);
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(FrameDecoder, MultipleFramesInOneBuffer) {
  const std::string wire =
      encode_frame("{\"a\":1}") + "{\"b\":2}\n" + encode_frame("{\"c\":3}");
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string out;
  ASSERT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"a\":1}");
  ASSERT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"b\":2}");
  ASSERT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"c\":3}");
  EXPECT_EQ(dec.next(&out), FrameStatus::kNeedMore);
}

TEST(FrameDecoder, BlankLinesBetweenFramesAreSkipped) {
  const std::string wire = "\n\n{\"a\":1}\n\n";
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string out;
  ASSERT_EQ(dec.next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"a\":1}");
  EXPECT_EQ(dec.next(&out), FrameStatus::kNeedMore);
}

TEST(FrameDecoder, OversizedDeclaredLengthPoisons) {
  FrameDecoder dec(64);
  const std::string wire = "100000\n";
  dec.feed(wire.data(), wire.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameStatus::kTooLarge);
  // Poisoned: even after more (valid-looking) bytes, the status repeats.
  const std::string more = encode_frame("{\"a\":1}");
  dec.feed(more.data(), more.size());
  EXPECT_EQ(dec.next(&out), FrameStatus::kTooLarge);
}

TEST(FrameDecoder, OversizedLineFramePoisons) {
  FrameDecoder dec(16);
  std::string wire = "{\"pad\":\"";
  wire += std::string(64, 'x');
  dec.feed(wire.data(), wire.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameStatus::kTooLarge);
}

TEST(FrameDecoder, MalformedHeaderPoisons) {
  FrameDecoder dec;
  const std::string wire = "hello world\n";
  dec.feed(wire.data(), wire.size());
  std::string out;
  EXPECT_EQ(dec.next(&out), FrameStatus::kMalformed);
  const std::string more = encode_frame("{\"a\":1}");
  dec.feed(more.data(), more.size());
  EXPECT_EQ(dec.next(&out), FrameStatus::kMalformed);
}

// ---------------------------------------------------------------------------
// Strict request parsing + canonical identity.

Value run_doc() {
  Value v = Value::object();
  v.set("type", Value::str("run"));
  return v;
}

TEST(ServeProtocol, MinimalRequestResolvesDefaults) {
  Request r;
  RequestError err;
  ASSERT_TRUE(parse_request(run_doc(), &r, &err)) << err.message;
  EXPECT_EQ(r.bench, gen::Bench::kFpu);
  const Request resolved = resolve_defaults(r);
  EXPECT_EQ(resolved.scale_shift, flow::preset(r.bench, r.node).scale_shift);
  EXPECT_GT(resolved.target_util, 0.0);
}

TEST(ServeProtocol, DefaultedAndSpelledOutRequestsShareOneKey) {
  Request minimal;
  RequestError err;
  ASSERT_TRUE(parse_request(run_doc(), &minimal, &err));

  Value spelled = run_doc();
  spelled.set("bench", Value::str("FPU"));
  spelled.set("node", Value::str("45nm"));
  spelled.set("style", Value::str("2D"));
  spelled.set("clock_ns", Value::number(0.0));
  spelled.set("seed", Value::number(20130529));
  const flow::FlowOptions fpu =
      flow::preset(gen::Bench::kFpu, tech::Node::k45nm);
  spelled.set("scale_shift", Value::number(fpu.scale_shift));
  spelled.set("target_util", Value::number(fpu.target_util));
  spelled.set("check_level", Value::str("basic"));
  Request full;
  ASSERT_TRUE(parse_request(spelled, &full, &err)) << err.message;

  EXPECT_EQ(request_canonical(minimal), request_canonical(full));
  EXPECT_EQ(request_key(minimal), request_key(full));
}

TEST(ServeProtocol, ProgressIsNotPartOfTheIdentity) {
  Request a;
  Request b;
  RequestError err;
  Value da = run_doc();
  da.set("progress", Value::boolean(true));
  Value db = run_doc();
  db.set("progress", Value::boolean(false));
  ASSERT_TRUE(parse_request(da, &a, &err));
  ASSERT_TRUE(parse_request(db, &b, &err));
  EXPECT_EQ(request_key(a), request_key(b));
}

TEST(ServeProtocol, HoldMsIsPartOfTheIdentity) {
  Request a;
  Request b;
  RequestError err;
  Value db = run_doc();
  db.set("hold_ms", Value::number(50));
  ASSERT_TRUE(parse_request(run_doc(), &a, &err));
  ASSERT_TRUE(parse_request(db, &b, &err));
  EXPECT_NE(request_key(a), request_key(b));
}

TEST(ServeProtocol, UnknownFieldIsRejectedByName) {
  Value v = run_doc();
  v.set("bnech", Value::str("FPU"));  // the typo this schema exists to catch
  Request r;
  RequestError err;
  EXPECT_FALSE(parse_request(v, &r, &err));
  EXPECT_EQ(err.code, "unknown-field");
  EXPECT_EQ(err.field, "bnech");
}

TEST(ServeProtocol, OutOfDomainValuesAreRejected) {
  struct Case {
    const char* field;
    Value value;
    const char* code;
  };
  std::vector<Case> cases;
  cases.push_back({"bench", Value::str("NOPE"), "bad-value"});
  cases.push_back({"style", Value::str("4D"), "bad-value"});
  cases.push_back({"node", Value::str("3nm"), "bad-value"});
  cases.push_back({"clock_ns", Value::str("fast"), "bad-value"});
  cases.push_back({"clock_ns", Value::number(-1.0), "bad-value"});
  cases.push_back({"seed", Value::number(-3.0), "bad-value"});
  cases.push_back({"seed", Value::number(0.5), "bad-value"});
  cases.push_back({"scale_shift", Value::number(99), "bad-value"});
  cases.push_back({"target_util", Value::number(1.5), "bad-value"});
  cases.push_back({"check_level", Value::str("paranoid"), "bad-value"});
  cases.push_back({"progress", Value::number(1), "bad-value"});
  cases.push_back(
      {"hold_ms", Value::number(static_cast<double>(kMaxHoldMs + 1)),
       "bad-value"});
  for (const Case& c : cases) {
    Value v = run_doc();
    v.set(c.field, c.value);
    Request r;
    RequestError err;
    EXPECT_FALSE(parse_request(v, &r, &err)) << c.field;
    EXPECT_EQ(err.code, c.code) << c.field;
    EXPECT_EQ(err.field, c.field) << c.field;
  }
}

TEST(ServeProtocol, MissingTypeIsRejected) {
  Request r;
  RequestError err;
  EXPECT_FALSE(parse_request(Value::object(), &r, &err));
  EXPECT_EQ(err.code, "missing-field");
  EXPECT_EQ(err.field, "type");
}

TEST(ServeProtocol, SeedRoundTripsLosslesslyAsString) {
  Value v = run_doc();
  v.set("seed", Value::str("18446744073709551615"));  // UINT64_MAX
  Request r;
  RequestError err;
  ASSERT_TRUE(parse_request(v, &r, &err)) << err.message;
  EXPECT_EQ(r.seed, UINT64_MAX);
  EXPECT_NE(request_canonical(r).find("\"18446744073709551615\""),
            std::string::npos);
}

TEST(ServeProtocol, KeyHexIsStable) {
  // Pin the FNV-1a implementation: a silent change would orphan every
  // on-disk cache entry.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(key_hex(0x1234abcdULL), "000000001234abcd");
}

// ---------------------------------------------------------------------------
// Persistent response cache.

std::string fresh_dir(const char* name) {
  const std::string dir = util::strf("/tmp/m3d_serve_test_%s_%d", name,
                                     static_cast<int>(::getpid()));
  std::remove((dir + "/e.json").c_str());
  return dir;
}

TEST(ResponseCacheTest, RoundTripAndRestart) {
  const std::string dir = fresh_dir("roundtrip");
  const std::string canon = "{\"type\":\"run\",\"bench\":\"FPU\"}";
  const uint64_t key = fnv1a64(canon);  // the key is derived, never free
  const std::string report = "{\"schema\":\"m3d.run_report/v2\",\"x\":1}";
  {
    ResponseCache cache(dir);
    EXPECT_FALSE(cache.get(key, canon).has_value());
    ASSERT_TRUE(cache.put(key, canon, report));
    const std::optional<std::string> hit = cache.get(key, canon);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, report);  // byte-identical, not merely equivalent
  }
  // A fresh instance over the same directory (a "restarted daemon") hits.
  ResponseCache again(dir);
  const std::optional<std::string> hit = again.get(key, canon);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, report);
  std::remove(again.entry_path(key).c_str());
}

TEST(ResponseCacheTest, MismatchedCanonicalRequestReadsAsMiss) {
  const std::string dir = fresh_dir("collide");
  ResponseCache cache(dir);
  const std::string canon_a = "{\"a\":1}";
  const std::string canon_b = "{\"a\":2}";
  ASSERT_TRUE(cache.put(fnv1a64(canon_a), canon_a, "{\"r\":1}"));
  // Plant a *valid* entry whose stored canonical request is canon_a at
  // canon_b's path. The hit re-verification must read it as a miss, never
  // as canon_b's answer; the stored request's hash no longer matches the
  // filename, so the store treats it as drift and evicts it.
  ASSERT_EQ(std::rename(cache.entry_path(fnv1a64(canon_a)).c_str(),
                        cache.entry_path(fnv1a64(canon_b)).c_str()),
            0);
  EXPECT_FALSE(cache.get(fnv1a64(canon_b), canon_b).has_value());
  EXPECT_FALSE(cache.get(fnv1a64(canon_a), canon_a).has_value());  // moved
  std::remove(cache.entry_path(fnv1a64(canon_b)).c_str());
}

TEST(ResponseCacheTest, CorruptEntryReadsAsMissAndIsEvicted) {
  const std::string dir = fresh_dir("corrupt");
  ResponseCache cache(dir);
  const std::string canon = "{\"a\":1}";
  const uint64_t key = fnv1a64(canon);
  ASSERT_TRUE(cache.put(key, canon, "{\"r\":1}"));
  {
    std::ofstream f(cache.entry_path(key), std::ios::trunc);
    f << "not a store entry at all";
  }
  EXPECT_FALSE(cache.get(key, canon).has_value());
  // Evicted on sight: the next put self-heals, and until then the file is
  // gone entirely.
  std::ifstream gone(cache.entry_path(key));
  EXPECT_FALSE(gone.good());
  ASSERT_TRUE(cache.put(key, canon, "{\"r\":1}"));
  EXPECT_TRUE(cache.get(key, canon).has_value());
  std::remove(cache.entry_path(key).c_str());
}

TEST(ResponseCacheTest, EmptyDirDisablesTheCache) {
  ResponseCache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.put(1, "{}", "{}"));
  EXPECT_FALSE(cache.get(1, "{}").has_value());
}

// ---------------------------------------------------------------------------
// Service lifecycle. Flows use the analytic fixture library at a small
// scale so each execution is fast.

flow::WarmContext* test_warm() {
  static flow::WarmContext warm([](tech::Node, tech::Style style) {
    return test::make_test_library(style);
  });
  return &warm;
}

Request small_request(uint64_t seed = 1) {
  Request r;
  r.bench = gen::Bench::kDes;
  r.style = tech::Style::kTMI;
  r.scale_shift = 1;
  r.seed = seed;
  r.check_level = check::Level::kNone;
  return r;
}

/// Polls `pred` on the service's stats until it holds or ~5 s pass.
template <typename Pred>
bool wait_for_stats(Service* svc, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(svc->stats())) return true;
    std::this_thread::yield();
  }
  return false;
}

TEST(ServeService, SecondIdenticalRequestIsACacheHit) {
  ServeOptions opt;
  opt.store_dir = fresh_dir("svc_cache");
  Service svc(opt, test_warm());
  const Request req = small_request(11);

  const Response first = svc.run(req, {});
  ASSERT_EQ(first.status, Response::Status::kOk);
  EXPECT_FALSE(first.cached);
  EXPECT_FALSE(first.report_json.empty());

  const Response second = svc.run(req, {});
  ASSERT_EQ(second.status, Response::Status::kOk);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.report_json, first.report_json);  // byte-identical

  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.flow_runs, 1);
  EXPECT_EQ(s.cache_hits, 1);
  std::remove(svc.cache().entry_path(first.key).c_str());
}

TEST(ServeService, CacheSurvivesAServiceRestart) {
  const std::string dir = fresh_dir("svc_restart");
  const Request req = small_request(12);
  std::string first_report;
  uint64_t key = 0;
  {
    ServeOptions opt;
    opt.store_dir = dir;
    Service svc(opt, test_warm());
    const Response r = svc.run(req, {});
    ASSERT_EQ(r.status, Response::Status::kOk);
    first_report = r.report_json;
    key = r.key;
  }
  ServeOptions opt;
  opt.store_dir = dir;
  Service svc(opt, test_warm());
  const Response r = svc.run(req, {});
  ASSERT_EQ(r.status, Response::Status::kOk);
  EXPECT_TRUE(r.cached);
  EXPECT_EQ(r.report_json, first_report);
  EXPECT_EQ(svc.stats().flow_runs, 0);  // never re-ran
  std::remove(svc.cache().entry_path(key).c_str());
}

TEST(ServeService, ConcurrentIdenticalRequestsCoalesceOntoOneExecution) {
  ServeOptions opt;  // no cache: forces the coalescing path
  Service* svc_ptr = nullptr;
  const Request req = small_request(13);

  // Deterministic interleaving: once the owner has registered its entry
  // (and before it starts executing), launch the duplicate and wait until
  // it has attached. Only then let the owner proceed.
  std::thread dup;
  Response dup_resp;
  std::atomic<bool> fired{false};
  opt.hook_after_register = [&](uint64_t) {
    if (fired.exchange(true)) return;  // owner only
    dup = std::thread([&] { dup_resp = svc_ptr->run(req, {}); });
    ASSERT_TRUE(wait_for_stats(
        svc_ptr, [](const Service::Stats& s) { return s.coalesced == 1; }));
  };
  Service svc(opt, test_warm());
  svc_ptr = &svc;

  const Response owner_resp = svc.run(req, {});
  dup.join();

  ASSERT_EQ(owner_resp.status, Response::Status::kOk);
  ASSERT_EQ(dup_resp.status, Response::Status::kOk);
  EXPECT_TRUE(dup_resp.coalesced);
  EXPECT_EQ(dup_resp.report_json, owner_resp.report_json);  // byte-identical
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.flow_runs, 1);
  EXPECT_EQ(s.coalesced, 1);
  EXPECT_EQ(s.admitted, 1);
}

TEST(ServeService, OverloadYieldsDeterministicBusy) {
  ServeOptions opt;
  opt.max_inflight = 1;
  opt.max_queue = 0;
  Service* svc_ptr = nullptr;
  Response busy_resp;
  std::atomic<bool> fired{false};
  // The instant the first request holds the only admission token (it has
  // registered; whether it is executing yet does not matter — the bound
  // counts executing + waiting), a different request must bounce.
  opt.hook_after_register = [&](uint64_t) {
    if (fired.exchange(true)) return;
    busy_resp = svc_ptr->run(small_request(99), {});
  };
  Service svc(opt, test_warm());
  svc_ptr = &svc;

  const Response first = svc.run(small_request(14), {});
  ASSERT_EQ(first.status, Response::Status::kOk);
  EXPECT_EQ(busy_resp.status, Response::Status::kBusy);
  EXPECT_EQ(busy_resp.retry_after_ms, opt.retry_after_ms);
  EXPECT_GE(busy_resp.queue_depth, 1);
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.flow_runs, 1);
}

TEST(ServeService, SlotWaitTimesOutDeterministically) {
  ServeOptions opt;
  opt.max_inflight = 1;
  opt.max_queue = 4;
  opt.timeout_ms = 50;  // the *second* request gives up quickly
  Service svc(opt, test_warm());

  // Occupy the only slot: a request that holds it longer than the timeout.
  Request holder = small_request(15);
  holder.hold_ms = 1500;
  std::thread t([&] { svc.run(holder, {}); });
  ASSERT_TRUE(wait_for_stats(
      &svc, [](const Service::Stats& s) { return s.executing == 1; }));

  const Response r = svc.run(small_request(16), {});
  EXPECT_EQ(r.status, Response::Status::kTimeout);
  EXPECT_EQ(r.error_code, "timeout");
  t.join();
  EXPECT_GE(svc.stats().timeouts, 1);
}

TEST(ServeService, ProgressEventsMatchTheReportStageList) {
  ServeOptions opt;
  Service svc(opt, test_warm());
  std::vector<Progress> events;
  const Response r =
      svc.run(small_request(17), [&](const Progress& p) {
        events.push_back(p);
      });
  ASSERT_EQ(r.status, Response::Status::kOk);

  Value report;
  ASSERT_TRUE(util::json::parse(r.report_json, &report, nullptr));
  const Value* stages = report.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(events.size(), stages->items().size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, static_cast<int>(i));
    EXPECT_EQ(events[i].stage, stages->items()[i].string_or("name", "?"));
  }
}

// ---------------------------------------------------------------------------
// Socket server end-to-end.

struct TestClient {
  Socket conn;
  FrameDecoder dec;

  explicit TestClient(int port) {
    std::string err;
    conn = connect_tcp("127.0.0.1", port, &err);
    EXPECT_TRUE(conn.valid()) << err;
  }
  explicit TestClient(const std::string& unix_path) {
    std::string err;
    conn = connect_unix(unix_path, &err);
    EXPECT_TRUE(conn.valid()) << err;
  }

  bool send(const Value& doc) { return write_frame(conn, doc.dump(-1)); }
  bool send_raw(const std::string& bytes) {
    return write_frame(conn, bytes);
  }

  /// Next reply document; nullopt on EOF.
  std::optional<Value> recv() {
    std::string payload;
    if (read_frame(conn, &dec, &payload) != FrameStatus::kFrame) {
      return std::nullopt;
    }
    Value v;
    EXPECT_TRUE(util::json::parse(payload, &v, nullptr)) << payload;
    return v;
  }

  /// Skips progress frames; returns the terminal reply (or nullopt on EOF).
  std::optional<Value> recv_terminal() {
    for (;;) {
      std::optional<Value> v = recv();
      if (!v.has_value() || v->string_or("type", "") != "progress") return v;
    }
  }
};

Value small_run_doc(uint64_t seed) {
  Value v = run_doc();
  v.set("bench", Value::str("DES"));
  v.set("style", Value::str("T-MI"));
  v.set("scale_shift", Value::number(1));
  v.set("seed", Value::number(static_cast<double>(seed)));
  v.set("check_level", Value::str("none"));
  return v;
}

class ServeServerTest : public ::testing::Test {
 protected:
  Server* start(ServerOptions opt) {
    server_.emplace(std::move(opt), test_warm());
    std::string err;
    EXPECT_TRUE(server_->start(&err)) << err;
    return &*server_;
  }
  void TearDown() override {
    if (server_.has_value()) server_->stop();
  }
  std::optional<Server> server_;
};

TEST_F(ServeServerTest, PingOverTcpAndUnix) {
  ServerOptions opt;
  opt.unix_path = util::strf("/tmp/m3d_serve_test_%d.sock",
                             static_cast<int>(::getpid()));
  Server* srv = start(opt);
  ASSERT_GT(srv->tcp_port(), 0);

  TestClient tcp(srv->tcp_port());
  Value ping = Value::object();
  ping.set("type", Value::str("ping"));
  ASSERT_TRUE(tcp.send(ping));
  std::optional<Value> pong = tcp.recv();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->string_or("type", ""), "pong");
  EXPECT_EQ(pong->string_or("version", ""), kProtocolVersion);

  TestClient uds(opt.unix_path);
  ASSERT_TRUE(uds.send(ping));
  pong = uds.recv();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->string_or("type", ""), "pong");
}

TEST_F(ServeServerTest, MalformedFrameGetsAnErrorThenTheConnectionDrops) {
  Server* srv = start({});
  TestClient c(srv->tcp_port());
  // Raw garbage that is neither a length header nor a '{' line.
  const std::string garbage = "GET / HTTP/1.1\n";
  ASSERT_GT(::send(c.conn.fd(), garbage.data(), garbage.size(), 0), 0);
  std::optional<Value> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("type", ""), "error");
  EXPECT_EQ(reply->string_or("code", ""), "malformed-frame");
  EXPECT_FALSE(c.recv().has_value());  // EOF: the server dropped us
}

TEST_F(ServeServerTest, OversizedFrameGetsAnErrorThenTheConnectionDrops) {
  ServerOptions opt;
  opt.max_frame_bytes = 128;
  Server* srv = start(opt);
  TestClient c(srv->tcp_port());
  ASSERT_TRUE(c.send_raw("{\"pad\":\"" + std::string(512, 'x') + "\"}"));
  std::optional<Value> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("code", ""), "frame-too-large");
  EXPECT_FALSE(c.recv().has_value());
}

TEST_F(ServeServerTest, BadJsonAndUnknownTypeKeepTheConnectionUsable) {
  Server* srv = start({});
  TestClient c(srv->tcp_port());
  ASSERT_TRUE(c.send_raw("{\"type\":\"run\",}"));  // trailing comma
  std::optional<Value> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("code", ""), "bad-json");

  Value odd = Value::object();
  odd.set("type", Value::str("frobnicate"));
  ASSERT_TRUE(c.send(odd));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("code", ""), "unknown-type");

  Value ping = Value::object();
  ping.set("type", Value::str("ping"));
  ASSERT_TRUE(c.send(ping));
  reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("type", ""), "pong");  // still alive
}

TEST_F(ServeServerTest, UnknownRequestFieldIsASchemaErrorNamingTheField) {
  Server* srv = start({});
  TestClient c(srv->tcp_port());
  Value v = small_run_doc(21);
  v.set("sede", Value::number(7));  // typo of "seed"
  ASSERT_TRUE(c.send(v));
  std::optional<Value> reply = c.recv_terminal();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("type", ""), "error");
  EXPECT_EQ(reply->string_or("code", ""), "unknown-field");
  EXPECT_EQ(reply->string_or("field", ""), "sede");
}

// The acceptance demo: two concurrent clients, identical request, one
// execution, byte-identical canonical reports on both connections.
TEST_F(ServeServerTest, TwoConcurrentClientsGetByteIdenticalReports) {
  ServerOptions opt;
  std::atomic<bool> fired{false};
  std::thread second_thread;
  std::string second_report;
  std::optional<std::string> second_type;
  Server* srv = nullptr;
  // Freeze the owner right after registration, attach the duplicate over a
  // second connection, then let both run to completion.
  opt.serve.hook_after_register = [&](uint64_t) {
    if (fired.exchange(true)) return;
    std::atomic<bool> attached{false};
    second_thread = std::thread([&, port = srv->tcp_port()] {
      TestClient c2(port);
      EXPECT_TRUE(c2.send(small_run_doc(22)));
      attached.store(true);
      std::optional<Value> reply = c2.recv_terminal();
      ASSERT_TRUE(reply.has_value());
      second_type = reply->string_or("type", "");
      const Value* report = reply->find("report");
      ASSERT_NE(report, nullptr);
      second_report = report->dump(-1);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!attached.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    // Give the duplicate time to reach the service registry: wait until the
    // service has seen a coalesced request (it attaches before we return).
    while (srv->service().stats().coalesced < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  srv = start(std::move(opt));

  TestClient c1(srv->tcp_port());
  ASSERT_TRUE(c1.send(small_run_doc(22)));
  std::optional<Value> reply = c1.recv_terminal();
  if (second_thread.joinable()) second_thread.join();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->string_or("type", ""), "result");
  ASSERT_TRUE(second_type.has_value());
  EXPECT_EQ(*second_type, "result");
  const Value* report = reply->find("report");
  ASSERT_NE(report, nullptr);

  EXPECT_EQ(report->dump(-1), second_report);  // byte-identical
  EXPECT_EQ(srv->service().stats().flow_runs, 1);
  EXPECT_EQ(srv->service().stats().coalesced, 1);
}

TEST_F(ServeServerTest, ClientDisconnectMidRequestStillPopulatesTheCache) {
  ServerOptions opt;
  opt.serve.store_dir = fresh_dir("disconnect");
  Server* srv = start(opt);

  uint64_t key = 0;
  {
    Request req;
    RequestError perr;
    ASSERT_TRUE(parse_request(small_run_doc(23), &req, &perr));
    key = request_key(req);
  }
  {
    TestClient c(srv->tcp_port());
    ASSERT_TRUE(c.send(small_run_doc(23)));
    // Hang up immediately — before the flow finishes.
  }
  // The execution must still complete and land in the cache.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (srv->service().stats().flow_runs < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(srv->service().stats().flow_runs, 1);

  TestClient c2(srv->tcp_port());
  ASSERT_TRUE(c2.send(small_run_doc(23)));
  std::optional<Value> reply = c2.recv_terminal();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->string_or("type", ""), "result");
  const Value* cached = reply->find("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->as_bool());
  std::remove(srv->service().cache().entry_path(key).c_str());
}

// Two daemons, one store directory. Two Server instances in one process
// give each Store its own lock-file descriptor, and flock arbitration is
// per open file description — so the locking behaves exactly as it does
// between two separate m3d_serve processes, and TSan additionally watches
// the in-process side. Every seed is requested from BOTH daemons by
// concurrent clients, so lookups, puts and re-verification all race on the
// shared directory.
TEST(ServeTwoDaemons, SharedStoreYieldsByteIdenticalReportsWithoutDeadlock) {
  const std::string dir = fresh_dir("two_daemons");
  std::filesystem::remove_all(dir);

  flow::WarmContext warm_a([](tech::Node, tech::Style style) {
    return test::make_test_library(style);
  });
  flow::WarmContext warm_b([](tech::Node, tech::Style style) {
    return test::make_test_library(style);
  });
  warm_a.attach_store(dir, "fixture");
  warm_b.attach_store(dir, "fixture");

  ServerOptions opt_a;
  opt_a.serve.store_dir = dir;
  ServerOptions opt_b;
  opt_b.serve.store_dir = dir;
  Server a(std::move(opt_a), &warm_a);
  Server b(std::move(opt_b), &warm_b);
  std::string err;
  ASSERT_TRUE(a.start(&err)) << err;
  ASSERT_TRUE(b.start(&err)) << err;

  static constexpr uint64_t kSeeds[] = {31, 32, 33};
  constexpr int kClients = 4;  // two per daemon
  std::vector<std::string> reports[kClients];
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      const int port = (t % 2 == 0) ? a.tcp_port() : b.tcp_port();
      clients.emplace_back([t, port, &reports] {
        for (const uint64_t seed : kSeeds) {
          TestClient c(port);
          ASSERT_TRUE(c.send(small_run_doc(seed)));
          std::optional<Value> reply = c.recv_terminal();
          ASSERT_TRUE(reply.has_value());
          ASSERT_EQ(reply->string_or("type", ""), "result");
          const Value* report = reply->find("report");
          ASSERT_NE(report, nullptr);
          reports[t].push_back(report->dump(-1));
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }

  // Same seed => byte-identical report, no matter which daemon answered or
  // whether it came off a flow run, a coalesced owner, or the shared store.
  for (size_t i = 0; i < std::size(kSeeds); ++i) {
    ASSERT_LT(i, reports[0].size());
    for (int t = 1; t < kClients; ++t) {
      ASSERT_LT(i, reports[t].size());
      EXPECT_EQ(reports[t][i], reports[0][i]) << "seed " << kSeeds[i];
    }
  }

  a.stop();
  b.stop();

  // The shared directory came through the races intact: every entry
  // verifies, no temp droppings, exactly one report entry per seed.
  const store::Store st(dir);
  EXPECT_TRUE(st.verify().clean());
  int64_t report_entries = 0;
  for (const store::EntryInfo& e : st.list()) {
    if (e.stage == "report") ++report_entries;
  }
  EXPECT_EQ(report_entries, static_cast<int64_t>(std::size(kSeeds)));
  std::filesystem::remove_all(dir);
}

TEST_F(ServeServerTest, ShutdownRequestStopsTheServer) {
  Server* srv = start({});
  TestClient c(srv->tcp_port());
  Value v = Value::object();
  v.set("type", Value::str("shutdown"));
  ASSERT_TRUE(c.send(v));
  std::optional<Value> reply = c.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->string_or("type", ""), "shutting-down");
  srv->wait();  // returns because the request flipped the stop flag
  srv->stop();
  // A fresh connection must now be refused.
  std::string err;
  Socket late = connect_tcp("127.0.0.1", srv->tcp_port(), &err);
  EXPECT_FALSE(late.valid());
}

}  // namespace
}  // namespace m3d::serve
