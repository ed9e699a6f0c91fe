#include "serve/server.hpp"

#include <unistd.h>

#include <atomic>
#include <utility>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::serve {

using util::json::Value;

Server::Server(ServerOptions opt, flow::WarmContext* warm)
    : opt_(std::move(opt)), service_(opt_.serve, warm) {}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  if (opt_.port < 0 && opt_.unix_path.empty()) {
    if (err != nullptr) *err = "no listener configured (TCP and Unix off)";
    return false;
  }
  if (opt_.port >= 0) {
    tcp_listener_ = listen_tcp(opt_.host, opt_.port, &bound_port_, err);
    if (!tcp_listener_.valid()) return false;
  }
  if (!opt_.unix_path.empty()) {
    unix_listener_ = listen_unix(opt_.unix_path, err);
    if (!unix_listener_.valid()) {
      tcp_listener_.close();
      return false;
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (tcp_listener_.valid()) {
    threads_.emplace_back([this] { accept_loop(&tcp_listener_); });
  }
  if (unix_listener_.valid()) {
    threads_.emplace_back([this] { accept_loop(&unix_listener_); });
  }
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [&] { return stopping_; });
}

void Server::request_shutdown() {
  const std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  stop_cv_.notify_all();
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    stop_cv_.notify_all();
  }
  // Shutting down the listeners makes blocked accept() calls return;
  // shutting down live connections makes blocked recv() calls return. The
  // accept and handler threads then fall out of their loops on their own.
  // The listeners close only after those threads are joined: an accept
  // loop still reads its listener's fd until it returns.
  tcp_listener_.shutdown_both();
  unix_listener_.shutdown_both();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Socket& c : conns_) c.shutdown_both();
  }
  for (;;) {
    std::vector<std::thread> batch;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      batch.swap(threads_);
    }
    if (batch.empty()) break;
    for (std::thread& t : batch) t.join();
  }
  tcp_listener_.close();
  unix_listener_.close();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
}

void Server::accept_loop(const Socket* listener) {
  for (;;) {
    Socket conn = accept_conn(*listener);
    if (!conn.valid()) return;  // listener closed (stop) or fatal error
    std::list<Socket>::iterator it;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      conns_.push_back(std::move(conn));
      it = std::prev(conns_.end());
      threads_.emplace_back([this, it] { handle_conn(it); });
    }
  }
}

void Server::handle_conn(std::list<Socket>::iterator conn_it) {
  const Socket& conn = *conn_it;
  FrameDecoder dec(opt_.max_frame_bytes);
  for (;;) {
    std::string payload;
    const FrameStatus st = read_frame(conn, &dec, &payload);
    if (st == FrameStatus::kNeedMore) break;  // orderly EOF
    if (st == FrameStatus::kTooLarge) {
      write_frame(conn, make_error("frame-too-large",
                                   util::strf("frame exceeds %zu bytes",
                                              opt_.max_frame_bytes))
                            .dump(-1));
      break;  // the stream is desynced; drop the connection
    }
    if (st == FrameStatus::kMalformed) {
      write_frame(conn,
                  make_error("malformed-frame",
                             "expected \"<len>\\n<json>\\n\" or a '{' line")
                      .dump(-1));
      break;
    }

    Value doc;
    std::string jerr;
    if (!util::json::parse(payload, &doc, &jerr)) {
      write_frame(conn, make_error("bad-json", jerr).dump(-1));
      continue;  // framing is intact; the connection can recover
    }
    const std::string type =
        doc.is_object() ? doc.string_or("type", "") : "";
    if (type == "ping") {
      write_frame(conn, make_pong().dump(-1));
    } else if (type == "stats") {
      write_frame(conn, service_.stats_json().dump(-1));
    } else if (type == "shutdown") {
      if (!opt_.allow_shutdown) {
        write_frame(conn,
                    make_error("forbidden", "shutdown disabled").dump(-1));
        continue;
      }
      Value ack = Value::object();
      ack.set("type", Value::str("shutting-down"));
      write_frame(conn, ack.dump(-1));
      request_shutdown();
      break;
    } else if (type == "run") {
      handle_run(conn, doc);
    } else {
      write_frame(conn,
                  make_error("unknown-type",
                             util::strf("unknown request type \"%s\"",
                                        type.c_str()),
                             "type")
                      .dump(-1));
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(conn_it);
}

void Server::handle_run(const Socket& conn, const Value& doc) {
  Request req;
  RequestError rerr;
  if (!parse_request(doc, &req, &rerr)) {
    write_frame(conn, make_error(rerr.code, rerr.message, rerr.field).dump(-1));
    return;
  }
  const std::string id = key_hex(request_key(req));

  // Progress events stream on this connection while the flow runs —
  // possibly emitted from another connection's thread when this request
  // coalesced. A failed write marks the peer gone: we stop streaming but
  // let the execution finish (the result still lands in the cache).
  std::atomic<bool> peer_gone{false};
  ProgressFn progress;
  if (req.progress) {
    progress = [this, &conn, &peer_gone, id](const Progress& p) {
      if (peer_gone.load(std::memory_order_relaxed)) return;
      if (!write_frame(conn,
                       make_progress(id, p.stage, p.index, p.wall_ms)
                           .dump(-1))) {
        peer_gone.store(true, std::memory_order_relaxed);
        util::count("serve.client_disconnect");
      }
    };
  }

  const Response resp = service_.run(req, progress);
  if (peer_gone.load(std::memory_order_relaxed)) return;

  switch (resp.status) {
    case Response::Status::kOk: {
      Value report;
      std::string jerr;
      if (!util::json::parse(resp.report_json, &report, &jerr)) {
        write_frame(conn, make_error("internal",
                                     util::strf("stored report unreadable: %s",
                                                jerr.c_str()))
                              .dump(-1));
        return;
      }
      write_frame(conn, make_result(id, resp.cached, resp.coalesced,
                                    std::move(report))
                            .dump(-1));
      break;
    }
    case Response::Status::kBusy:
      write_frame(conn,
                  make_busy(resp.retry_after_ms, resp.queue_depth).dump(-1));
      break;
    case Response::Status::kTimeout:
    case Response::Status::kError:
      write_frame(conn,
                  make_error(resp.error_code, resp.error_message).dump(-1));
      break;
  }
}

}  // namespace m3d::serve
