// m3d_serve: long-lived flow service daemon. Listens on TCP (and/or a
// Unix-domain socket) for framed JSON flow requests (see src/serve), runs
// them on warm per-process state — libraries built once, auto-clock probes
// memoized, flows parallelized on the exec pool — with admission control,
// in-flight request coalescing and a persistent content-addressed artifact
// store (src/store: response cache + reusable stage artifacts), streaming
// stage progress to clients mid-run.
//
// The daemon serves the analytic library (liberty/analytic.hpp), like
// m3d_prof: it starts instantly and serves exactly the code paths the
// tier-1 goldens lock down, so every reply is reproducible from the request
// alone. The WarmContext provider is the one seam to swap in characterized
// libraries.
//
// Usage:
//   m3d_serve [--host 127.0.0.1] [--port 0] [--unix PATH]
//             [--store-dir D] [--no-store]
//             [--max-inflight N] [--max-queue N] [--timeout-ms N]
//             [--retry-after-ms N] [--threads N] [--trace]
//             [--port-file PATH] [--no-shutdown]
//
// --store-dir defaults to $M3D_STORE, else .m3d_store. (--cache-dir /
// --no-cache are accepted as aliases of --store-dir / --no-store for
// pre-store scripts.)
//
// --port 0 (default) binds an ephemeral port; the bound port is printed on
// stdout and, with --port-file, written to a file the CI smoke script (and
// m3d_client --port-file) can poll. SIGINT/SIGTERM or a {"type":"shutdown"}
// request stop the daemon gracefully.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/exec.hpp"
#include "flow/warm.hpp"
#include "liberty/analytic.hpp"
#include "serve/server.hpp"
#include "store/store.hpp"
#include "util/log.hpp"
#include "util/strf.hpp"

namespace {

m3d::serve::Server* g_server = nullptr;

void handle_signal(int) {
  // Just flag the server; the main thread does the actual teardown.
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  m3d::serve::ServerOptions opt;
  opt.serve.store_dir = m3d::store::default_dir();
  std::string port_file;
  int threads = 0;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "m3d_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      opt.port = std::atoi(next());
    } else if (arg == "--unix") {
      opt.unix_path = next();
    } else if (arg == "--store-dir" || arg == "--cache-dir") {
      opt.serve.store_dir = next();
    } else if (arg == "--no-store" || arg == "--no-cache") {
      opt.serve.store_dir.clear();
    } else if (arg == "--max-inflight") {
      opt.serve.max_inflight = std::atoi(next());
    } else if (arg == "--max-queue") {
      opt.serve.max_queue = std::atoi(next());
    } else if (arg == "--timeout-ms") {
      opt.serve.timeout_ms = std::atoll(next());
    } else if (arg == "--retry-after-ms") {
      opt.serve.retry_after_ms = std::atoll(next());
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--trace") {
      opt.serve.trace = true;
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--no-shutdown") {
      opt.allow_shutdown = false;
    } else {
      std::fprintf(
          stderr,
          "m3d_serve: unknown arg %s\n"
          "usage: m3d_serve [--host h] [--port n] [--unix path]\n"
          "  [--store-dir d | --no-store] [--max-inflight n] [--max-queue n]\n"
          "  [--timeout-ms n] [--retry-after-ms n] [--threads n] [--trace]\n"
          "  [--port-file path] [--no-shutdown]\n",
          arg.c_str());
      return 2;
    }
  }
  if (opt.serve.max_inflight < 1 || opt.serve.max_queue < 0) {
    std::fprintf(stderr, "m3d_serve: --max-inflight must be >= 1 and "
                         "--max-queue >= 0\n");
    return 2;
  }
  if (threads > 0) m3d::exec::set_default_threads(threads);
  m3d::util::set_default_log_level(m3d::util::LogLevel::kInfo);

  // Warm state: the analytic library per style (2D folded flag only; both
  // nodes share the fixture), built on first request for a corner and
  // reused for the daemon's lifetime.
  m3d::flow::WarmContext warm(
      [](m3d::tech::Node, m3d::tech::Style style) {
        return m3d::liberty::analytic_library(style);
      });
  // Persist warm state (libraries, clock probes) and flow stage artifacts
  // in the same store the response cache uses.
  warm.attach_store(opt.serve.store_dir, "fixture");

  m3d::serve::Server server(opt, &warm);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "m3d_serve: %s\n", err.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (server.tcp_port() >= 0) {
    std::printf("m3d_serve: listening on %s:%d\n", opt.host.c_str(),
                server.tcp_port());
  }
  if (!opt.unix_path.empty()) {
    std::printf("m3d_serve: listening on unix:%s\n", opt.unix_path.c_str());
  }
  std::printf("m3d_serve: store %s, max-inflight %d, max-queue %d\n",
              opt.serve.store_dir.empty() ? "(off)"
                                          : opt.serve.store_dir.c_str(),
              opt.serve.max_inflight, opt.serve.max_queue);
  std::fflush(stdout);
  if (!port_file.empty() && server.tcp_port() >= 0) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%d\n", server.tcp_port());
      std::fclose(f);
    }
  }

  server.wait();
  g_server = nullptr;
  server.stop();
  const m3d::serve::Service::Stats s = server.service().stats();
  std::printf("m3d_serve: done — %lld flows, %lld cache hits, %lld "
              "coalesced, %lld rejected\n",
              static_cast<long long>(s.flow_runs),
              static_cast<long long>(s.cache_hits),
              static_cast<long long>(s.coalesced),
              static_cast<long long>(s.rejected));
  return 0;
}
