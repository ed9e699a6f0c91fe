// m3d_store: ops CLI for the content-addressed stage-artifact store
// (src/store). The store directory is shared by m3d_serve daemons and
// direct run_flow callers on one host; this tool inspects and maintains it
// without stopping them (verify takes the shared directory lock, gc the
// exclusive one).
//
// Usage:
//   m3d_store ls     [--dir D]              list entries (stage, key, bytes)
//   m3d_store stat   [--dir D]              per-stage totals + overall size
//   m3d_store verify [--dir D]              re-verify every entry; exit 1 if
//                                           any entry is corrupt
//   m3d_store gc     [--dir D] --budget N   LRU-evict down to N bytes and
//                                           remove stray temp files
//
// --dir defaults to $M3D_STORE, else ".m3d_store".
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "store/store.hpp"
#include "util/strf.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: m3d_store <ls|stat|verify|gc> [--dir D] "
               "[--budget BYTES]\n"
               "  --dir defaults to $M3D_STORE, else .m3d_store\n"
               "  gc requires --budget (target total entry bytes)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }

  std::string dir;
  int64_t budget = -1;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "m3d_store: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--dir") {
      dir = next();
    } else if (arg == "--budget") {
      budget = std::atoll(next());
    } else {
      std::fprintf(stderr, "m3d_store: unknown arg %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (dir.empty()) dir = m3d::store::default_dir();

  const m3d::store::Store store(dir);

  if (cmd == "ls") {
    const std::vector<m3d::store::EntryInfo> entries = store.list();
    for (const m3d::store::EntryInfo& e : entries) {
      std::printf("%-10s %s %10llu  %s\n", e.stage.c_str(),
                  e.key_hex.c_str(),
                  static_cast<unsigned long long>(e.bytes), e.path.c_str());
    }
    std::printf("%zu entries\n", entries.size());
    return 0;
  }

  if (cmd == "stat") {
    const std::vector<m3d::store::EntryInfo> entries = store.list();
    // list() orders by stage, so per-stage totals are one linear pass.
    uint64_t total = 0;
    std::string stage;
    int64_t stage_n = 0;
    uint64_t stage_bytes = 0;
    auto flush = [&] {
      if (stage_n > 0) {
        std::printf("  %-10s %6lld entries %12llu bytes\n", stage.c_str(),
                    static_cast<long long>(stage_n),
                    static_cast<unsigned long long>(stage_bytes));
      }
    };
    for (const m3d::store::EntryInfo& e : entries) {
      if (e.stage != stage) {
        flush();
        stage = e.stage;
        stage_n = 0;
        stage_bytes = 0;
      }
      ++stage_n;
      stage_bytes += e.bytes;
      total += e.bytes;
    }
    flush();
    std::printf("%s: %zu entries, %llu bytes\n", dir.c_str(), entries.size(),
                static_cast<unsigned long long>(total));
    return 0;
  }

  if (cmd == "verify") {
    const m3d::store::VerifyResult v = store.verify();
    for (const std::string& p : v.corrupt_paths) {
      std::printf("CORRUPT %s\n", p.c_str());
    }
    std::printf("%lld entries verified, %zu corrupt\n",
                static_cast<long long>(v.entries), v.corrupt_paths.size());
    return v.clean() ? 0 : 1;
  }

  if (cmd == "gc") {
    if (budget < 0) {
      std::fprintf(stderr, "m3d_store: gc requires --budget BYTES\n");
      return 2;
    }
    const m3d::store::GcResult g =
        store.gc(static_cast<uint64_t>(budget));
    std::printf(
        "gc: %lld scanned, %lld evicted, %lld temp files removed, "
        "%llu -> %llu bytes\n",
        static_cast<long long>(g.scanned), static_cast<long long>(g.evicted),
        static_cast<long long>(g.tmp_removed),
        static_cast<unsigned long long>(g.bytes_before),
        static_cast<unsigned long long>(g.bytes_after));
    return 0;
  }

  std::fprintf(stderr, "m3d_store: unknown command %s\n", cmd.c_str());
  usage(stderr);
  return 2;
}
