// Content-addressed stage-artifact store: a persistent, single-host cache
// keyed (stage, FNV-1a-64 of a canonical key string) -> artifact blob. The
// flow memoizes its expensive prefixes through it (characterized libraries,
// generated netlists, routed designs — see flow/artifacts.hpp for the key
// schema), and the benches keep their comparison results in it, so results
// survive process restarts and are shared between processes on one host.
//
// Layout: one file per entry, `<dir>/<stage>-<16-hex-key>.m3ds`, holding
//
//   "m3ds1\n" | stage | canonical key echo | blob FNV-1a-64 | blob
//
// (length-prefixed fields; see store.cpp). Every hit re-verifies all of it:
// the stage and the full canonical key must byte-match the lookup and the
// blob must match its stored checksum. A hash collision therefore reads as
// a miss (never a wrong artifact), and any torn, truncated or foreign file
// reads as a miss too — corrupt entries are evicted on sight (unlink) and
// self-heal on the next write.
//
// Crash consistency: writes land in a same-directory temp file
// (`.tmp.<pid>` suffix) and publish via rename(2), so a reader sees either
// the complete old entry, the complete new entry, or nothing. Multi-process
// safety on one host comes from flock(2) on `<dir>/.lock`: writers and
// readers-of-many (verify) take it shared, the GC sweep takes it exclusive,
// so a sweep never deletes a temp file mid-publish. Blobs use the host's
// byte representation (store/blob.hpp) — share the directory between
// processes, not between machines.
//
// Eviction: `gc(max_bytes)` is a size-budgeted LRU sweep — hits touch the
// entry's mtime (utimensat), gc deletes oldest-mtime-first (filename
// tie-break, so the sweep is deterministic for equal stamps) until the
// directory fits the budget, and removes stray temp files.
//
// Observability: store.hits / store.misses / store.collisions /
// store.corrupt / store.puts / store.evictions counters in the calling
// thread's metrics sink, span.store.{get,put,gc} timing histograms, and a
// per-instance Stats snapshot for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace m3d::store {

/// Why a get() returned no blob (or kHit when it did).
enum class GetOutcome {
  kHit,
  kMiss,       // no entry file
  kCorrupt,    // torn/truncated/foreign entry — evicted on sight
  kCollision,  // a *valid* entry for a different key (hash collision)
};

struct Stats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t corrupt = 0;
  int64_t collisions = 0;
  int64_t puts = 0;
  int64_t evictions = 0;
};

/// The shared store directory of the CLI tools, benches and examples:
/// $M3D_STORE when set and non-empty, else ".m3d_store" (relative to the
/// working directory).
std::string default_dir();

struct EntryInfo {
  std::string path;
  std::string stage;
  std::string key_hex;
  uint64_t bytes = 0;
  /// Entry mtime (LRU stamp), seconds + nanoseconds since the epoch.
  int64_t mtime_s = 0;
  int64_t mtime_ns = 0;
};

struct GcResult {
  int64_t scanned = 0;      // entries seen
  int64_t evicted = 0;      // entries deleted
  int64_t tmp_removed = 0;  // stray temp files deleted
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
};

struct VerifyResult {
  int64_t entries = 0;  // well-formed entries
  std::vector<std::string> corrupt_paths;
  bool clean() const { return corrupt_paths.empty(); }
};

class Store {
 public:
  /// An empty `dir` disables the store: every get misses, every put is
  /// dropped. The directory is created on first put.
  explicit Store(std::string dir);
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Entry file path for (stage, FNV-1a-64 of key_string).
  std::string entry_path(const std::string& stage,
                         const std::string& key_string) const;

  /// The stored blob, fully re-verified (stage + canonical key echo +
  /// checksum), or nullopt with `*outcome` explaining why. A hit touches
  /// the entry's mtime (the LRU stamp). Thread- and process-safe.
  std::optional<std::string> get(const std::string& stage,
                                 const std::string& key_string,
                                 GetOutcome* outcome = nullptr) const;

  /// Atomically publishes (temp + rename) the blob for (stage, key).
  /// Overwrites any existing entry. Returns false on I/O failure; never
  /// throws.
  bool put(const std::string& stage, const std::string& key_string,
           const std::string& blob) const;

  /// Size-budgeted LRU sweep: removes stray temp files, then evicts
  /// oldest-mtime-first entries until total entry bytes <= max_bytes.
  /// Takes the directory lock exclusively.
  GcResult gc(uint64_t max_bytes) const;

  /// Reads and fully validates every entry (shared lock). Read-only: a
  /// corrupt entry is reported, not evicted (get() evicts on sight).
  VerifyResult verify() const;

  /// Every entry file, deterministically ordered by (stage, key).
  std::vector<EntryInfo> list() const;

  /// Per-instance counters (the store.* metrics aggregate across
  /// instances; tests assert on this snapshot).
  Stats stats() const;

 private:
  enum class ReadStatus { kOk, kCorrupt, kCollision };
  /// Parses + verifies one entry file's bytes; on kOk the blob is
  /// text[*blob_offset..]. `expect_key` empty: accept any key whose hash
  /// matches `expect_hash` (verify()'s mode).
  static ReadStatus parse_entry(const std::string& text,
                                const std::string& expect_stage,
                                const std::string& expect_key,
                                uint64_t expect_hash, size_t* blob_offset);

  std::string dir_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> corrupt_{0};
  mutable std::atomic<int64_t> collisions_{0};
  mutable std::atomic<int64_t> puts_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

}  // namespace m3d::store
