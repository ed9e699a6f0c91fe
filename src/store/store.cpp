#include "store/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "obs/trace.hpp"
#include "store/blob.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"

namespace m3d::store {
namespace {

constexpr const char kMagic[] = "m3ds1\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
constexpr const char kSuffix[] = ".m3ds";
constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
constexpr size_t kHexLen = 16;

/// flock(2) on `<dir>/.lock` for the lifetime of the object. Writers take
/// it shared (they only ever rename into place, which is atomic on its
/// own); the GC sweep takes it exclusive so it never deletes a temp file
/// another process is about to rename. A missing directory simply yields an
/// unheld lock — callers treat that as "nothing to protect".
class DirLock {
 public:
  DirLock(const std::string& dir, bool exclusive)
      : fd_(::open((dir + "/.lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                   0666)) {
    if (fd_ >= 0) ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH);
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

/// Reads the whole file into `*out` with one allocation of its size.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  return static_cast<bool>(
      in.read(out->data(), static_cast<std::streamsize>(size)));
}

/// Splits "<stage>-<16hex>.m3ds" (basename). Returns false for lock/temp/
/// foreign files.
bool parse_entry_name(const std::string& base, std::string* stage,
                      std::string* hex) {
  if (base.size() < kSuffixLen + kHexLen + 2) return false;
  if (base.compare(base.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  const std::string stem = base.substr(0, base.size() - kSuffixLen);
  if (stem.size() < kHexLen + 2) return false;
  const size_t dash = stem.size() - kHexLen - 1;
  if (stem[dash] != '-') return false;
  *stage = stem.substr(0, dash);
  *hex = stem.substr(dash + 1);
  if (stage->empty()) return false;
  for (const char c : *hex) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

/// Everything an entry holds before its blob: magic, stage, key echo, blob
/// checksum and the blob's length prefix. Followed by the blob itself, this
/// is exactly the length-prefixed layout parse_entry reads.
std::string entry_header(const std::string& stage, const std::string& key,
                         const std::string& blob) {
  BlobWriter w;
  w.str(stage);
  w.str(key);
  w.u64(fnv1a64(blob));
  w.u32(static_cast<uint32_t>(blob.size()));
  std::string text(kMagic, kMagicLen);
  text += w.bytes();
  return text;
}

}  // namespace

std::string default_dir() {
  const char* env = std::getenv("M3D_STORE");
  return env != nullptr && env[0] != '\0' ? env : ".m3d_store";
}

Store::Store(std::string dir) : dir_(std::move(dir)) {}

std::string Store::entry_path(const std::string& stage,
                              const std::string& key_string) const {
  return util::strf("%s/%s-%s%s", dir_.c_str(), stage.c_str(),
                    key_hex(fnv1a64(key_string)).c_str(), kSuffix);
}

Store::ReadStatus Store::parse_entry(const std::string& text,
                                     const std::string& expect_stage,
                                     const std::string& expect_key,
                                     uint64_t expect_hash,
                                     size_t* blob_offset) {
  if (text.size() < kMagicLen ||
      text.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return ReadStatus::kCorrupt;
  }
  const std::string_view body = std::string_view(text).substr(kMagicLen);
  BlobReader r(body);
  std::string stage;
  std::string key;
  uint64_t checksum = 0;
  uint32_t blob_len = 0;
  if (!r.str(&stage) || !r.str(&key) || !r.u64(&checksum) ||
      !r.u32(&blob_len) || body.size() - r.pos() != blob_len) {
    return ReadStatus::kCorrupt;
  }
  const std::string_view payload = body.substr(r.pos());
  if (stage != expect_stage) return ReadStatus::kCorrupt;
  if (fnv1a64(key) != expect_hash) return ReadStatus::kCorrupt;
  if (fnv1a64(payload) != checksum) return ReadStatus::kCorrupt;
  // A well-formed entry for a *different* canonical key under the same
  // hash: a genuine collision, not damage — leave the file alone.
  if (!expect_key.empty() && key != expect_key) return ReadStatus::kCollision;
  *blob_offset = kMagicLen + r.pos();
  return ReadStatus::kOk;
}

std::optional<std::string> Store::get(const std::string& stage,
                                      const std::string& key_string,
                                      GetOutcome* outcome) const {
  GetOutcome oc = GetOutcome::kMiss;
  std::optional<std::string> result;
  if (enabled()) {
    const obs::Span span("store.get");
    const std::string path = entry_path(stage, key_string);
    std::string text;
    if (read_file(path, &text)) {
      size_t blob_offset = 0;
      switch (parse_entry(text, stage, key_string, fnv1a64(key_string),
                          &blob_offset)) {
        case ReadStatus::kOk:
          oc = GetOutcome::kHit;
          // Strip the header in place: the file text becomes the blob, so
          // a hit never holds two copies of it.
          text.erase(0, blob_offset);
          result = std::move(text);
          // LRU stamp: a hit refreshes the entry's mtime so the GC sweep
          // evicts cold entries first. Pure metadata — never a clock read.
          ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
          break;
        case ReadStatus::kCorrupt:
          oc = GetOutcome::kCorrupt;
          // Evict on sight: the next write self-heals the slot, and a
          // torn entry can never satisfy two different lookups.
          util::warn(util::strf("store: evicting corrupt entry %s",
                                path.c_str()));
          ::unlink(path.c_str());
          break;
        case ReadStatus::kCollision:
          oc = GetOutcome::kCollision;
          util::warn(util::strf(
              "store: %s holds a different key (hash collision); miss",
              path.c_str()));
          break;
      }
    }
  }
  switch (oc) {
    case GetOutcome::kHit:
      ++hits_;
      util::count("store.hits");
      break;
    case GetOutcome::kMiss:
      ++misses_;
      util::count("store.misses");
      break;
    case GetOutcome::kCorrupt:
      ++corrupt_;
      util::count("store.corrupt");
      break;
    case GetOutcome::kCollision:
      ++collisions_;
      util::count("store.collisions");
      break;
  }
  if (outcome != nullptr) *outcome = oc;
  return result;
}

bool Store::put(const std::string& stage, const std::string& key_string,
                const std::string& blob) const {
  if (!enabled()) return false;
  const obs::Span span("store.put");
  ::mkdir(dir_.c_str(), 0777);  // best effort; failure surfaces on open

  // Shared lock: concurrent writers are fine (rename is atomic; the last
  // writer of one key wins with an identical artifact, by determinism), but
  // a GC sweep must not run mid-publish.
  const DirLock lock(dir_, /*exclusive=*/false);

  const std::string path = entry_path(stage, key_string);
  // Distinct temp per writer: pid for cross-process, a process-local
  // sequence for two threads publishing the same key concurrently.
  static std::atomic<uint64_t> seq{0};
  const std::string tmp =
      util::strf("%s.tmp.%d.%llu", path.c_str(), static_cast<int>(::getpid()),
                 static_cast<unsigned long long>(seq.fetch_add(1)));
  const std::string header = entry_header(stage, key_string, blob);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      util::warn(util::strf("store: cannot write %s", tmp.c_str()));
      return false;
    }
    // Header, then the caller's blob as is: no concatenated copy.
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    util::warn(util::strf("store: cannot publish %s", path.c_str()));
    return false;
  }
  ++puts_;
  util::count("store.puts");
  return true;
}

std::vector<EntryInfo> Store::list() const {
  std::vector<EntryInfo> out;
  if (!enabled()) return out;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return out;
  for (const dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string base = e->d_name;
    EntryInfo info;
    if (!parse_entry_name(base, &info.stage, &info.key_hex)) continue;
    info.path = dir_ + "/" + base;
    struct stat st = {};
    if (::stat(info.path.c_str(), &st) != 0) continue;
    info.bytes = static_cast<uint64_t>(st.st_size);
    info.mtime_s = static_cast<int64_t>(st.st_mtim.tv_sec);
    info.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_nsec);
    out.push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(), [](const EntryInfo& a, const EntryInfo& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    return a.key_hex < b.key_hex;
  });
  return out;
}

GcResult Store::gc(uint64_t max_bytes) const {
  GcResult res;
  if (!enabled()) return res;
  const obs::Span span("store.gc");
  const DirLock lock(dir_, /*exclusive=*/true);

  // Stray temp files (a crashed writer) are garbage by definition: with the
  // exclusive lock held, no live writer can be mid-publish.
  {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return res;
    std::vector<std::string> tmps;
    for (const dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
      const std::string base = e->d_name;
      if (base.find(".tmp.") != std::string::npos) {
        tmps.push_back(dir_ + "/" + base);
      }
    }
    ::closedir(d);
    for (const std::string& t : tmps) {
      if (::unlink(t.c_str()) == 0) ++res.tmp_removed;
    }
  }

  std::vector<EntryInfo> entries = list();
  res.scanned = static_cast<int64_t>(entries.size());
  for (const EntryInfo& e : entries) res.bytes_before += e.bytes;
  res.bytes_after = res.bytes_before;
  if (res.bytes_before <= max_bytes) return res;

  // LRU: oldest mtime first; name breaks ties so equal stamps still sweep
  // in one deterministic order.
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              if (a.mtime_s != b.mtime_s) return a.mtime_s < b.mtime_s;
              if (a.mtime_ns != b.mtime_ns) return a.mtime_ns < b.mtime_ns;
              return a.path < b.path;
            });
  for (const EntryInfo& e : entries) {
    if (res.bytes_after <= max_bytes) break;
    if (::unlink(e.path.c_str()) != 0) continue;
    res.bytes_after -= e.bytes;
    ++res.evicted;
    ++evictions_;
    util::count("store.evictions");
    util::info(util::strf("store: gc evicted %s (%llu bytes)", e.path.c_str(),
                          static_cast<unsigned long long>(e.bytes)));
  }
  return res;
}

VerifyResult Store::verify() const {
  VerifyResult res;
  if (!enabled()) return res;
  const DirLock lock(dir_, /*exclusive=*/false);
  for (const EntryInfo& e : list()) {
    std::string text;
    size_t blob_offset = 0;
    uint64_t hash = 0;
    for (const char c : e.key_hex) {
      hash = hash * 16 + static_cast<uint64_t>(
                             c <= '9' ? c - '0' : c - 'a' + 10);
    }
    const bool ok =
        read_file(e.path, &text) &&
        parse_entry(text, e.stage, /*expect_key=*/"", hash, &blob_offset) ==
            ReadStatus::kOk;
    if (ok) {
      ++res.entries;
    } else {
      res.corrupt_paths.push_back(e.path);
    }
  }
  return res;
}

Stats Store::stats() const {
  Stats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.corrupt = corrupt_.load();
  s.collisions = collisions_.load();
  s.puts = puts_.load();
  s.evictions = evictions_.load();
  return s;
}

}  // namespace m3d::store
