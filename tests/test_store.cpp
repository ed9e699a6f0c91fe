// Tests for the content-addressed stage-artifact store (src/store) and its
// flow bindings (circuit/snapshot, flow/artifacts, FlowOptions::store_dir):
// blob codec bounds, hit/miss/collision/corrupt semantics, the
// crash-consistency fault-injection suite (truncated blobs, torn temp
// files, corrupted key echoes, wrong-stage entries, partially-written
// entries — all read as misses and self-heal), the size-budgeted LRU sweep,
// and the acceptance bar: a store-hit flow emits the same canonical report
// bytes as a cold flow while skipping the memoized stages.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cells/layout.hpp"
#include "cells/spec.hpp"
#include "check/check.hpp"
#include "circuit/netlist.hpp"
#include "circuit/snapshot.hpp"
#include "flow/artifacts.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "flow/warm.hpp"
#include "liberty/characterize.hpp"
#include "store/blob.hpp"
#include "store/store.hpp"
#include "util/metrics.hpp"
#include "util/strf.hpp"
#include "test_fixtures.hpp"

namespace m3d {
namespace {

/// A unique, initially-absent store directory, removed on scope exit.
struct TempDir {
  explicit TempDir(const char* name)
      : path(util::strf("/tmp/m3d_store_test_%s_%d", name,
                        static_cast<int>(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Pins an entry's LRU stamp to an explicit epoch second (no clock reads).
void set_mtime(const std::string& path, int64_t epoch_s) {
  struct timespec times[2];
  times[0].tv_sec = static_cast<time_t>(epoch_s);
  times[0].tv_nsec = 0;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

// ---------------------------------------------------------------------------
// Key hashing.

TEST(StoreKeys, Fnv1a64AndKeyHexArePinned) {
  // Entry filenames are key_hex(fnv1a64(canonical key)): a silent change to
  // either would orphan every entry already on disk.
  EXPECT_EQ(store::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(store::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(store::key_hex(0x1234abcdULL), "000000001234abcd");
}

// ---------------------------------------------------------------------------
// Blob codec.

TEST(BlobCodec, RoundTripsEveryTypeBitExactly) {
  store::BlobWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-7);
  w.i64(INT64_MIN);
  w.f64(-0.0);
  w.f64(0.1);  // the classic not-finitely-decimal double
  w.str("stage artifact");
  w.str("");

  store::BlobReader r(w.bytes());
  uint8_t u8v = 0;
  uint32_t u32v = 0;
  uint64_t u64v = 0;
  int32_t i32v = 0;
  int64_t i64v = 0;
  double negzero = 1.0;
  double tenth = 0.0;
  std::string s1;
  std::string s2;
  ASSERT_TRUE(r.u8(&u8v));
  ASSERT_TRUE(r.u32(&u32v));
  ASSERT_TRUE(r.u64(&u64v));
  ASSERT_TRUE(r.i32(&i32v));
  ASSERT_TRUE(r.i64(&i64v));
  ASSERT_TRUE(r.f64(&negzero));
  ASSERT_TRUE(r.f64(&tenth));
  ASSERT_TRUE(r.str(&s1));
  ASSERT_TRUE(r.str(&s2));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(u8v, 0xab);
  EXPECT_EQ(u32v, 0xdeadbeefu);
  EXPECT_EQ(u64v, 0x0123456789abcdefULL);
  EXPECT_EQ(i32v, -7);
  EXPECT_EQ(i64v, INT64_MIN);
  EXPECT_TRUE(std::signbit(negzero));  // -0.0 preserved (bit pattern)
  EXPECT_EQ(tenth, 0.1);
  EXPECT_EQ(s1, "stage artifact");
  EXPECT_EQ(s2, "");
}

TEST(BlobCodec, TruncationTripsTheStickyOkFlag) {
  store::BlobWriter w;
  w.u64(42);
  w.str("payload");
  const std::string full = w.bytes();
  // Every proper prefix must decode to "no", never past-the-end reads.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    store::BlobReader r(std::string_view(full).substr(0, cut));
    uint64_t v = 0;
    std::string s;
    const bool got_all = r.u64(&v) && r.str(&s) && r.at_end();
    EXPECT_FALSE(got_all) << "cut=" << cut;
    // Sticky: once a read fails, later reads fail too.
    if (!r.ok()) {
      uint64_t again = 0;
      EXPECT_FALSE(r.u64(&again)) << "cut=" << cut;
    }
  }
}

TEST(BlobCodec, OversizedStringLengthReadsAsFailure) {
  store::BlobWriter w;
  w.u32(0x7fffffffu);  // declares ~2 GiB of string payload
  store::BlobReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.str(&s));
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Store basics.

TEST(StoreBasics, PutGetRoundTripWithStats) {
  const TempDir dir("basics");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.enabled());

  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("netlist", "key-a", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kMiss);

  ASSERT_TRUE(st.put("netlist", "key-a", "blob-a"));
  const std::optional<std::string> hit = st.get("netlist", "key-a", &oc);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "blob-a");
  EXPECT_EQ(oc, store::GetOutcome::kHit);

  // Same key, different stage: a distinct entry.
  EXPECT_FALSE(st.get("place", "key-a").has_value());
  ASSERT_TRUE(st.put("place", "key-a", "blob-b"));
  EXPECT_EQ(*st.get("place", "key-a"), "blob-b");

  // Overwrite wins.
  ASSERT_TRUE(st.put("netlist", "key-a", "blob-a2"));
  EXPECT_EQ(*st.get("netlist", "key-a"), "blob-a2");

  const store::Stats s = st.stats();
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.puts, 3);
  EXPECT_EQ(s.corrupt, 0);
  EXPECT_EQ(s.collisions, 0);

  const std::vector<store::EntryInfo> entries = st.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].stage, "netlist");  // ordered by (stage, key)
  EXPECT_EQ(entries[1].stage, "place");
}

TEST(StoreBasics, EmptyDirDisablesEverything) {
  const store::Store st("");
  EXPECT_FALSE(st.enabled());
  EXPECT_FALSE(st.put("s", "k", "b"));
  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("s", "k", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kMiss);
  EXPECT_TRUE(st.list().empty());
  EXPECT_EQ(st.gc(0).scanned, 0);
  EXPECT_TRUE(st.verify().clean());
}

// ---------------------------------------------------------------------------
// Crash-consistency fault injection. Every damaged shape must read as a
// miss (never a wrong artifact), and the next put must self-heal the slot.

TEST(StoreCrash, TruncatedBlobReadsAsMissAndSelfHeals) {
  const TempDir dir("truncated");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("place", "k", "a placed design blob"));
  const std::string path = st.entry_path("place", "k");

  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 8u);
  write_file(path, full.substr(0, full.size() / 2));  // crash mid-write shape

  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("place", "k", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kCorrupt);
  // Evicted on sight: the file is gone until the next write.
  EXPECT_FALSE(std::filesystem::exists(path));

  ASSERT_TRUE(st.put("place", "k", "a placed design blob"));
  EXPECT_EQ(*st.get("place", "k"), "a placed design blob");
  EXPECT_EQ(st.stats().corrupt, 1);
}

TEST(StoreCrash, CorruptedKeyEchoReadsAsMissAndSelfHeals) {
  const TempDir dir("keyecho");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("clock", "canonical-key", "blob"));
  const std::string path = st.entry_path("clock", "canonical-key");

  // Flip the first byte of the stored canonical key echo. Layout:
  // magic(6) | u32 len + stage | u32 len + key | ...
  std::string bytes = read_file(path);
  const size_t key_off = 6 + 4 + std::string("clock").size() + 4;
  ASSERT_LT(key_off, bytes.size());
  bytes[key_off] = static_cast<char>(bytes[key_off] ^ 0x01);
  write_file(path, bytes);

  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("clock", "canonical-key", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kCorrupt);  // echo no longer hashes right
  EXPECT_FALSE(std::filesystem::exists(path));

  ASSERT_TRUE(st.put("clock", "canonical-key", "blob"));
  EXPECT_EQ(*st.get("clock", "canonical-key"), "blob");
}

TEST(StoreCrash, WrongStageBlobUnderTheRightHashReadsAsMiss) {
  const TempDir dir("wrongstage");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("netlist", "k", "netlist bytes"));

  // Plant the netlist entry at the place-stage path for the same key hash
  // (same 16-hex stem, different stage prefix).
  std::filesystem::copy_file(st.entry_path("netlist", "k"),
                             st.entry_path("place", "k"));
  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("place", "k", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kCorrupt);  // stage echo mismatch
  EXPECT_FALSE(std::filesystem::exists(st.entry_path("place", "k")));
  // The real netlist entry is untouched.
  EXPECT_EQ(*st.get("netlist", "k"), "netlist bytes");
}

TEST(StoreCrash, PartiallyWrittenEntryReadsAsMissAndSelfHeals) {
  const TempDir dir("partial");
  const store::Store st(dir.path);
  // Simulate a writer that crashed after creating the entry file but
  // before all bytes landed: only the magic and part of a length prefix.
  ASSERT_TRUE(st.put("report", "seed", "x"));  // creates the directory
  const std::string path = st.entry_path("report", "victim");
  write_file(path, std::string("m3ds1\n\x04\x00", 8));

  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("report", "victim", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kCorrupt);
  ASSERT_TRUE(st.put("report", "victim", "healed"));
  EXPECT_EQ(*st.get("report", "victim"), "healed");
}

TEST(StoreCrash, TornTempFileIsInvisibleAndSweptByGc) {
  const TempDir dir("torntmp");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("place", "live", "live blob"));

  // A crashed writer's leftover: never visible to get (wrong suffix),
  // swept by gc even when the byte budget is not exceeded.
  const std::string tmp = st.entry_path("place", "live") + ".tmp.99999.7";
  write_file(tmp, "half-written garbage");
  EXPECT_TRUE(st.get("place", "live").has_value());

  const store::GcResult g = st.gc(1u << 20);
  EXPECT_EQ(g.tmp_removed, 1);
  EXPECT_EQ(g.evicted, 0);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_TRUE(st.get("place", "live").has_value());
}

TEST(StoreCrash, DriftedValidEntryReadsAsMissAndIsEvicted) {
  const TempDir dir("drift");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("report", "request-a", "report-a"));

  // Plant request-a's (internally valid!) entry at request-b's path. The
  // stored key echo still hashes to request-a's filename, not request-b's,
  // so the entry provably is not what its name claims: drift, evicted.
  // (A *true* 64-bit hash collision — stored key different from the lookup
  // key yet hashing to the same filename — would instead read as
  // kCollision and be preserved; FNV-1a-64 collisions are not
  // constructible in a test.)
  const std::string planted = st.entry_path("report", "request-b");
  std::filesystem::rename(st.entry_path("report", "request-a"), planted);

  store::GetOutcome oc = store::GetOutcome::kHit;
  EXPECT_FALSE(st.get("report", "request-b", &oc).has_value());
  EXPECT_EQ(oc, store::GetOutcome::kCorrupt);
  EXPECT_FALSE(std::filesystem::exists(planted));
  // Either way the lookup key's slot self-heals on the next write.
  ASSERT_TRUE(st.put("report", "request-b", "report-b"));
  EXPECT_EQ(*st.get("report", "request-b"), "report-b");
}

// ---------------------------------------------------------------------------
// GC / LRU and verify.

TEST(StoreGc, EvictsOldestMtimeFirstDownToBudget) {
  const TempDir dir("lru");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("place", "old", "0123456789"));
  ASSERT_TRUE(st.put("place", "mid", "0123456789"));
  ASSERT_TRUE(st.put("place", "hot", "0123456789"));
  set_mtime(st.entry_path("place", "old"), 100);
  set_mtime(st.entry_path("place", "mid"), 200);
  set_mtime(st.entry_path("place", "hot"), 300);

  uint64_t entry_bytes = 0;
  for (const store::EntryInfo& e : st.list()) entry_bytes = e.bytes;
  ASSERT_GT(entry_bytes, 0u);

  // Budget for exactly two entries: the oldest one goes.
  const store::GcResult g = st.gc(2 * entry_bytes);
  EXPECT_EQ(g.scanned, 3);
  EXPECT_EQ(g.evicted, 1);
  EXPECT_EQ(g.bytes_after, 2 * entry_bytes);
  EXPECT_FALSE(std::filesystem::exists(st.entry_path("place", "old")));
  EXPECT_TRUE(st.get("place", "mid").has_value());
  EXPECT_TRUE(st.get("place", "hot").has_value());
  EXPECT_EQ(st.stats().evictions, 1);

  // A hit refreshes the LRU stamp: stamp "hot" oldest, then touch nothing —
  // but the get("mid")/get("hot") above already re-stamped both with the
  // current clock, so re-pin explicitly for a deterministic order.
  set_mtime(st.entry_path("place", "hot"), 100);
  set_mtime(st.entry_path("place", "mid"), 200);
  const store::GcResult g2 = st.gc(entry_bytes);
  EXPECT_EQ(g2.evicted, 1);
  EXPECT_TRUE(std::filesystem::exists(st.entry_path("place", "mid")));
  EXPECT_FALSE(std::filesystem::exists(st.entry_path("place", "hot")));
}

TEST(StoreGc, ZeroBudgetEmptiesTheStore) {
  const TempDir dir("gczero");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("a", "1", "x"));
  ASSERT_TRUE(st.put("b", "2", "y"));
  const store::GcResult g = st.gc(0);
  EXPECT_EQ(g.evicted, 2);
  EXPECT_EQ(g.bytes_after, 0u);
  EXPECT_TRUE(st.list().empty());
}

TEST(StoreVerify, ReportsCorruptEntriesWithoutEvicting) {
  const TempDir dir("verify");
  const store::Store st(dir.path);
  ASSERT_TRUE(st.put("netlist", "good", "fine"));
  ASSERT_TRUE(st.put("netlist", "bad", "will be damaged"));
  const std::string bad_path = st.entry_path("netlist", "bad");
  const std::string full = read_file(bad_path);
  write_file(bad_path, full.substr(0, full.size() - 3));

  const store::VerifyResult v = st.verify();
  EXPECT_EQ(v.entries, 1);
  ASSERT_EQ(v.corrupt_paths.size(), 1u);
  EXPECT_EQ(v.corrupt_paths[0], bad_path);
  EXPECT_FALSE(v.clean());
  // verify is read-only: the corrupt file is still there for forensics.
  EXPECT_TRUE(std::filesystem::exists(bad_path));
}

// ---------------------------------------------------------------------------
// Netlist snapshot codec (circuit/snapshot.hpp).

circuit::Netlist make_snapshot_netlist() {
  circuit::Netlist nl;
  nl.name = "snap";
  const circuit::NetId a = nl.new_net("a");
  const circuit::NetId b = nl.new_net("b");
  const circuit::NetId clk = nl.new_net("clk");
  const circuit::NetId mid = nl.new_net();  // auto-named
  const circuit::NetId q = nl.new_net();    // auto-named
  nl.add_input_port("a", a);
  nl.add_input_port("b", b);
  nl.add_input_port("clk", clk);
  nl.set_clock(clk);
  nl.add_gate(cells::Func::kNand2, {a, b}, {mid}, 2);
  const circuit::InstId ff = nl.add_gate(cells::Func::kDff, {mid, clk}, {q});
  nl.add_output_port("q", q);
  // Exercise the full per-object state: positions, flags, drives.
  nl.inst(0).pos = {12.25, -3.5};
  nl.inst(0).placed = true;
  nl.inst(ff).pos = {0.5, 0.5};
  nl.inst(ff).placed = true;
  nl.inst(ff).from_optimizer = true;
  nl.ports()[0].pos = {0.0, 7.75};
  return nl;
}

TEST(NetlistSnapshot, RoundTripsExactStateIncludingAutoNameCounter) {
  const circuit::Netlist original = make_snapshot_netlist();
  store::BlobWriter w;
  circuit::encode_netlist(original, &w);

  store::BlobReader r(w.bytes());
  circuit::Netlist copy;
  ASSERT_TRUE(circuit::decode_netlist(&r, &copy));
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(copy.name, original.name);
  EXPECT_EQ(copy.num_instances(), original.num_instances());
  EXPECT_EQ(copy.num_nets(), original.num_nets());
  EXPECT_EQ(copy.clock_net(), original.clock_net());
  EXPECT_EQ(copy.ports().size(), original.ports().size());
  EXPECT_TRUE(copy.validate());
  // The structural hash covers names, wiring and sink order.
  EXPECT_EQ(check::netlist_hash(copy), check::netlist_hash(original));
  // Placement state (positions + placed flags) round-trips bit-exactly.
  EXPECT_EQ(check::placement_hash(copy), check::placement_hash(original));
  // The auto-name counter continues where the original left off: the next
  // anonymous net gets the same name in both, so later optimization passes
  // on a restored netlist produce identical names.
  circuit::Netlist orig2 = original;
  const circuit::NetId n1 = orig2.new_net();
  const circuit::NetId n2 = copy.new_net();
  EXPECT_EQ(orig2.net(n1).name, copy.net(n2).name);
}

TEST(NetlistSnapshot, EveryTruncationDecodesToNo) {
  const circuit::Netlist original = make_snapshot_netlist();
  store::BlobWriter w;
  circuit::encode_netlist(original, &w);
  const std::string full = w.bytes();
  for (size_t cut = 0; cut < full.size(); cut += 7) {
    store::BlobReader r(std::string_view(full).substr(0, cut));
    circuit::Netlist out;
    EXPECT_FALSE(circuit::decode_netlist(&r, &out)) << "cut=" << cut;
  }
}

TEST(NetlistSnapshot, BitFlipsNeverYieldAnInvalidNetlist) {
  const circuit::Netlist original = make_snapshot_netlist();
  store::BlobWriter w;
  circuit::encode_netlist(original, &w);
  const std::string bytes = w.bytes();
  // Flip high bits throughout; decode must either fail cleanly or produce
  // a netlist that still passes full reference validation.
  for (size_t at = 0; at < bytes.size(); at += 11) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x80);
    store::BlobReader r(mutated);
    circuit::Netlist out;
    if (circuit::decode_netlist(&r, &out)) {
      EXPECT_TRUE(out.validate()) << "at=" << at;
    }
  }
}

// ---------------------------------------------------------------------------
// Artifact codecs and keys (flow/artifacts.hpp).

TEST(Artifacts, LibraryCodecRoundTripsByteExactly) {
  const liberty::Library lib = test::make_test_library(tech::Style::k2D);
  const std::string blob = flow::artifacts::encode_library(lib);
  liberty::Library copy;
  ASSERT_TRUE(flow::artifacts::decode_library(blob, &copy));
  // Re-encoding the decoded library reproduces the exact bytes: the codec
  // is lossless, so fingerprints agree and cross-process reuse is safe.
  EXPECT_EQ(flow::artifacts::encode_library(copy), blob);
  EXPECT_EQ(flow::artifacts::library_fingerprint(copy),
            flow::artifacts::library_fingerprint(lib));
  EXPECT_EQ(copy.cells().size(), lib.cells().size());
}

TEST(Artifacts, LibraryDecodeRejectsTruncationAndTrailingGarbage) {
  const liberty::Library lib = test::make_test_library(tech::Style::kTMI);
  const std::string blob = flow::artifacts::encode_library(lib);
  liberty::Library out;
  EXPECT_FALSE(flow::artifacts::decode_library(
      blob.substr(0, blob.size() / 2), &out));
  EXPECT_FALSE(flow::artifacts::decode_library(blob + "x", &out));
}

TEST(Artifacts, KeysSeparateEveryInputThatChangesTheArtifact) {
  const liberty::Library lib = test::make_test_library(tech::Style::k2D);
  flow::FlowOptions a;
  a.bench = gen::Bench::kDes;
  a.scale_shift = 2;
  a.seed = 7;
  a.clock_ns = 2.0;
  a.lib = &lib;
  const uint64_t fp = flow::artifacts::library_fingerprint(lib);

  flow::FlowOptions b = a;
  b.seed = 8;
  EXPECT_NE(flow::artifacts::netlist_key(a), flow::artifacts::netlist_key(b));
  b = a;
  b.scale_shift = 3;
  EXPECT_NE(flow::artifacts::netlist_key(a), flow::artifacts::netlist_key(b));
  b = a;
  b.bench = gen::Bench::kAes;
  EXPECT_NE(flow::artifacts::netlist_key(a), flow::artifacts::netlist_key(b));

  b = a;
  b.clock_ns = 2.5;
  EXPECT_NE(flow::artifacts::place_key(a, fp),
            flow::artifacts::place_key(b, fp));
  b = a;
  b.resistivity_scale = 1.4;
  EXPECT_NE(flow::artifacts::place_key(a, fp),
            flow::artifacts::place_key(b, fp));
  b = a;
  b.style = tech::Style::kTMI;
  EXPECT_NE(flow::artifacts::place_key(a, fp),
            flow::artifacts::place_key(b, fp));
  b = a;
  b.build_cts = false;
  EXPECT_NE(flow::artifacts::place_key(a, fp),
            flow::artifacts::place_key(b, fp));
  // A different library fingerprint keys a different placement.
  EXPECT_NE(flow::artifacts::place_key(a, fp),
            flow::artifacts::place_key(a, fp + 1));

  EXPECT_NE(flow::artifacts::library_key("fixture", tech::Node::k45nm,
                                         tech::Style::k2D),
            flow::artifacts::library_key("other", tech::Node::k45nm,
                                         tech::Style::k2D));
  b = a;
  b.seed = 8;
  EXPECT_NE(flow::artifacts::clock_key(a, fp),
            flow::artifacts::clock_key(b, fp));
  EXPECT_NE(flow::artifacts::clock_key(a, fp),
            flow::artifacts::clock_key(a, fp + 1));
  // The auto-clock probe always runs the 2D corner without CTS, so fields it
  // never reads must NOT fragment the memo.
  b = a;
  b.style = tech::Style::kTMI;
  b.build_cts = false;
  EXPECT_EQ(flow::artifacts::clock_key(a, fp),
            flow::artifacts::clock_key(b, fp));

  // A memoized comparison changes with the caller's configuration key and
  // with either library: a re-characterized library never serves it.
  const std::string cmp = flow::artifacts::compare_key("t4_45_DES", fp, fp);
  EXPECT_NE(cmp, flow::artifacts::compare_key("t4_45_AES", fp, fp));
  EXPECT_NE(cmp, flow::artifacts::compare_key("t4_45_DES", fp + 1, fp));
  EXPECT_NE(cmp, flow::artifacts::compare_key("t4_45_DES", fp, fp + 1));

  // Custom WLMs are outside the key schema entirely.
  EXPECT_TRUE(flow::artifacts::store_usable(a));
  b = a;
  b.wlm = synth::Wlm{};
  EXPECT_FALSE(flow::artifacts::store_usable(b));
}

/// A comparison whose scalars include values a text codec would round.
flow::CompareResult sample_comparison() {
  flow::CompareResult c;
  for (flow::FlowResult* r : {&c.flat, &c.tmi}) {
    r->bench_name = "DES";
    r->clock_ns = 1.0 / 3.0;
    r->footprint_um2 = 12345.678901234567;
    r->cells = 4321;
    r->buffers = 17;
    r->utilization = 0.8;
    r->total_wl_um = std::nextafter(1e5, 2e5);
    r->wns_ps = -0.0;
    r->timing_met = true;
    r->routed = true;
    r->total_uw = 987.6543210123456;
    r->cell_uw = 1e-310;  // subnormal
    r->net_uw = std::sqrt(2.0);
    r->leak_uw = 0.003;
    r->wire_uw = 3.0e-7;
    r->pin_uw = 41.0;
    r->wire_cap_pf = 0.1;
    r->pin_cap_pf = 0.2;
    r->longest_path_ns = 2.0 / 7.0;
    r->seed = 0xfedcba9876543210ULL;
  }
  c.tmi.style = tech::Style::kTMI;
  c.tmi.timing_met = false;
  c.tmi.footprint_um2 *= 0.6;
  return c;
}

TEST(Artifacts, CompareCodecRoundTripsBitExactly) {
  const flow::CompareResult c = sample_comparison();
  const std::string blob = flow::artifacts::encode_compare_blob(c);
  flow::CompareResult copy;
  ASSERT_TRUE(flow::artifacts::decode_compare_blob(blob, &copy));
  EXPECT_EQ(flow::artifacts::encode_compare_blob(copy), blob);
  for (const auto& [in, out] : {std::pair{&c.flat, &copy.flat},
                                std::pair{&c.tmi, &copy.tmi}}) {
    EXPECT_EQ(out->bench_name, in->bench_name);
    EXPECT_EQ(out->style, in->style);
    EXPECT_EQ(out->seed, in->seed);
    EXPECT_EQ(out->cells, in->cells);
    EXPECT_EQ(out->buffers, in->buffers);
    EXPECT_EQ(out->timing_met, in->timing_met);
    EXPECT_EQ(out->routed, in->routed);
    for (const auto& [a, b] :
         {std::pair{in->clock_ns, out->clock_ns},
          std::pair{in->footprint_um2, out->footprint_um2},
          std::pair{in->utilization, out->utilization},
          std::pair{in->total_wl_um, out->total_wl_um},
          std::pair{in->wns_ps, out->wns_ps},
          std::pair{in->total_uw, out->total_uw},
          std::pair{in->cell_uw, out->cell_uw},
          std::pair{in->net_uw, out->net_uw},
          std::pair{in->leak_uw, out->leak_uw},
          std::pair{in->wire_uw, out->wire_uw},
          std::pair{in->pin_uw, out->pin_uw},
          std::pair{in->wire_cap_pf, out->wire_cap_pf},
          std::pair{in->pin_cap_pf, out->pin_cap_pf},
          std::pair{in->longest_path_ns, out->longest_path_ns}}) {
      EXPECT_EQ(std::signbit(a), std::signbit(b));
      EXPECT_EQ(a, b);
    }
  }
}

TEST(Artifacts, CompareDecodeRejectsTruncationAndTrailingGarbage) {
  const std::string blob =
      flow::artifacts::encode_compare_blob(sample_comparison());
  flow::CompareResult out;
  out.flat.bench_name = "untouched";
  for (size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(flow::artifacts::decode_compare_blob(blob.substr(0, n), &out))
        << "prefix " << n;
  }
  EXPECT_FALSE(flow::artifacts::decode_compare_blob(blob + "x", &out));
  EXPECT_EQ(out.flat.bench_name, "untouched");
}

// ---------------------------------------------------------------------------
// Flow integration: the acceptance bar.

const liberty::Library& flow_lib() {
  static const liberty::Library lib =
      test::make_test_library(tech::Style::kTMI);
  return lib;
}

flow::FlowOptions store_flow_opts(const std::string& store_dir) {
  flow::FlowOptions o;
  o.bench = gen::Bench::kDes;
  o.style = tech::Style::kTMI;
  o.scale_shift = 4;
  o.clock_ns = 2.0;
  o.lib = &flow_lib();
  o.store_dir = store_dir;
  return o;
}

TEST(FlowStore, WarmRunIsByteIdenticalAndSkipsMemoizedStages) {
  const TempDir dir("flow_accept");

  util::MetricsRegistry cold_reg;
  std::string cold_json;
  uint64_t cold_nl_hash = 0;
  uint64_t cold_place_hash = 0;
  {
    const util::ScopedMetricsSink sink(cold_reg);
    const flow::FlowResult cold = flow::run_flow(store_flow_opts(dir.path));
    cold_json = report::to_canonical_json(cold).dump(-1);
    cold_nl_hash = check::netlist_hash(cold.netlist);
    cold_place_hash = check::placement_hash(cold.netlist);
  }
  EXPECT_EQ(cold_reg.counter("store.hits"), 0.0);
  EXPECT_GE(cold_reg.counter("store.puts"), 2.0);  // netlist + place
  EXPECT_EQ(cold_reg.histogram("span.flow.synth").count, 1);

  // The cold run left exactly the memoized artifacts behind.
  const store::Store st(dir.path);
  bool saw_netlist = false;
  bool saw_place = false;
  for (const store::EntryInfo& e : st.list()) {
    saw_netlist = saw_netlist || e.stage == "netlist";
    saw_place = saw_place || e.stage == "place";
  }
  EXPECT_TRUE(saw_netlist);
  EXPECT_TRUE(saw_place);
  ASSERT_TRUE(st.verify().clean());

  util::MetricsRegistry warm_reg;
  std::string warm_json;
  {
    const util::ScopedMetricsSink sink(warm_reg);
    const flow::FlowResult warm = flow::run_flow(store_flow_opts(dir.path));
    warm_json = report::to_canonical_json(warm).dump(-1);
    // The restored state is the exact cold-run state.
    EXPECT_EQ(check::netlist_hash(warm.netlist), cold_nl_hash);
    EXPECT_EQ(check::placement_hash(warm.netlist), cold_place_hash);
  }
  // THE acceptance bar: byte-identical canonical reports.
  EXPECT_EQ(warm_json, cold_json);
  // And the expensive prefix actually did not run: the placement artifact
  // hit, and no gen/synth/place stage span was opened.
  EXPECT_GE(warm_reg.counter("store.hits"), 1.0);
  EXPECT_EQ(warm_reg.histogram("span.flow.gen").count, 0);
  EXPECT_EQ(warm_reg.histogram("span.flow.synth").count, 0);
  EXPECT_EQ(warm_reg.histogram("span.flow.place").count, 0);
  // Post-place stages still ran live.
  EXPECT_EQ(warm_reg.histogram("span.flow.route").count, 1);
}

TEST(FlowStore, NetlistArtifactAloneServesADifferentCorner) {
  const TempDir dir("flow_netlist");
  // Cold 2D run populates netlist + place for the 2D corner.
  static const liberty::Library lib2d =
      test::make_test_library(tech::Style::k2D);
  flow::FlowOptions o2d = store_flow_opts(dir.path);
  o2d.style = tech::Style::k2D;
  o2d.lib = &lib2d;
  const flow::FlowResult cold = flow::run_flow(o2d);

  // A T-MI run at the same (bench, scale, seed) shares the generated
  // netlist (generation is style-independent) but not the placement.
  util::MetricsRegistry reg;
  flow::FlowResult tmi;
  {
    const util::ScopedMetricsSink sink(reg);
    tmi = flow::run_flow(store_flow_opts(dir.path));
  }
  EXPECT_GE(reg.counter("store.hits"), 1.0);  // the netlist artifact
  EXPECT_EQ(reg.histogram("span.flow.gen").count, 0);
  EXPECT_EQ(reg.histogram("span.flow.synth").count, 1);  // corner differs
  EXPECT_EQ(reg.histogram("span.flow.place").count, 1);
  // Both runs still report the same generated design underneath.
  EXPECT_EQ(tmi.bench_name, cold.bench_name);
}

TEST(FlowStore, AutoClockProbeIsMemoizedAcrossRuns) {
  const TempDir dir("flow_clock");
  flow::FlowOptions o = store_flow_opts(dir.path);
  o.clock_ns = 0.0;  // force the probe

  const flow::FlowResult first = flow::run_flow(o);
  ASSERT_GT(first.clock_ns, 0.0);

  const store::Store st(dir.path);
  bool saw_clock = false;
  for (const store::EntryInfo& e : st.list()) {
    saw_clock = saw_clock || e.stage == "clock";
  }
  EXPECT_TRUE(saw_clock);

  // A second run resolves the identical clock from the store (the reports
  // must agree bit-for-bit, clock included).
  const flow::FlowResult second = flow::run_flow(o);
  EXPECT_EQ(second.clock_ns, first.clock_ns);
  EXPECT_EQ(report::to_canonical_json(second).dump(-1),
            report::to_canonical_json(first).dump(-1));
}

TEST(FlowStore, CorruptedArtifactsFallBackToRunningAndSelfHeal) {
  const TempDir dir("flow_corrupt");
  const flow::FlowOptions o = store_flow_opts(dir.path);
  const flow::FlowResult cold = flow::run_flow(o);
  const std::string cold_json = report::to_canonical_json(cold).dump(-1);

  // Damage every stored artifact (truncation: the harshest realistic
  // crash shape).
  const store::Store st(dir.path);
  for (const store::EntryInfo& e : st.list()) {
    const std::string full = read_file(e.path);
    write_file(e.path, full.substr(0, full.size() * 2 / 3));
  }

  // The flow must fall back to computing, repair the store, and still
  // produce the identical report.
  const flow::FlowResult again = flow::run_flow(o);
  EXPECT_EQ(report::to_canonical_json(again).dump(-1), cold_json);
  EXPECT_TRUE(st.verify().clean());  // self-healed by the re-run's puts
}

// Several flows race on one store directory. run_flow opens its own Store
// per call, so each flow holds its own flock(2) descriptor on `.lock`: the
// same locking two separate processes sharing the directory would see.
TEST(FlowStore, ConcurrentFlowsShareOneStoreDirectory) {
  const TempDir dir("flow_concurrent");
  static constexpr uint64_t kSeeds[] = {31, 32, 33};
  static constexpr tech::Style kStyles[] = {tech::Style::k2D,
                                            tech::Style::kTMI};
  static const liberty::Library lib2d =
      test::make_test_library(tech::Style::k2D);
  const auto opts = [&](const std::string& store_dir, uint64_t seed,
                        tech::Style style) {
    flow::FlowOptions o = store_flow_opts(store_dir);
    o.seed = seed;
    o.style = style;
    o.lib = style == tech::Style::k2D ? &lib2d : &flow_lib();
    return o;
  };
  constexpr size_t kRuns = std::size(kSeeds) * std::size(kStyles);

  // Serial cold reference, without a store.
  std::vector<std::string> reference;
  for (const uint64_t seed : kSeeds) {
    for (const tech::Style style : kStyles) {
      reference.push_back(
          report::to_canonical_json(flow::run_flow(opts("", seed, style)))
              .dump(-1));
    }
  }

  constexpr int kThreads = 4;
  std::vector<std::string> reports[kThreads];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const uint64_t seed : kSeeds) {
          for (const tech::Style style : kStyles) {
            reports[t].push_back(
                report::to_canonical_json(
                    flow::run_flow(opts(dir.path, seed, style)))
                    .dump(-1));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  // Same seed and style: byte-identical to the cold reference, whether the
  // flow ran, raced another writer, or restored a stored artifact.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(reports[t].size(), kRuns);
    for (size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(reports[t][i], reference[i]) << "thread " << t << " run " << i;
    }
  }

  // The directory came through the races intact: every entry verifies, no
  // temp file is left, and each (seed, style) has exactly one placement.
  const store::Store st(dir.path);
  EXPECT_TRUE(st.verify().clean());
  for (const auto& f : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(f.path().filename().string().find(".tmp."), std::string::npos)
        << f.path();
  }
  size_t place_entries = 0;
  for (const store::EntryInfo& e : st.list()) {
    if (e.stage == "place") ++place_entries;
  }
  EXPECT_EQ(place_entries, kRuns);
}

// ---------------------------------------------------------------------------
// WarmContext + store: characterization skipping across "restarts".

/// A one-cell library from the SPICE characterizer: its table values carry
/// full double precision, which a text cache would round.
liberty::Library characterized_inv_x1(tech::Style style) {
  const cells::CellSpec spec = cells::make_spec(cells::Func::kInv, 1);
  const tech::Tech tch(tech::Node::k45nm, style);
  const cells::CellLayout layout = style == tech::Style::k2D
                                       ? cells::layout_2d(spec, tch)
                                       : cells::fold_tmi(spec, tch);
  liberty::Library lib;
  lib.name = "inv_x1";
  lib.style = style;
  lib.add(liberty::characterize_cell(spec, layout, lib.vdd_v));
  return lib;
}

TEST(WarmStore, LibraryLoadsFromTheStoreInsteadOfRebuilding) {
  const std::pair<const char*, flow::WarmContext::LibraryProvider>
      providers[] = {
          {"fixture",
           [](tech::Node, tech::Style style) {
             return test::make_test_library(style);
           }},
          {"inv_x1",
           [](tech::Node, tech::Style style) {
             return characterized_inv_x1(style);
           }},
      };
  for (const auto& [id, make] : providers) {
    SCOPED_TRACE(id);
    const TempDir dir("warm_lib");
    std::atomic<int> builds{0};
    const auto provider = [&builds, &make = make](tech::Node node,
                                                  tech::Style style) {
      ++builds;
      return make(node, style);
    };

    flow::WarmContext first(provider);
    first.attach_store(dir.path, id);
    const liberty::Library& built =
        first.library(tech::Node::k45nm, tech::Style::kTMI);
    EXPECT_EQ(builds.load(), 1);

    // A restarted process: fresh context, same store directory. The
    // library is loaded, not re-characterized, and it is bit-identical.
    util::MetricsRegistry reg;
    flow::WarmContext second(provider);
    second.attach_store(dir.path, id);
    {
      const util::ScopedMetricsSink sink(reg);
      const liberty::Library& loaded =
          second.library(tech::Node::k45nm, tech::Style::kTMI);
      EXPECT_EQ(flow::artifacts::library_fingerprint(loaded),
                flow::artifacts::library_fingerprint(built));
    }
    EXPECT_EQ(builds.load(), 1);  // the provider never ran again
    EXPECT_EQ(reg.counter("warm.lib_load"), 1.0);
    EXPECT_EQ(reg.counter("warm.lib_build"), 0.0);

    // A different provider id must not share entries: it rebuilds.
    flow::WarmContext other(provider);
    other.attach_store(dir.path, "other-provider");
    other.library(tech::Node::k45nm, tech::Style::kTMI);
    EXPECT_EQ(builds.load(), 2);
  }
}

}  // namespace
}  // namespace m3d
