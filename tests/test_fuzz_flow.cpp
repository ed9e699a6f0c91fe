// Seeded circuit fuzzer (the m3d_fuzz target). Pushes a deterministic sweep
// of random Rent's-rule circuits (gen/random_logic) through the complete
// flow in three styles (2D, T-MI, G-MI) with the full invariant battery
// (src/check) enabled, plus three differential oracles:
//
//   * serial vs M3D_THREADS=4 — canonical run reports must be byte-identical
//     (the exec subsystem's bit-identity contract, exercised end to end);
//   * 2D vs folded T-MI and G-MI — same logical structure must survive
//     every style (same live logic-cell count, same sequential count;
//     for T-MI also a smaller footprint and wirelength within tolerance
//     of 2D);
//   * cross-process — gen/random_logic must hash identically in two fresh
//     processes (guards against unordered-container or ASLR-dependent
//     iteration sneaking into the generators).
//
// Every failure prints the circuit seed; replay a single case with
//   ./m3d_fuzz --netlist-hash=<seed>   (prints the structural hash)
// or by pasting the seed into a RandomLogicOptions in a debugger.
//
// The SlowPaperBench suite (label "slow") runs the five paper benchmarks at
// their default (largest tractable) scale with full checking — too slow for
// tier-1 but a nightly-strength sign-off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exec/exec.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "gen/gen.hpp"
#include "store/store.hpp"
#include "test_fixtures.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strf.hpp"

namespace m3d {
namespace {

// One fuzz case: the generator options for a random circuit. Everything is
// derived from kSweepSeed via util::Rng, so the sweep is identical on every
// machine and every run; bump kSweepSeed to refresh the corpus.
constexpr uint64_t kSweepSeed = 0xDAC13F022u;
constexpr int kSweepSize = 24;

std::vector<gen::RandomLogicOptions> sweep_cases() {
  util::Rng rng(kSweepSeed);
  std::vector<gen::RandomLogicOptions> cases;
  cases.reserve(kSweepSize);
  for (int i = 0; i < kSweepSize; ++i) {
    gen::RandomLogicOptions o;
    o.num_gates = 150 + static_cast<int>(rng.below(750));
    o.num_inputs = 8 + static_cast<int>(rng.below(56));
    o.gates_per_flop = 4 + static_cast<int>(rng.below(16));
    o.long_wire_frac = 0.25 * rng.uniform();
    o.seed = rng.next_u64();
    cases.push_back(o);
  }
  return cases;
}

const liberty::Library& lib_for(tech::Style style) {
  static const liberty::Library flat = test::make_test_library(tech::Style::k2D);
  static const liberty::Library tmi = test::make_test_library(tech::Style::kTMI);
  return tech::cell_style(style) == tech::Style::k2D ? flat : tmi;
}

flow::FlowResult run_fuzz_flow(const circuit::Netlist& nl, tech::Style style,
                               uint64_t seed) {
  flow::FlowOptions o;
  o.style = style;
  o.lib = &lib_for(style);
  o.custom_netlist = &nl;
  o.clock_ns = 5.0;  // closure is not required; the checkers are the oracle
  // Random circuits upsize hard (deep unbalanced paths, huge fanouts); a
  // die at the paper's 0.8 utilization can end up over-full after
  // optimization, which the legality checkers rightly reject. Give the
  // adversarial corpus the same headroom the paper gives LDPC/M256.
  o.target_util = 0.6;
  o.seed = seed;
  o.check_level = check::Level::kFull;
  return flow::run_flow(o);
}

int live_logic_cells(const circuit::Netlist& nl) {
  int n = 0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    const circuit::Instance& inst = nl.inst(i);
    if (!inst.dead && !inst.from_optimizer) ++n;
  }
  return n;
}

// --- the sweep: every random circuit, every style, zero violations -------

TEST(FuzzFlow, SweepBothStylesZeroViolationsAndStructuralDifferential) {
  int case_idx = 0;
  for (const gen::RandomLogicOptions& opt : sweep_cases()) {
    SCOPED_TRACE(testing::Message()
                 << "case " << case_idx++ << " seed=" << opt.seed
                 << " gates=" << opt.num_gates << " inputs=" << opt.num_inputs
                 << " gates_per_flop=" << opt.gates_per_flop);
    util::info(util::strf("fuzz: seed=%llu gates=%d inputs=%d",
                          static_cast<unsigned long long>(opt.seed),
                          opt.num_gates, opt.num_inputs));
    const circuit::Netlist nl = gen::make_random_logic(opt);
    ASSERT_TRUE(nl.validate());

    const flow::FlowResult flat = run_fuzz_flow(nl, tech::Style::k2D, opt.seed);
    EXPECT_TRUE(flat.checks.ok()) << "2D:\n" << flat.checks.summary();

    const flow::FlowResult tmi = run_fuzz_flow(nl, tech::Style::kTMI, opt.seed);
    EXPECT_TRUE(tmi.checks.ok()) << "T-MI:\n" << tmi.checks.summary();

    // Structural differential: buffering/CTS may differ between styles, but
    // the logic the user asked for must be untouched in both.
    EXPECT_EQ(live_logic_cells(flat.netlist), live_logic_cells(tmi.netlist));
    EXPECT_EQ(flat.netlist.count_sequential(), tmi.netlist.count_sequential());
    // Folded cells shrink the die; routed wirelength must not blow up
    // relative to 2D (the paper's central claim, as a coarse invariant).
    EXPECT_LT(tmi.footprint_um2, flat.footprint_um2);
    EXPECT_LE(tmi.total_wl_um, flat.total_wl_um * 1.15)
        << "T-MI wirelength " << tmi.total_wl_um << " vs 2D "
        << flat.total_wl_um;

    const flow::FlowResult gmi = run_fuzz_flow(nl, tech::Style::kGMI, opt.seed);
    EXPECT_TRUE(gmi.checks.ok()) << "G-MI:\n" << gmi.checks.summary();
    EXPECT_EQ(live_logic_cells(flat.netlist), live_logic_cells(gmi.netlist));
    EXPECT_EQ(flat.netlist.count_sequential(), gmi.netlist.count_sequential());
  }
}

// --- differential oracle: serial vs 4-thread byte identity ----------------

TEST(FuzzFlow, SerialVsFourThreadsCanonicalReportsByteIdentical) {
  const std::vector<gen::RandomLogicOptions> cases = sweep_cases();
  for (int i = 0; i < 4; ++i) {
    const gen::RandomLogicOptions& opt = cases[static_cast<size_t>(i * 5)];
    const circuit::Netlist nl = gen::make_random_logic(opt);
    for (tech::Style style : {tech::Style::kTMI, tech::Style::kGMI}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << opt.seed << " " << tech::to_string(style));
      exec::set_default_threads(1);
      const std::string serial = report::to_canonical_json_string(
          run_fuzz_flow(nl, style, opt.seed));
      exec::set_default_threads(4);
      const std::string parallel = report::to_canonical_json_string(
          run_fuzz_flow(nl, style, opt.seed));
      exec::set_default_threads(0);  // restore the environment-resolved pool

      EXPECT_EQ(serial, parallel);
    }
  }
}

// --- differential oracle: cold vs store-warm byte identity ----------------
//
// The stage-artifact store (src/store) must be invisible in the output: a
// run that restores its routed design from the store has to emit the same
// canonical report bytes — and hold the same netlist and placement hashes —
// as the cold run that populated it, on adversarial circuits, not just the
// curated benchmarks.

TEST(FuzzFlow, StoreWarmRunsByteIdenticalToCold) {
  const std::vector<gen::RandomLogicOptions> cases = sweep_cases();
  const std::string dir =
      util::strf("/tmp/m3d_fuzz_store_%d", static_cast<int>(getpid()));
  std::filesystem::remove_all(dir);
  for (int i = 0; i < 3; ++i) {
    const gen::RandomLogicOptions& opt = cases[static_cast<size_t>(i * 7 + 1)];
    const circuit::Netlist nl = gen::make_random_logic(opt);
    for (tech::Style style : {tech::Style::kTMI, tech::Style::kGMI}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << opt.seed << " " << tech::to_string(style));
      auto run = [&](util::MetricsRegistry* reg) {
        flow::FlowOptions o;
        o.style = style;
        o.lib = &lib_for(style);
        o.custom_netlist = &nl;
        o.clock_ns = 5.0;
        o.target_util = 0.6;
        o.seed = opt.seed;
        o.check_level = check::Level::kFull;
        o.store_dir = dir;
        const util::ScopedMetricsSink sink(*reg);
        return flow::run_flow(o);
      };
      util::MetricsRegistry cold_reg;
      util::MetricsRegistry warm_reg;
      const flow::FlowResult cold = run(&cold_reg);
      const flow::FlowResult warm = run(&warm_reg);

      EXPECT_EQ(check::netlist_hash(warm.netlist),
                check::netlist_hash(cold.netlist));
      EXPECT_EQ(check::placement_hash(warm.netlist),
                check::placement_hash(cold.netlist));
      EXPECT_EQ(report::to_canonical_json_string(warm),
                report::to_canonical_json_string(cold));
      // The warm run really came from the store: the routed artifact hit
      // (custom netlists key by structural hash) and no stage before
      // sign-off ran.
      EXPECT_EQ(cold_reg.counter("store.hits"), 0.0);
      EXPECT_GE(warm_reg.counter("store.hits"), 1.0);
      EXPECT_EQ(warm_reg.histogram("span.flow.place").count, 0);
      EXPECT_EQ(warm_reg.histogram("span.flow.opt_preroute").count, 0);
      EXPECT_EQ(warm_reg.histogram("span.flow.route").count, 0);
      EXPECT_EQ(warm_reg.histogram("span.flow.opt_postroute").count, 0);
    }
  }
  const store::Store st(dir);
  EXPECT_TRUE(st.verify().clean());
  // One routed design per (circuit, style); custom netlists store no
  // netlist artifact, and no other kind is written.
  size_t routed_entries = 0;
  for (const store::EntryInfo& e : st.list()) {
    EXPECT_EQ(e.stage, "routed");
    if (e.stage == "routed") ++routed_entries;
  }
  EXPECT_EQ(routed_entries, 6u);
  std::filesystem::remove_all(dir);
}

// --- differential oracle: cross-process generator determinism -------------

std::string self_hash_output(uint64_t seed) {
  // popen goes through /bin/sh, where /proc/self/exe would resolve to the
  // shell itself — resolve our own binary path first.
  char self[1024] = {0};
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) return {};
  char cmd[1280];
  std::snprintf(cmd, sizeof cmd, "'%s' --netlist-hash=%llu", self,
                static_cast<unsigned long long>(seed));
  FILE* pipe = popen(cmd, "r");
  if (pipe == nullptr) return {};
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int rc = pclose(pipe);
  EXPECT_EQ(rc, 0);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

uint64_t in_process_hash(uint64_t seed) {
  gen::RandomLogicOptions opt;
  opt.seed = seed;
  return check::netlist_hash(gen::make_random_logic(opt));
}

TEST(FuzzFlow, NetlistHashIdenticalAcrossProcesses) {
  const uint64_t seed = sweep_cases()[0].seed;
  const std::string a = self_hash_output(seed);
  const std::string b = self_hash_output(seed);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  char expect[32];
  std::snprintf(expect, sizeof expect, "%016llx",
                static_cast<unsigned long long>(in_process_hash(seed)));
  EXPECT_EQ(a, expect) << "child process hash differs from in-process hash";
}

// --- slow sign-off: paper benchmarks at default scale, full battery -------

class SlowPaperBench : public ::testing::TestWithParam<gen::Bench> {};

TEST_P(SlowPaperBench, FullCheckBothStylesAtDefaultScale) {
  const gen::Bench bench = GetParam();
  for (const tech::Style style : {tech::Style::k2D, tech::Style::kTMI}) {
    SCOPED_TRACE(tech::to_string(style));
    flow::FlowOptions o = flow::preset(bench, tech::Node::k45nm);
    o.style = style;
    o.lib = &lib_for(style);
    o.check_level = check::Level::kFull;
    const flow::FlowResult r = flow::run_flow(o);
    // Zero violations is the gate; routability is not (LDPC's random
    // bipartite connectivity overflows the grid at full scale by design —
    // the checkers verify the overflow is *reported* consistently).
    EXPECT_TRUE(r.checks.ok()) << r.checks.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(PaperBenches, SlowPaperBench,
                         ::testing::ValuesIn(gen::all_benches()),
                         [](const auto& info) {
                           return std::string(gen::to_string(info.param));
                         });

// --- slow sign-off: paper-scale iso-performance comparison ----------------
//
// ROADMAP item 1 ("make paper scale the default sign-off tier"): the full
// iso-performance 2D vs T-MI comparison at scale_shift 0 — no size
// reduction — with the complete checker battery on both runs. The recorded
// metrics (footprint / wirelength / power deltas) are what EXPERIMENTS.md
// "Paper-scale sign-off" quotes; the assertions pin their signs and the
// zero-violation gate so a regression cannot silently change the story.

TEST(SlowPaperScale, FpuIsoComparisonAtFullScaleFullChecks) {
  flow::FlowOptions o = flow::preset(gen::Bench::kFpu, tech::Node::k45nm);
  o.scale_shift = 0;  // paper scale: the full 52-bit mantissa datapath
  o.style = tech::Style::kTMI;
  o.check_level = check::Level::kFull;
  const flow::CompareResult cmp = flow::run_iso_comparison(
      o, lib_for(tech::Style::k2D), lib_for(tech::Style::kTMI));

  EXPECT_TRUE(cmp.flat.checks.ok()) << cmp.flat.checks.summary();
  EXPECT_TRUE(cmp.tmi.checks.ok()) << cmp.tmi.checks.summary();
  // Iso-performance: both styles closed at the same clock.
  EXPECT_EQ(cmp.flat.clock_ns, cmp.tmi.clock_ns);
  EXPECT_TRUE(cmp.flat.timing_met);
  EXPECT_TRUE(cmp.tmi.timing_met);
  // The paper's headline directions: T-MI shrinks footprint (~40%) and
  // total power; at this scale the FPU benefit is small but must not flip.
  EXPECT_LT(cmp.footprint_pct(), -30.0);
  EXPECT_LT(cmp.power_pct(), 0.0);

  std::printf(
      "paper-scale FPU sign-off (seed %llu, clock %.3f ns):\n"
      "  2D   : %6d cells  %10.1f um2  %8.1f um WL  %8.1f uW\n"
      "  T-MI : %6d cells  %10.1f um2  %8.1f um WL  %8.1f uW\n"
      "  delta: footprint %+6.1f%%  WL %+6.1f%%  power %+6.1f%% "
      "(cell %+5.1f%%, net %+5.1f%%)\n",
      20130529ULL, cmp.flat.clock_ns, cmp.flat.cells, cmp.flat.footprint_um2,
      cmp.flat.total_wl_um, cmp.flat.total_uw, cmp.tmi.cells,
      cmp.tmi.footprint_um2, cmp.tmi.total_wl_um, cmp.tmi.total_uw,
      cmp.footprint_pct(), cmp.wl_pct(), cmp.power_pct(),
      cmp.cell_power_pct(), cmp.net_power_pct());
  RecordProperty("footprint_pct", util::strf("%.2f", cmp.footprint_pct()));
  RecordProperty("wl_pct", util::strf("%.2f", cmp.wl_pct()));
  RecordProperty("power_pct", util::strf("%.2f", cmp.power_pct()));
}

}  // namespace
}  // namespace m3d

// Custom main: `--netlist-hash=<seed>` prints the structural hash of the
// random circuit for that seed and exits — the cross-process determinism
// test execs itself through this path.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--netlist-hash=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      const uint64_t seed =
          std::strtoull(argv[i] + std::strlen(prefix), nullptr, 10);
      std::printf("%016llx\n", static_cast<unsigned long long>(
                                   m3d::in_process_hash(seed)));
      return 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
