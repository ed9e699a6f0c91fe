#include <gtest/gtest.h>

#include <array>

#include "check/check.hpp"
#include "gen/builder.hpp"
#include "gen/gen.hpp"
#include "store/blob.hpp"
#include "test_fixtures.hpp"
#include "util/rng.hpp"

namespace m3d::gen {
namespace {

TEST(Gen, AllBenchmarksValid) {
  for (Bench b : all_benches()) {
    GenOptions o;
    o.scale_shift = 3;
    const circuit::Netlist nl = make_benchmark(b, o);
    EXPECT_TRUE(nl.validate()) << to_string(b);
    EXPECT_GT(nl.num_instances(), 100) << to_string(b);
    EXPECT_GT(nl.count_sequential(), 0) << to_string(b);
    EXPECT_NE(nl.clock_net(), circuit::kInvalid) << to_string(b);
  }
}

TEST(Gen, DeterministicForSameSeed) {
  GenOptions o;
  o.scale_shift = 3;
  const auto a = make_des(o);
  const auto b = make_des(o);
  ASSERT_EQ(a.num_instances(), b.num_instances());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (int i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(a.inst(i).func, b.inst(i).func);
    EXPECT_EQ(a.inst(i).in_nets, b.inst(i).in_nets);
  }
}

TEST(Gen, SeedChangesDesStructure) {
  GenOptions a, b;
  a.scale_shift = b.scale_shift = 3;
  b.seed = a.seed + 1;
  const auto na = make_des(a);
  const auto nb = make_des(b);
  // Same sizes (structure), different random wiring.
  bool any_diff = na.num_instances() != nb.num_instances();
  for (int i = 0; !any_diff && i < na.num_instances(); ++i) {
    any_diff = na.inst(i).in_nets != nb.inst(i).in_nets;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Gen, ScaleShiftShrinks) {
  for (Bench b : {Bench::kLdpc, Bench::kDes, Bench::kM256, Bench::kFpu}) {
    GenOptions big, small;
    big.scale_shift = 2;
    small.scale_shift = 3;
    EXPECT_GT(make_benchmark(b, big).num_instances(),
              make_benchmark(b, small).num_instances())
        << to_string(b);
  }
}

// The FPU's mantissa multiplier and M256 share the carry-save row builder
// (Gb::csa_row); their netlists, gate emission order included, are pinned
// at every scale the benches and tests use.
TEST(Gen, MultiplierNetlistsArePinned) {
  struct Pin {
    Bench bench;
    int scale_shift;
    uint64_t hash;
  };
  const std::vector<Pin> pins = {
      {Bench::kFpu, 1, 0xecfb2f1053db2cf2ull},  {Bench::kFpu, 2, 0x4603c339f3537da6ull},
      {Bench::kFpu, 3, 0xc070718fe3e044a6ull},  {Bench::kFpu, 4, 0x889602f9a561eb23ull},
      {Bench::kM256, 1, 0xd68959b60ae8f1e6ull}, {Bench::kM256, 2, 0xbebbf79b80fb2a16ull},
      {Bench::kM256, 3, 0xfd1e2e5ca38277f8ull}, {Bench::kM256, 4, 0x1702fb59b2b745e3ull},
  };
  for (const Pin& pin : pins) {
    GenOptions o;
    o.scale_shift = pin.scale_shift;
    const uint64_t h = check::netlist_hash(make_benchmark(pin.bench, o));
    EXPECT_EQ(h, pin.hash) << to_string(pin.bench) << " scale_shift " << pin.scale_shift
                           << ": 0x" << store::key_hex(h);
  }
}

// --- Builder / LUT-synthesis property tests ---------------------------------

TEST(Builder, LutMatchesTruthTableExhaustively) {
  util::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(3));  // 3..5 inputs
    circuit::Netlist nl;
    Gb g(&nl);
    const auto ins = g.input_bus("x", n);
    std::vector<uint32_t> values(size_t{1} << n);
    for (auto& v : values) v = static_cast<uint32_t>(rng.below(4));  // 2 outputs
    const auto outs = g.lut(ins, values, 2);
    for (uint32_t m = 0; m < (1u << n); ++m) {
      std::map<circuit::NetId, bool> sim;
      for (int i = 0; i < n; ++i) sim[ins[static_cast<size_t>(i)]] = (m >> i) & 1u;
      for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) sim.emplace(nid, false);
      test::eval_netlist(nl, &sim);
      for (int o = 0; o < 2; ++o) {
        EXPECT_EQ(sim[outs[static_cast<size_t>(o)]],
                  ((values[m] >> o) & 1u) != 0)
            << "trial " << trial << " minterm " << m << " out " << o;
      }
    }
  }
}

TEST(Builder, LutSharesLogicAcrossOutputs) {
  // Two identical outputs must not double the gate count.
  circuit::Netlist nl;
  Gb g(&nl);
  const auto ins = g.input_bus("x", 4);
  std::vector<uint32_t> values(16);
  for (uint32_t m = 0; m < 16; ++m) {
    const uint32_t bit = (m * 11 + 3) % 2;
    values[m] = bit | (bit << 1);  // out1 == out0
  }
  const auto outs = g.lut(ins, values, 2);
  EXPECT_EQ(outs[0], outs[1]);  // fully shared
}

TEST(Builder, FastAddMatchesArithmetic) {
  util::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const int w = 4 + static_cast<int>(rng.below(14));
    circuit::Netlist nl;
    Gb g(&nl);
    const auto a = g.input_bus("a", w);
    const auto b = g.input_bus("b", w);
    circuit::NetId cout = circuit::kInvalid;
    const auto sum = g.fast_add(a, b, g.zero(), &cout, 4);
    for (int rep = 0; rep < 16; ++rep) {
      const uint64_t av = rng.next_u64() & ((uint64_t{1} << w) - 1);
      const uint64_t bv = rng.next_u64() & ((uint64_t{1} << w) - 1);
      std::map<circuit::NetId, bool> sim;
      for (int i = 0; i < w; ++i) {
        sim[a[static_cast<size_t>(i)]] = (av >> i) & 1u;
        sim[b[static_cast<size_t>(i)]] = (bv >> i) & 1u;
      }
      for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) sim.emplace(nid, false);
      test::eval_netlist(nl, &sim);
      uint64_t got = 0;
      for (int i = 0; i < w; ++i) {
        if (sim[sum[static_cast<size_t>(i)]]) got |= (uint64_t{1} << i);
      }
      if (sim[cout]) got |= (uint64_t{1} << w);
      EXPECT_EQ(got, av + bv) << "w=" << w;
    }
  }
}

// A combinational array of csa_row rows resolved by a ripple add computes
// the product.
TEST(Builder, CsaRowsMultiply) {
  constexpr int w = 6;
  circuit::Netlist nl;
  Gb g(&nl);
  const auto a = g.input_bus("a", w);
  const auto b = g.input_bus("b", w);
  std::vector<circuit::NetId> sum(w, circuit::kInvalid), carry(w, circuit::kInvalid);
  std::vector<circuit::NetId> low;
  for (int i = 0; i < w; ++i) low.push_back(g.csa_row(a, b[static_cast<size_t>(i)], &sum, &carry));
  for (auto* v : {&sum, &carry}) {
    for (auto& n : *v) {
      if (n == circuit::kInvalid) n = g.zero();
    }
  }
  circuit::NetId cout = circuit::kInvalid;
  const auto high = g.ripple_add(sum, carry, g.zero(), &cout);
  for (uint64_t av = 0; av < (1u << w); av += 5) {
    for (uint64_t bv = 0; bv < (1u << w); bv += 3) {
      std::map<circuit::NetId, bool> sim;
      for (int i = 0; i < w; ++i) {
        sim[a[static_cast<size_t>(i)]] = (av >> i) & 1u;
        sim[b[static_cast<size_t>(i)]] = (bv >> i) & 1u;
      }
      for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) sim.emplace(nid, false);
      test::eval_netlist(nl, &sim);
      uint64_t got = 0;
      for (int i = 0; i < w; ++i) {
        if (sim[low[static_cast<size_t>(i)]]) got |= uint64_t{1} << i;
        if (sim[high[static_cast<size_t>(i)]]) got |= uint64_t{1} << (w + i);
      }
      EXPECT_FALSE(sim[cout]);
      EXPECT_EQ(got, av * bv) << av << " * " << bv;
    }
  }
}

TEST(Builder, GateHelpersComputeCorrectly) {
  circuit::Netlist nl;
  Gb g(&nl);
  const auto a = g.input("a");
  const auto b = g.input("b");
  const auto s = g.input("s");
  struct Case {
    circuit::NetId net;
    std::array<bool, 8> expect;  // indexed by minterm s b a... a=bit0,b=bit1,s=bit2
  };
  const std::vector<Case> cases = {
      {g.and2(a, b), {0, 0, 0, 1, 0, 0, 0, 1}},
      {g.or2(a, b), {0, 1, 1, 1, 0, 1, 1, 1}},
      {g.xor2(a, b), {0, 1, 1, 0, 0, 1, 1, 0}},
      {g.mux2(a, b, s), {0, 1, 0, 1, 0, 0, 1, 1}},
  };
  for (uint32_t m = 0; m < 8; ++m) {
    std::map<circuit::NetId, bool> sim{{a, (m & 1) != 0},
                                       {b, (m & 2) != 0},
                                       {s, (m & 4) != 0}};
    for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) sim.emplace(nid, false);
    test::eval_netlist(nl, &sim);
    for (size_t c = 0; c < cases.size(); ++c) {
      EXPECT_EQ(sim[cases[c].net], cases[c].expect[m]) << "case " << c << " m " << m;
    }
  }
}

TEST(Builder, ConstantsEvaluate) {
  circuit::Netlist nl;
  Gb g(&nl);
  const auto a = g.input("a");
  const auto z = g.zero();
  const auto o = g.one();
  for (bool av : {false, true}) {
    std::map<circuit::NetId, bool> sim{{a, av}};
    for (circuit::NetId nid = 0; nid < nl.num_nets(); ++nid) sim.emplace(nid, false);
    test::eval_netlist(nl, &sim);
    EXPECT_FALSE(sim[z]);
    EXPECT_TRUE(sim[o]);
  }
}

TEST(Gen, PaperClockTargets) {
  EXPECT_DOUBLE_EQ(paper_target_clock_ns(Bench::kAes, false), 0.8);
  EXPECT_DOUBLE_EQ(paper_target_clock_ns(Bench::kAes, true), 0.27);
  EXPECT_DOUBLE_EQ(paper_target_clock_ns(Bench::kLdpc, false), 2.4);
}

TEST(Gen, LdpcIsWireFriendlyRandomGraph) {
  GenOptions o;
  o.scale_shift = 4;
  const auto nl = make_ldpc(o);
  // Regular structure: every variable register present.
  EXPECT_GE(nl.count_sequential(), (2048 >> 4) * 3);  // sign+2 mag bits per var
}

}  // namespace
}  // namespace m3d::gen
