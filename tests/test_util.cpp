#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"

namespace m3d::util {
namespace {

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ChildStreamsIndependentOfParentPosition) {
  Rng parent1(77);
  Rng child_a(parent1, "place");
  parent1.next_u64();  // advance parent
  Rng child_b(parent1, "place");
  EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  Rng other(Rng(77), "route");
  EXPECT_NE(Rng(Rng(77), "place").next_u64(), other.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(9);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.1);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, ShufflePermutes) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, TrailingSeparatorMergesIntoTheClosingRule) {
  Table t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"y", "2"});
  t.add_separator();
  const std::string rule = std::string(14, '-') + "\n";
  // Top rule, header rule, the inner separator, and one closing rule.
  EXPECT_EQ(t.to_string(), rule + "name | value\n" + rule + "x    |     1\n" +
                               rule + "y    |     2\n" + rule);
}

TEST(Table, PctFormatting) {
  EXPECT_EQ(pct(-0.417), "-41.7%");
  EXPECT_EQ(pct(0.042), "+4.2%");
}

}  // namespace
}  // namespace m3d::util
