// Tests for the m3d_lint static analyzer (lint/lint.hpp): each rule's
// positive and negative fixtures, scoping, the suppression syntax, the
// tree walker, the symbol indexer / call-graph substrate (lint/index.hpp),
// the whole-program passes (L010-L016), and the SARIF export. Fixture
// files live in tests/lint_fixtures/ and are linted as DATA under
// synthetic paths, so scoped rules (L002/L004/L005) can be steered into
// or out of scope per test.
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.hpp"
#include "lint/index.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "lint/scrub.hpp"

namespace m3d {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(M3D_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::set<std::string> rules_of(const std::vector<lint::Diagnostic>& diags) {
  std::set<std::string> out;
  for (const auto& d : diags) out.insert(d.rule);
  return out;
}

int count_rule(const std::vector<lint::Diagnostic>& diags,
               const std::string& rule) {
  int n = 0;
  for (const auto& d : diags) n += d.rule == rule ? 1 : 0;
  return n;
}

TEST(Lint, RuleTableListsAllRules) {
  const auto& rules = lint::rule_table();
  ASSERT_EQ(rules.size(), 14u);
  EXPECT_STREQ(rules.front().id, "L000");
  EXPECT_STREQ(rules.back().id, "L016");
}

/// Builds an in-memory project from fixture files under a synthetic
/// src/fix/ root (outside every scoped-rule path list).
std::vector<lint::SourceFile> fixture_project(
    std::initializer_list<const char*> names) {
  std::vector<lint::SourceFile> files;
  for (const char* n : names) {
    files.push_back({std::string("src/fix/") + n, read_fixture(n)});
  }
  return files;
}

TEST(Lint, L001FlagsRawRandomness) {
  const auto diags =
      lint::lint_source("src/gen/fixture.cpp", read_fixture("l001_positive.cpp"));
  EXPECT_EQ(count_rule(diags, "L001"), 4) << "rd, mt19937, rand, srand";
}

TEST(Lint, L001IgnoresBlessedRngAndLookalikes) {
  const auto diags =
      lint::lint_source("src/gen/fixture.cpp", read_fixture("l001_negative.cpp"));
  EXPECT_EQ(rules_of(diags).count("L001"), 0u);
}

TEST(Lint, L001AllowedInsideRngHeader) {
  const auto diags =
      lint::lint_source("src/util/rng.hpp", read_fixture("l001_positive.cpp"));
  EXPECT_EQ(rules_of(diags).count("L001"), 0u);
}

TEST(Lint, L002FlagsUnorderedIterationInCanonicalFiles) {
  const auto diags = lint::lint_source("src/check/fixture.cpp",
                                       read_fixture("l002_positive.cpp"));
  EXPECT_EQ(count_rule(diags, "L002"), 2) << "range-for and iterator form";
}

TEST(Lint, L002IgnoresOrderedTraversalAndLookups) {
  const auto diags = lint::lint_source("src/check/fixture.cpp",
                                       read_fixture("l002_negative.cpp"));
  EXPECT_EQ(rules_of(diags).count("L002"), 0u);
}

TEST(Lint, L002OnlyAppliesToCanonicalOutputScope) {
  const auto diags = lint::lint_source("src/place/fixture.cpp",
                                       read_fixture("l002_positive.cpp"));
  EXPECT_EQ(rules_of(diags).count("L002"), 0u);
}

TEST(Lint, L003FlagsWallClockReads) {
  const auto diags =
      lint::lint_source("src/gen/fixture.cpp", read_fixture("l003_positive.cpp"));
  EXPECT_EQ(count_rule(diags, "L003"), 4)
      << "system_clock, high_resolution_clock, std::time, localtime";
}

TEST(Lint, L003IgnoresMonotonicClockAndLookalikes) {
  const auto diags =
      lint::lint_source("src/gen/fixture.cpp", read_fixture("l003_negative.cpp"));
  EXPECT_EQ(rules_of(diags).count("L003"), 0u);
}

TEST(Lint, L003AllowedInTraceAndLog) {
  const auto diags = lint::lint_source("src/util/log.cpp",
                                       read_fixture("l003_positive.cpp"));
  EXPECT_EQ(rules_of(diags).count("L003"), 0u);
}

TEST(Lint, L004FlagsFloatEqualityInSignoffCode) {
  const auto diags =
      lint::lint_source("src/sta/fixture.cpp", read_fixture("l004_positive.cpp"));
  EXPECT_EQ(count_rule(diags, "L004"), 3);
}

TEST(Lint, L004IgnoresToleranceBandsAndIntegers) {
  const auto diags =
      lint::lint_source("src/sta/fixture.cpp", read_fixture("l004_negative.cpp"));
  EXPECT_EQ(rules_of(diags).count("L004"), 0u);
}

TEST(Lint, L004OnlyAppliesToSignoffScope) {
  const auto diags =
      lint::lint_source("src/gen/fixture.cpp", read_fixture("l004_positive.cpp"));
  EXPECT_EQ(rules_of(diags).count("L004"), 0u);
}

TEST(Lint, L005FlagsMutableGlobalsAndHalfLockedWrites) {
  const auto diags = lint::lint_source("src/exec/fixture.cpp",
                                       read_fixture("l005_positive.cpp"));
  EXPECT_EQ(count_rule(diags, "L005"), 3)
      << "two mutable globals plus one unlocked items_ write";
}

TEST(Lint, L005IgnoresBlessedStateAndConsistentLocking) {
  const auto diags = lint::lint_source("src/exec/fixture.cpp",
                                       read_fixture("l005_negative.cpp"));
  EXPECT_EQ(rules_of(diags).count("L005"), 0u);
}

TEST(Lint, L006FlagsMissingPragmaOnceAndIncludes) {
  const auto diags = lint::lint_source("src/geom/fixture.hpp",
                                       read_fixture("l006_positive.hpp"));
  // Missing #pragma once + <string>, <vector>, <cstdint>, <algorithm>.
  EXPECT_EQ(count_rule(diags, "L006"), 5);
}

TEST(Lint, L006AcceptsSelfSufficientHeader) {
  const auto diags = lint::lint_source("src/geom/fixture.hpp",
                                       read_fixture("l006_negative.hpp"));
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, L006OnlyAppliesToHeaders) {
  const auto diags = lint::lint_source("src/geom/fixture.cpp",
                                       read_fixture("l006_positive.hpp"));
  EXPECT_EQ(rules_of(diags).count("L006"), 0u);
}

TEST(Lint, SuppressionSilencesSameAndNextLineButRequiresReason) {
  const auto diags = lint::lint_source("src/gen/fixture.cpp",
                                       read_fixture("suppression.cpp"));
  // The two reasoned directives silence their targets; the reason-less one
  // is an L000 and its rand() plus the trailing system_clock still fire.
  EXPECT_EQ(count_rule(diags, "L000"), 1);
  EXPECT_EQ(count_rule(diags, "L001"), 1);
  EXPECT_EQ(count_rule(diags, "L003"), 1);
  for (const auto& d : diags) {
    if (d.rule == "L001") {
      EXPECT_EQ(d.line, 14);
    } else if (d.rule == "L003") {
      EXPECT_EQ(d.line, 16);
    }
  }
}

TEST(Lint, FileWideSuppression) {
  const std::string src =
      "// m3d-lint: allow-file(L003) synthetic fixture exercising stamps\n"
      "#include <chrono>\n"
      "auto a = std::chrono::system_clock::now();\n"
      "auto b = std::chrono::system_clock::now();\n";
  const auto diags = lint::lint_source("src/gen/fixture.cpp", src);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, ViolationsInsideStringsAndCommentsAreIgnored) {
  const std::string src =
      "// prose about rand() and std::chrono::system_clock\n"
      "const char* kDoc = \"rand() seeds std::mt19937\";\n"
      "/* block comment: srand(42) */\n";
  const auto diags = lint::lint_source("src/gen/fixture.cpp", src);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, OnlyRulesFilter) {
  lint::Options opts;
  opts.only_rules = {"L003"};
  const auto diags = lint::lint_source(
      "src/gen/fixture.cpp", read_fixture("l001_positive.cpp"), opts);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, FormatIsGrepClickable) {
  lint::Diagnostic d{"src/sta/sta.cpp", 42, "L004", lint::Severity::kError,
                     "exact FP compare"};
  EXPECT_EQ(lint::format(d),
            "src/sta/sta.cpp:42: error: [L004] exact FP compare");
}

TEST(Lint, FormatAppendsRelatedLocationsAsNotes) {
  lint::Diagnostic d{"src/a.cpp", 3, "L014", lint::Severity::kError, "cycle"};
  d.related.push_back({"src/b.cpp", 9, "reverse order here"});
  EXPECT_EQ(lint::format(d),
            "src/a.cpp:3: error: [L014] cycle\n"
            "src/b.cpp:9: note: reverse order here");
}

TEST(Lint, TreeWalkIsDeterministicAndFindsFixtureViolations) {
  lint::Options opts;
  // The fixtures dir is normally skipped; lint it directly as the root.
  size_t files_a = 0;
  size_t files_b = 0;
  const auto a = lint::lint_tree({M3D_LINT_FIXTURE_DIR}, opts, &files_a);
  const auto b = lint::lint_tree({M3D_LINT_FIXTURE_DIR}, opts, &files_b);
  EXPECT_EQ(files_a, 22u);
  EXPECT_EQ(files_a, files_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(lint::format(a[i]), lint::format(b[i]));
  }
  // Unscoped rules fire even under the fixtures' real paths.
  const auto seen = rules_of(a);
  EXPECT_EQ(seen.count("L001"), 1u);
  EXPECT_EQ(seen.count("L003"), 1u);
  EXPECT_EQ(seen.count("L006"), 1u);
  // The whole-program fixtures: each positive fires, each suppressed twin
  // and negative stays silent (the twins differ ONLY by their directive).
  EXPECT_EQ(count_rule(a, "L010"), 1);
  EXPECT_EQ(count_rule(a, "L014"), 1);
  EXPECT_EQ(count_rule(a, "L015"), 2);
  EXPECT_EQ(count_rule(a, "L016"), 2);
}

// --- Whole-program passes: L010-L016 over the call graph -----------------

TEST(Lint, L010FlagsTwoHopTaintPathIntoCanonicalSink) {
  lint::Options opts;
  opts.only_rules = {"L010"};
  const auto diags =
      lint::lint_sources(fixture_project({"l010_taint_positive.cpp"}), opts);
  ASSERT_EQ(diags.size(), 1u);
  const auto& d = diags.front();
  EXPECT_EQ(d.rule, "L010");
  EXPECT_EQ(d.line, 11) << "anchored at the system_clock read, not the sink";
  EXPECT_NE(d.message.find("system_clock"), std::string::npos);
  EXPECT_NE(d.message.find("to_canonical_json"), std::string::npos);
  EXPECT_NE(d.message.find("stamp_mid"), std::string::npos)
      << "the hop between source and sink must be quoted";
  ASSERT_EQ(d.related.size(), 1u);
  EXPECT_EQ(d.related.front().line, 18) << "sink definition quoted as note";
}

TEST(Lint, L010SuppressedAtSourceEndIsSilent) {
  lint::Options opts;
  opts.only_rules = {"L010"};
  const auto diags = lint::lint_sources(
      fixture_project({"l010_taint_suppressed.cpp"}), opts);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, L010UnreachableSourceIsClean) {
  lint::Options opts;
  opts.only_rules = {"L010"};
  const auto diags =
      lint::lint_sources(fixture_project({"l010_taint_negative.cpp"}), opts);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, L011RandomnessAndL013EnvTaint) {
  const std::string src =
      "int noisy() { return rand(); }\n"
      "int relay() { return noisy(); }\n"
      "int netlist_hash() { return relay(); }\n"
      "const char* home() { return getenv(\"HOME\"); }\n"
      "int to_canonical_json() { return home() != nullptr ? 1 : 0; }\n";
  lint::Options opts;
  opts.only_rules = {"L011", "L013"};
  const auto diags = lint::lint_sources({{"src/fix/taint_mix.cpp", src}}, opts);
  EXPECT_EQ(count_rule(diags, "L011"), 1) << "rand via relay via netlist_hash";
  EXPECT_EQ(count_rule(diags, "L013"), 1) << "getenv one hop under the sink";
}

TEST(Lint, L012OrderTaintFromPointerToIntegerCast) {
  const std::string src =
      "unsigned long long key(const void* p) {\n"
      "  return reinterpret_cast<uintptr_t>(p);\n"
      "}\n"
      "int to_canonical_json(const void* p) { return key(p) != 0 ? 1 : 0; }\n";
  lint::Options opts;
  opts.only_rules = {"L012"};
  const auto diags = lint::lint_sources({{"src/fix/order.cpp", src}}, opts);
  ASSERT_EQ(count_rule(diags, "L012"), 1);
  EXPECT_NE(diags.front().message.find("uintptr_t"), std::string::npos);
}

TEST(Lint, TaintBarrierStopsTheWalk) {
  const std::string src =
      "long long stamped() { return std::chrono::system_clock::now()\n"
      "    .time_since_epoch().count(); }\n"
      "int audited_side_channel() { return stamped() != 0 ? 1 : 0; }\n"
      "int to_canonical_json() { return audited_side_channel(); }\n";
  lint::Options opts;
  opts.only_rules = {"L010"};
  const auto flagged = lint::lint_sources({{"src/fix/bar.cpp", src}}, opts);
  EXPECT_EQ(count_rule(flagged, "L010"), 1);
  opts.taint_barriers = {"audited_side_channel"};
  const auto barred = lint::lint_sources({{"src/fix/bar.cpp", src}}, opts);
  EXPECT_TRUE(barred.empty());
}

TEST(Lint, L014FlagsAbBaCycleOnce) {
  lint::Options opts;
  opts.only_rules = {"L014"};
  const auto diags =
      lint::lint_sources(fixture_project({"l014_cycle_positive.cpp"}), opts);
  ASSERT_EQ(diags.size(), 1u) << "one diagnostic per unordered lock pair";
  const auto& d = diags.front();
  EXPECT_NE(d.message.find("order_a"), std::string::npos);
  EXPECT_NE(d.message.find("order_b"), std::string::npos);
  EXPECT_NE(d.message.find("AB-BA"), std::string::npos);
  ASSERT_FALSE(d.related.empty());
  EXPECT_NE(d.related.front().note.find("second_then_first"),
            std::string::npos)
      << "the reverse acquisition must be quoted as the other end";
}

TEST(Lint, L014SuppressedAtReverseAcquisitionIsSilent) {
  lint::Options opts;
  opts.only_rules = {"L014"};
  const auto diags = lint::lint_sources(
      fixture_project({"l014_cycle_suppressed.cpp"}), opts);
  EXPECT_TRUE(diags.empty())
      << "a directive at EITHER end of the cycle silences it";
}

TEST(Lint, L014ConsistentOrderIsClean) {
  lint::Options opts;
  opts.only_rules = {"L014"};
  const auto diags =
      lint::lint_sources(fixture_project({"l014_cycle_negative.cpp"}), opts);
  EXPECT_TRUE(diags.empty());
}

TEST(Lint, L015FlagsBlockingDirectlyAndTransitivelyUnderLock) {
  lint::Options opts;
  opts.only_rules = {"L015"};
  const auto diags = lint::lint_sources(
      fixture_project({"l015_blocking_positive.cpp"}), opts);
  ASSERT_EQ(diags.size(), 2u) << "direct sleep + the helper_naps route; the "
                                 "unlocked helper alone must not fire";
  EXPECT_NE(diags[0].message.find("sleep_for"), std::string::npos);
  EXPECT_NE(diags[0].message.find("wait_mu"), std::string::npos);
  bool transitive = false;
  for (const auto& d : diags) {
    if (d.message.find("helper_naps") != std::string::npos) {
      transitive = true;
      ASSERT_FALSE(d.related.empty());
      EXPECT_NE(d.related.front().note.find("sleep_for"), std::string::npos);
    }
  }
  EXPECT_TRUE(transitive);
}

TEST(Lint, L016FlagsDiscardedStickyFailStatus) {
  lint::Options opts;
  opts.only_rules = {"L016"};
  const auto diags = lint::lint_sources(
      fixture_project({"l016_discard_positive.cpp"}), opts);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_NE(diags[0].message.find("BlobReader::u32"), std::string::npos);
  EXPECT_NE(diags[1].message.find("BlobReader::u64"), std::string::npos);
}

TEST(Lint, L016ConsumedStatusIsClean) {
  lint::Options opts;
  opts.only_rules = {"L016"};
  const auto diags = lint::lint_sources(
      fixture_project({"l016_discard_negative.cpp"}), opts);
  EXPECT_TRUE(diags.empty())
      << "branched, assigned and (void)-cast statuses are all consumed";
}

// --- Symbol indexer / call-graph substrate (lint/index.hpp) --------------

lint::FileIndex index_of(const std::string& path, const std::string& text) {
  const auto sc = lint::scrub(text, path);
  const lint::LineIndex lines(sc.clean);
  return lint::build_file_index(path, sc.clean, lines);
}

TEST(LintIndex, ResolvesOverloadsByArity) {
  const std::string src =
      "int scale(int a) { return a; }\n"
      "int scale(int a, int b) { return a + b; }\n"
      "int use_one() { return scale(7); }\n"
      "int use_two() { return scale(7, 9); }\n";
  const auto idx =
      lint::build_project_index({index_of("src/fix/overloads.cpp", src)});
  ASSERT_EQ(idx.functions.size(), 4u);
  ASSERT_EQ(idx.functions[2].calls.size(), 1u);
  const auto one = idx.resolve(idx.functions[2].calls[0]);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(idx.functions[one[0]].max_args, 1);
  const auto two = idx.resolve(idx.functions[3].calls[0]);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(idx.functions[two[0]].max_args, 2);
}

TEST(LintIndex, QualifiesMethodsAndKeepsRecursionEdges) {
  const std::string src =
      "namespace geo {\n"
      "struct Box {\n"
      "  int area() const { return w * h; }\n"
      "  int w = 0;\n"
      "  int h = 0;\n"
      "};\n"
      "int walk(int n) { return n <= 0 ? 0 : walk(n - 1); }\n"
      "}  // namespace geo\n";
  const auto idx =
      lint::build_project_index({index_of("src/fix/methods.cpp", src)});
  const int area = idx.find("geo::Box::area");
  ASSERT_GE(area, 0);
  EXPECT_EQ(idx.functions[area].qualified, "geo::Box::area");
  const int walk = idx.find("walk");
  ASSERT_GE(walk, 0);
  ASSERT_EQ(idx.callees[walk].size(), 1u) << "self-recursion is one edge";
  EXPECT_EQ(idx.callees[walk][0], walk);
}

TEST(LintIndex, UnresolvedExternalCallsCarryNoEdges) {
  const std::string src = "int local() { return printf(\"x\"); }\n";
  const auto idx =
      lint::build_project_index({index_of("src/fix/external.cpp", src)});
  const int local = idx.find("local");
  ASSERT_GE(local, 0);
  ASSERT_EQ(idx.functions[local].calls.size(), 1u);
  EXPECT_TRUE(idx.resolve(idx.functions[local].calls[0]).empty());
  EXPECT_TRUE(idx.callees[local].empty());
}

TEST(LintIndex, MemberCallsResolveByStrictArityWithoutFallback) {
  const std::string src =
      "struct Cache { int get(int k) { return k; } };\n"
      "int hit(Cache& c) { return c.get(3); }\n"
      "int miss(Cache& c) { return c.get(); }\n";
  const auto idx =
      lint::build_project_index({index_of("src/fix/member.cpp", src)});
  ASSERT_EQ(idx.functions.size(), 3u);
  ASSERT_EQ(idx.functions[1].calls.size(), 1u);
  EXPECT_TRUE(idx.functions[1].calls[0].member);
  const auto hit = idx.resolve(idx.functions[1].calls[0]);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(idx.functions[hit[0]].qualified, "Cache::get");
  // A member call with no arity match stays EXTERNAL: the fallback that
  // keeps plain calls over-approximated would bind `.get()` to every
  // same-name definition in the project and fabricate lock cycles.
  EXPECT_TRUE(idx.resolve(idx.functions[2].calls[0]).empty());
}

TEST(LintIndex, LambdaBodiesSeeNoEnclosingLocks) {
  const std::string src =
      "void spawn(std::mutex& mu) {\n"
      "  std::lock_guard<std::mutex> g(mu);\n"
      "  run([&] { helper(); });\n"
      "  direct();\n"
      "}\n";
  const auto fi = index_of("src/fix/lambda.cpp", src);
  ASSERT_EQ(fi.functions.size(), 1u) << "lambdas fold into their encloser";
  bool saw_helper = false;
  bool saw_direct = false;
  for (const auto& c : fi.functions[0].calls) {
    if (c.name == "helper") {
      saw_helper = true;
      EXPECT_TRUE(c.locks_held.empty())
          << "the lambda may run after the guard releases";
    }
    if (c.name == "direct") {
      saw_direct = true;
      EXPECT_EQ(c.locks_held.size(), 1u);
    }
  }
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_direct);
}

// --- SARIF 2.1.0 export --------------------------------------------------

TEST(Lint, SarifExportHasSchemaRuleTableAndRelatedLocations) {
  lint::Options opts;
  opts.only_rules = {"L014"};
  const auto diags =
      lint::lint_sources(fixture_project({"l014_cycle_positive.cpp"}), opts);
  ASSERT_EQ(diags.size(), 1u);
  const std::string sarif = lint::to_sarif(diags);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0"), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\""), std::string::npos);
  EXPECT_NE(sarif.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
  // The full rule table is embedded in tool.driver.rules.
  for (const auto& r : lint::rule_table()) {
    EXPECT_NE(sarif.find(std::string("\"") + r.id + "\""), std::string::npos)
        << r.id << " missing from tool.driver.rules";
  }
}

// --- Parallel analysis ----------------------------------------------------

TEST(Lint, ParallelAndSerialRunsProduceIdenticalDiagnostics) {
  const auto files = fixture_project(
      {"l001_positive.cpp", "l003_positive.cpp", "l010_taint_positive.cpp",
       "l014_cycle_positive.cpp", "l015_blocking_positive.cpp",
       "l016_discard_positive.cpp", "suppression.cpp"});
  exec::set_default_threads(1);
  const auto a = lint::lint_sources(files);
  exec::set_default_threads(4);
  const auto b = lint::lint_sources(files);
  exec::set_default_threads(0);  // restore the environment-resolved pool
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(lint::format(a[i]), lint::format(b[i]));
  }
}

// --- L003 allow-rule audit for the trace subsystem (src/obs) -------------
//
// The Chrome trace exporter carries exactly one sanctioned wall-clock site
// (the `captured_at` metadata stamp in src/obs/export.cpp). That site is
// handled by inline reasoned suppressions, NOT by widening l003_allowed:
// the allow list names the only file whose *purpose* is wall-clock time
// (util/log's stamps; span timing in src/obs reads only steady_clock), and
// growing it would exempt whole files forever. These tests pin all three
// facts: the default allow list is unchanged, the real export.cpp lints
// clean through its suppressions, and the same code without suppressions
// still fires.

TEST(Lint, L003AllowListUnchangedByObsSubsystem) {
  const lint::Options defaults;
  const std::vector<std::string> expected = {"src/util/log"};
  EXPECT_EQ(defaults.l003_allowed, expected)
      << "src/obs must use inline allow(L003) suppressions, not the list";
}

std::string read_repo_source(const char* rel) {
  // The fixture dir is tests/lint_fixtures, so the repo root is two up.
  const std::string path =
      std::string(M3D_LINT_FIXTURE_DIR) + "/../../" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing source " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Lint, L003ObsExporterLintsCleanThroughInlineSuppressions) {
  const std::string src = read_repo_source("src/obs/export.cpp");
  // Sanity: the sanctioned site and its reasoned suppressions are present.
  EXPECT_NE(src.find("std::time(nullptr)"), std::string::npos);
  EXPECT_NE(src.find("m3d-lint: allow(L003)"), std::string::npos);
  const auto diags = lint::lint_source("src/obs/export.cpp", src);
  EXPECT_EQ(count_rule(diags, "L003"), 0)
      << "export.cpp's wall-clock stamp must stay inline-suppressed";
  EXPECT_EQ(count_rule(diags, "L000"), 0) << "suppressions must carry reasons";
}

TEST(Lint, L003StillFiresOnUnsuppressedObsWallClock) {
  // The same exporter source with its allow directives stripped: every
  // wall-clock token must fire, proving the audit above tests suppression
  // mechanics and not an accidental scope exemption for src/obs.
  std::string src = read_repo_source("src/obs/export.cpp");
  std::istringstream in(src);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("m3d-lint: allow(") == std::string::npos) out << line << '\n';
  }
  const auto diags = lint::lint_source("src/obs/export.cpp", out.str());
  // Two flagged reads: std::time(nullptr) and strftime. (gmtime_r is a
  // distinct identifier from the linted gmtime token and never fires.)
  EXPECT_EQ(count_rule(diags, "L003"), 2) << "std::time and strftime";
}

}  // namespace
}  // namespace m3d
