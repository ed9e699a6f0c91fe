// m3d_lint: the project's determinism/concurrency static analyzer. The
// paper's power numbers (up to 32%/37% at iso-performance) rest on
// bit-reproducible 2D-vs-T-MI comparisons; PR 2/3 enforce reproducibility
// at runtime with differential fuzz oracles, and this analyzer catches the
// same bug classes statically, before a single flow run.
//
// Per-file token rules (PR 4):
//
//   L001 forbidden-randomness    rand()/std::random_device/std::mt19937
//                                outside util/rng.hpp — all stochastic steps
//                                must draw from an explicitly seeded
//                                util::Rng so runs replay from a logged seed.
//   L002 unordered-iteration     range-for over std::unordered_map/set in
//                                files feeding canonical reports, golden
//                                hashes or netlist_hash — bucket order is
//                                implementation-defined, so any fold over it
//                                silently varies across libstdc++ versions.
//   L003 wall-clock              std::chrono::system_clock and C time
//                                functions outside util/log —
//                                timestamps in result paths break
//                                byte-identical canonical reports.
//   L004 float-equality          ==/!= against floating-point literals in
//                                src/check, src/sta, src/power — sign-off
//                                comparisons must use tolerance bands.
//   L005 shared-state            mutable namespace-scope globals in
//                                exec-reachable code, and members written in
//                                both locked and unlocked contexts — the
//                                work-stealing pool makes any such state a
//                                data race candidate.
//   L006 header-hygiene          headers missing #pragma once or using std
//                                symbols without directly including the
//                                defining header — include-order luck is how
//                                ODR/alias surprises sneak into the build.
//
// Whole-program rules (see index.hpp for the call-graph substrate and
// passes.hpp for the pass semantics):
//
//   L010 wall-clock-taint        a wall-clock read transitively reachable
//   L011 randomness-taint        …raw randomness / thread ids…
//   L012 order-taint             …pointer-to-integer casts / unordered
//                                iteration…
//   L013 env-taint               …environment reads… from a canonical-output
//                                sink (report emitters, blob codecs,
//                                netlist_hash, golden comparison); the
//                                diagnostic quotes the sink -> source path.
//   L014 lock-order-cycle        two locks acquired in both orders anywhere
//                                in the program (including through calls).
//   L015 blocking-under-lock     a locked section calling (transitively)
//                                into the exec pool or blocking I/O.
//   L016 discarded-status        statement-discarded sticky-fail returns
//                                (store::BlobReader, store::Store).
//
// The analyzer is deliberately AST-lite: it scrubs comments and string
// literals ONCE per file, tracks namespace/class/function scope by brace
// classification, indexes function definitions and call sites, and
// pattern-matches tokens; per-file rules and whole-program passes share the
// same scrubbed stream and symbol index. It trades exhaustiveness for zero
// build-time dependencies and whole-tree speed; the escape hatch for a
// heuristic false positive is an inline suppression that names the rule and
// a reason:
//
//   foo();  // m3d-lint: allow(L003) logging only, never enters a report
//
// A suppression covers its own line and the following line, must carry a
// non-empty reason, and `allow-file(L00x)` at the top of a file covers the
// whole file. A path-shaped diagnostic (taint route, lock cycle) is
// suppressed by a directive at EITHER end of the quoted path. Suppressions
// without a reason are themselves diagnosed (L000).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace m3d::lint {

enum class Severity { kWarning, kError };

const char* to_string(Severity severity);

/// Secondary location quoted by a path-shaped diagnostic (the sink of a
/// taint route, the opposite acquisition of a lock cycle). A suppression
/// at a related location silences the diagnostic too.
struct RelatedLocation {
  std::string file;
  int line = 0;
  std::string note;
};

/// One rule violation, pinned to file:line. `rule` is the stable ID
/// ("L001".."L016", "L000" for malformed suppressions).
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
  std::vector<RelatedLocation> related{};
};

/// Static metadata for one rule (--list-rules, SARIF tool.driver.rules and
/// the README table).
struct RuleInfo {
  const char* id;
  const char* title;
  const char* rationale;
};

const std::vector<RuleInfo>& rule_table();

/// Scoping knobs. Path lists are matched as substrings of the
/// '/'-normalized path, so "src/util/rng.hpp" matches both relative and
/// absolute spellings of that file.
struct Options {
  /// Empty = all rules; otherwise only the listed IDs run.
  std::vector<std::string> only_rules;

  /// L001: the one place allowed to own raw randomness primitives.
  std::vector<std::string> l001_allowed = {"src/util/rng.hpp"};

  /// L002: files whose outputs feed canonical reports, golden files or
  /// netlist_hash — iteration order there is result-affecting.
  std::vector<std::string> l002_scope = {
      "src/check/", "src/flow/", "src/sta/", "src/power/",
      "src/liberty/liberty_writer", "src/circuit/verilog",
  };

  /// L003: the only home for wall-clock reads (log stamps).
  std::vector<std::string> l003_allowed = {"src/util/log"};

  /// L004: sign-off arithmetic that must compare with tolerance bands.
  std::vector<std::string> l004_scope = {"src/check/", "src/sta/",
                                         "src/power/"};

  /// L005: code reachable from exec::ThreadPool workers.
  std::vector<std::string> l005_scope = {
      "src/exec/", "src/flow/", "src/sta/",  "src/route/",
      "src/place/", "src/util/", "src/check/",
  };

  /// L010-L013: canonical-output sinks — functions no nondeterminism
  /// source may transitively reach. Matched by unqualified name or a
  /// "::"-suffix of the qualified name.
  std::vector<std::string> taint_sinks = {
      "to_canonical_json",
      "to_canonical_json_string",
      "netlist_hash",
      "compare_to_golden",
  };

  /// L010-L013: files whose every function is a sink (canonical codecs).
  std::vector<std::string> taint_sink_files = {"src/store/blob."};

  /// L010-L013: functions the taint walk never descends into — audited
  /// side channels whose values cannot flow back into canonical output.
  std::vector<std::string> taint_barriers = {};

  /// L015: callee names that may block or fan out onto the exec pool.
  std::vector<std::string> l015_blocking = {
      "parallel_for", "parallel_reduce", "sleep_for", "sleep_until",
      "accept",       "connect",         "poll",      "recv",
      "send",         "flock",           "system",
  };

  /// Directory-name fragments lint_tree skips entirely.
  std::vector<std::string> skip_dirs = {"build", ".git", "lint_fixtures",
                                        "out_figs"};
};

/// One in-memory translation unit for lint_sources.
struct SourceFile {
  std::string path;
  std::string text;
};

/// Lints a set of translation units as ONE program: per-file rules run per
/// file (each file scrubbed and indexed exactly once, spread over the exec
/// default pool), then the whole-program passes run over the combined
/// symbol index. Diagnostics are identical at any pool width. This is the
/// core entry point; lint_source/lint_file/lint_tree wrap it.
std::vector<Diagnostic> lint_sources(const std::vector<SourceFile>& files,
                                     const Options& opts = {});

/// Lints one in-memory translation unit. `path` is used only for rule
/// scoping and for the `file` field of diagnostics — fixture tests feed
/// synthetic paths to steer scoping.
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view text,
                                    const Options& opts = {});

/// Reads and lints one file; a read failure is reported as a diagnostic.
std::vector<Diagnostic> lint_file(const std::string& path,
                                  const Options& opts = {});

/// Recursively lints every .hpp/.cpp under each root (deterministic
/// lexicographic order) as one program, honoring Options::skip_dirs.
/// `files_seen`, when non-null, receives the number of files visited.
std::vector<Diagnostic> lint_tree(const std::vector<std::string>& roots,
                                  const Options& opts = {},
                                  size_t* files_seen = nullptr);

/// "file:line: error: [L001] message" — the grep/IDE-clickable form. Path
/// diagnostics append their related locations as "note:" lines.
std::string format(const Diagnostic& d);

}  // namespace m3d::lint
