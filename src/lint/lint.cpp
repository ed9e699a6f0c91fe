#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec.hpp"
#include "lint/index.hpp"
#include "lint/passes.hpp"
#include "lint/scrub.hpp"
#include "util/strf.hpp"

namespace m3d::lint {
namespace {

bool rule_enabled(const Options& opts, std::string_view rule) {
  if (opts.only_rules.empty()) return true;
  for (const auto& r : opts.only_rules) {
    if (r == rule) return true;
  }
  return false;
}

/// Last identifier in `text` (e.g. the declared name in "struct Foo").
std::string last_identifier(std::string_view text) {
  size_t end = text.size();
  while (end > 0 && !is_ident(text[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && is_ident(text[begin - 1])) --begin;
  return std::string(text.substr(begin, end - begin));
}

// ---------------------------------------------------------------------------
// Rule L001: forbidden randomness primitives outside util/rng.hpp.

void rule_l001(std::string_view file, std::string_view clean,
               const LineIndex& lines, const Options& opts,
               std::vector<Diagnostic>& out) {
  if (path_matches(file, opts.l001_allowed)) return;
  static const char* kTypes[] = {"random_device", "mt19937", "mt19937_64",
                                 "default_random_engine", "minstd_rand",
                                 "minstd_rand0"};
  for (const char* type : kTypes) {
    for (size_t pos = find_word(clean, type); pos != std::string_view::npos;
         pos = find_word(clean, type, pos + 1)) {
      out.push_back({std::string(file), lines.line_of(pos), "L001",
                     Severity::kError,
                     util::strf("std::%s is banned outside util/rng.hpp; "
                                "draw from an explicitly seeded util::Rng",
                                type)});
    }
  }
  static const char* kCalls[] = {"rand", "srand"};
  for (const char* call : kCalls) {
    for (size_t pos = find_word(clean, call); pos != std::string_view::npos;
         pos = find_word(clean, call, pos + 1)) {
      size_t after = pos + std::string_view(call).size();
      while (after < clean.size() && clean[after] == ' ') ++after;
      if (after < clean.size() && clean[after] == '(') {
        out.push_back({std::string(file), lines.line_of(pos), "L001",
                       Severity::kError,
                       util::strf("%s() is banned; draw from an explicitly "
                                  "seeded util::Rng",
                                  call)});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule L002: iteration over unordered containers in canonical-output files.

void rule_l002(std::string_view file, std::string_view clean,
               const LineIndex& lines, const Options& opts,
               std::vector<Diagnostic>& out) {
  if (!path_matches(file, opts.l002_scope)) return;

  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
  static const char* kContainers[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"};
  for (const char* container : kContainers) {
    for (size_t pos = find_word(clean, container);
         pos != std::string_view::npos;
         pos = find_word(clean, container, pos + 1)) {
      size_t i = pos + std::string_view(container).size();
      while (i < clean.size() && clean[i] == ' ') ++i;
      if (i >= clean.size() || clean[i] != '<') continue;  // e.g. #include
      int depth = 0;
      for (; i < clean.size(); ++i) {
        if (clean[i] == '<') ++depth;
        if (clean[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      while (i < clean.size() &&
             (std::isspace(static_cast<unsigned char>(clean[i])) != 0 ||
              clean[i] == '&' || clean[i] == '*')) {
        ++i;
      }
      size_t name_end = i;
      while (name_end < clean.size() && is_ident(clean[name_end])) ++name_end;
      if (name_end == i) continue;
      size_t next = name_end;
      while (next < clean.size() && clean[next] == ' ') ++next;
      if (next < clean.size() && clean[next] == '(') continue;  // function
      unordered_names.insert(std::string(clean.substr(i, name_end - i)));
    }
  }

  // Pass 2: for-loops whose range / iterator source is one of those names.
  for (size_t pos = find_word(clean, "for"); pos != std::string_view::npos;
       pos = find_word(clean, "for", pos + 1)) {
    size_t i = pos + 3;
    while (i < clean.size() &&
           std::isspace(static_cast<unsigned char>(clean[i])) != 0) {
      ++i;
    }
    if (i >= clean.size() || clean[i] != '(') continue;
    const size_t open = i;
    int depth = 0;
    for (; i < clean.size(); ++i) {
      if (clean[i] == '(') ++depth;
      if (clean[i] == ')' && --depth == 0) break;
    }
    const std::string_view head = clean.substr(open + 1, i - open - 1);

    // Range-for: text after the top-level ':' (skipping '::').
    std::string_view range;
    for (size_t k = 0; k < head.size(); ++k) {
      if (head[k] == ':') {
        if (k + 1 < head.size() && head[k + 1] == ':') {
          ++k;
          continue;
        }
        if (k > 0 && head[k - 1] == ':') continue;
        range = head.substr(k + 1);
        break;
      }
    }
    bool hit = false;
    if (!range.empty()) {
      if (range.find("unordered_") != std::string_view::npos) hit = true;
      for (const auto& name : unordered_names) {
        if (contains_word(range, name)) hit = true;
      }
    } else {
      // Iterator form: `for (auto it = name.begin(); ...)`.
      for (const auto& name : unordered_names) {
        const size_t at = head.find(name + ".");
        if (at != std::string_view::npos &&
            (at == 0 || !is_ident(head[at - 1])) &&
            (head.compare(at + name.size() + 1, 5, "begin") == 0 ||
             head.compare(at + name.size() + 1, 6, "cbegin") == 0)) {
          hit = true;
        }
      }
    }
    if (hit) {
      out.push_back(
          {std::string(file), lines.line_of(pos), "L002", Severity::kError,
           "iteration over an unordered container in a canonical-output "
           "file; bucket order is implementation-defined — copy into a "
           "sorted container (or std::map) before folding"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule L003: wall-clock reads outside util/log.

void rule_l003(std::string_view file, std::string_view clean,
               const LineIndex& lines, const Options& opts,
               std::vector<Diagnostic>& out) {
  if (path_matches(file, opts.l003_allowed)) return;
  static const char* kTokens[] = {"system_clock",  "high_resolution_clock",
                                  "localtime",     "gmtime",
                                  "strftime",      "mktime",
                                  "asctime"};
  for (const char* token : kTokens) {
    for (size_t pos = find_word(clean, token); pos != std::string_view::npos;
         pos = find_word(clean, token, pos + 1)) {
      out.push_back({std::string(file), lines.line_of(pos), "L003",
                     Severity::kError,
                     util::strf("wall-clock read (%s) outside util/log; "
                                "timestamps in result paths break "
                                "byte-identical canonical reports",
                                token)});
    }
  }
  // std::time(...) / ::time(...) — bare `time` is too common to flag.
  for (size_t pos = clean.find("::time"); pos != std::string_view::npos;
       pos = clean.find("::time", pos + 6)) {
    size_t after = pos + 6;
    if (after < clean.size() && is_ident(clean[after])) continue;
    while (after < clean.size() && clean[after] == ' ') ++after;
    if (after < clean.size() && clean[after] == '(') {
      out.push_back({std::string(file), lines.line_of(pos), "L003",
                     Severity::kError,
                     "wall-clock read (std::time) outside util/log"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule L004: float equality in sign-off arithmetic.

/// True when the token ending at `end` (exclusive, walking back over
/// identifier/number characters) is a floating-point literal.
bool float_literal_before(std::string_view text, size_t end) {
  while (end > 0 && text[end - 1] == ' ') --end;
  size_t begin = end;
  while (begin > 0 && (is_ident(text[begin - 1]) || text[begin - 1] == '.' ||
                       ((text[begin - 1] == '+' || text[begin - 1] == '-') &&
                        begin >= 2 &&
                        (text[begin - 2] == 'e' || text[begin - 2] == 'E')))) {
    --begin;
  }
  const std::string_view tok = text.substr(begin, end - begin);
  if (tok.empty() ||
      std::isdigit(static_cast<unsigned char>(tok.front())) == 0) {
    return false;
  }
  if (tok.size() > 1 && (tok[1] == 'x' || tok[1] == 'X')) return false;
  return tok.find('.') != std::string_view::npos ||
         tok.find('e') != std::string_view::npos ||
         tok.find('E') != std::string_view::npos ||
         tok.back() == 'f' || tok.back() == 'F';
}

/// True when the token starting at `begin` (skipping spaces and sign) is a
/// floating-point literal.
bool float_literal_after(std::string_view text, size_t begin) {
  while (begin < text.size() && text[begin] == ' ') ++begin;
  if (begin < text.size() && (text[begin] == '-' || text[begin] == '+')) {
    ++begin;
  }
  size_t end = begin;
  while (end < text.size() &&
         (is_ident(text[end]) || text[end] == '.' ||
          ((text[end] == '+' || text[end] == '-') && end >= 1 &&
           (text[end - 1] == 'e' || text[end - 1] == 'E')))) {
    ++end;
  }
  const std::string_view tok = text.substr(begin, end - begin);
  if (tok.empty() ||
      std::isdigit(static_cast<unsigned char>(tok.front())) == 0) {
    return false;
  }
  if (tok.size() > 1 && (tok[1] == 'x' || tok[1] == 'X')) return false;
  return tok.find('.') != std::string_view::npos ||
         tok.find('e') != std::string_view::npos ||
         tok.find('E') != std::string_view::npos ||
         tok.back() == 'f' || tok.back() == 'F';
}

void rule_l004(std::string_view file, std::string_view clean,
               const LineIndex& lines, const Options& opts,
               std::vector<Diagnostic>& out) {
  if (!path_matches(file, opts.l004_scope)) return;
  for (size_t pos = 0; pos + 1 < clean.size(); ++pos) {
    const bool eq = clean[pos] == '=' && clean[pos + 1] == '=';
    const bool ne = clean[pos] == '!' && clean[pos + 1] == '=';
    if (!eq && !ne) continue;
    // Skip <=, >=, ===-like runs and compound operators.
    if (pos > 0 && (clean[pos - 1] == '=' || clean[pos - 1] == '<' ||
                    clean[pos - 1] == '>' || clean[pos - 1] == '!')) {
      continue;
    }
    if (pos + 2 < clean.size() && clean[pos + 2] == '=') continue;
    if (float_literal_before(clean, pos) ||
        float_literal_after(clean, pos + 2)) {
      out.push_back(
          {std::string(file), lines.line_of(pos), "L004", Severity::kError,
           util::strf("floating-point %s comparison in sign-off code; use a "
                      "tolerance band (or an explicit >/< bound)",
                      eq ? "==" : "!=")});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule L005: shared-state hazards in exec-reachable code. Consumes the
// symbol index built for the whole-program passes — the same function
// bodies and namespace-scope statements, scanned once.

void rule_l005(std::string_view file, std::string_view clean,
               const LineIndex& lines, const FileIndex& index,
               const Options& opts, std::vector<Diagnostic>& out) {
  if (!path_matches(file, opts.l005_scope)) return;

  // (a) Mutable namespace-scope globals.
  for (const auto& decl : index.namespace_statements) {
    const std::string& s = decl.text;
    if (s.empty() || s[0] == '#') continue;
    static const char* kExempt[] = {
        "const",    "constexpr", "constinit", "using",
        "typedef",  "extern",    "template",  "static_assert",
        "namespace", "class",    "struct",    "union",
        "enum",      "friend",   "thread_local", "atomic",
        "mutex",     "once_flag", "condition_variable", "operator",
        "return",    "include",
    };
    bool exempt = false;
    for (const char* word : kExempt) {
      if (contains_word(s, word) || s.find(word) == 0) exempt = true;
    }
    if (exempt) continue;
    // A parameter list means a function declaration, not a variable. An
    // initializer after '=' may contain calls, so only look before '='.
    const size_t assign = s.find('=');
    const std::string_view head =
        assign == std::string::npos ? std::string_view(s)
                                    : std::string_view(s).substr(0, assign);
    if (head.find('(') != std::string_view::npos) continue;
    // Need at least a type token and a name token.
    std::istringstream iss{std::string(head)};
    std::string tok;
    int idents = 0;
    while (iss >> tok) ++idents;
    if (idents < 2) continue;
    out.push_back(
        {std::string(file), lines.line_of(decl.pos), "L005", Severity::kError,
         util::strf("mutable namespace-scope state `%s` in exec-reachable "
                    "code; make it const/constexpr, thread_local, atomic, or "
                    "guard it behind a mutex-owning accessor",
                    last_identifier(head).c_str())});
  }

  // (b) Members written in both locked and unlocked functions. Convention:
  // members end in '_'; constructors/destructors/operators are exempt
  // (initialization happens before sharing).
  struct Write {
    std::string name;
    size_t pos;
    bool locked;
  };
  std::vector<Write> writes;
  std::set<std::string> locked_names;
  for (const auto& fn : index.functions) {
    if (fn.is_special || fn.body_end <= fn.body_begin) continue;
    const std::string_view body =
        clean.substr(fn.body_begin, fn.body_end - fn.body_begin);
    const bool locked = body.find("lock_guard") != std::string_view::npos ||
                        body.find("scoped_lock") != std::string_view::npos ||
                        body.find("unique_lock") != std::string_view::npos ||
                        body.find("shared_lock") != std::string_view::npos ||
                        body.find(".lock()") != std::string_view::npos;
    for (size_t i = 0; i + 1 < body.size(); ++i) {
      if (body[i] != '_' || !(i + 1 == body.size() || !is_ident(body[i + 1]))) {
        continue;
      }
      // Identifier ending in '_' at position i; extract it.
      size_t begin = i;
      while (begin > 0 && is_ident(body[begin - 1])) --begin;
      if (begin == i) continue;  // bare underscore
      if (begin > 0 && (body[begin - 1] == '.' || body[begin - 1] == ':')) {
        continue;  // other.member_ / Class::member_ — qualified, skip
      }
      const std::string name(body.substr(begin, i - begin + 1));
      // A write is `name_ =`, `name_ +=` ... or a mutating member call.
      size_t after = i + 1;
      while (after < body.size() && body[after] == ' ') ++after;
      bool write = false;
      if (after < body.size()) {
        if (body[after] == '=' &&
            (after + 1 >= body.size() || body[after + 1] != '=')) {
          write = true;
        } else if (after + 1 < body.size() && body[after + 1] == '=' &&
                   (body[after] == '+' || body[after] == '-' ||
                    body[after] == '*' || body[after] == '/' ||
                    body[after] == '|' || body[after] == '&' ||
                    body[after] == '^')) {
          write = true;
        } else if (body.compare(after, 11, ".push_back(") == 0 ||
                   body.compare(after, 7, ".clear(") == 0 ||
                   body.compare(after, 8, ".insert(") == 0 ||
                   body.compare(after, 7, ".erase(") == 0 ||
                   body.compare(after, 8, ".emplace") == 0 ||
                   body.compare(after, 8, ".resize(") == 0) {
          write = true;
        }
      }
      if (begin >= 2 && body.compare(begin - 2, 2, "++") == 0) write = true;
      if (!write) continue;
      writes.push_back({name, fn.body_begin + begin, locked});
      if (locked) locked_names.insert(name);
    }
  }
  for (const auto& w : writes) {
    if (!w.locked && locked_names.count(w.name) != 0) {
      out.push_back(
          {std::string(file), lines.line_of(w.pos), "L005", Severity::kError,
           util::strf("`%s` is written under a lock elsewhere in this file "
                      "but without one here; either take the lock or move "
                      "the write out of exec-reachable code",
                      w.name.c_str())});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule L006: header self-sufficiency.

struct SymbolRule {
  const char* symbol;
  const char* header;
  bool needs_std;  // must appear as std::symbol
};

const SymbolRule kSymbolRules[] = {
    {"string", "string", true},
    {"string_view", "string_view", true},
    {"vector", "vector", true},
    {"array", "array", true},
    {"deque", "deque", true},
    {"map", "map", true},
    {"set", "set", true},
    {"unordered_map", "unordered_map", true},
    {"unordered_set", "unordered_set", true},
    {"optional", "optional", true},
    {"variant", "variant", true},
    {"function", "functional", true},
    {"unique_ptr", "memory", true},
    {"shared_ptr", "memory", true},
    {"make_unique", "memory", true},
    {"make_shared", "memory", true},
    {"mutex", "mutex", true},
    {"lock_guard", "mutex", true},
    {"scoped_lock", "mutex", true},
    {"unique_lock", "mutex", true},
    {"atomic", "atomic", true},
    {"thread", "thread", true},
    {"condition_variable", "condition_variable", true},
    {"pair", "utility", true},
    {"move", "utility", true},
    {"swap", "utility", true},
    {"exchange", "utility", true},
    {"sort", "algorithm", true},
    {"stable_sort", "algorithm", true},
    {"min", "algorithm", true},
    {"max", "algorithm", true},
    {"clamp", "algorithm", true},
    {"find_if", "algorithm", true},
    {"lower_bound", "algorithm", true},
    {"upper_bound", "algorithm", true},
    {"accumulate", "numeric", true},
    {"iota", "numeric", true},
    {"numeric_limits", "limits", true},
    {"ostringstream", "sstream", true},
    {"istringstream", "sstream", true},
    {"stringstream", "sstream", true},
    {"ofstream", "fstream", true},
    {"ifstream", "fstream", true},
    {"tuple", "tuple", true},
    {"queue", "queue", true},
    {"priority_queue", "queue", true},
    {"uint8_t", "cstdint", false},
    {"uint16_t", "cstdint", false},
    {"uint32_t", "cstdint", false},
    {"uint64_t", "cstdint", false},
    {"int8_t", "cstdint", false},
    {"int16_t", "cstdint", false},
    {"int32_t", "cstdint", false},
    {"int64_t", "cstdint", false},
};

void rule_l006(std::string_view file, std::string_view raw,
               std::string_view clean, const LineIndex& lines,
               std::vector<Diagnostic>& out) {
  if (file.size() < 4 || file.substr(file.size() - 4) != ".hpp") return;

  // Line-anchored so prose that merely mentions the directive doesn't count.
  bool has_pragma_once = false;
  for (size_t pos = raw.find("#pragma"); pos != std::string_view::npos;
       pos = raw.find("#pragma", pos + 7)) {
    const size_t bol = raw.rfind('\n', pos) + 1;  // npos+1 == 0 at line 1
    if (raw.find_first_not_of(" \t", bol) != pos) continue;
    const size_t eol = std::min(raw.find('\n', pos), raw.size());
    if (raw.substr(pos, eol - pos).find("once") != std::string_view::npos) {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    out.push_back({std::string(file), 1, "L006", Severity::kError,
                   "header is missing #pragma once"});
  }

  // Direct includes, from the raw text (the scrubber blanks "quoted" paths).
  std::set<std::string> includes;
  size_t line_start = 0;
  while (line_start < raw.size()) {
    size_t line_end = raw.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = raw.size();
    std::string_view line = raw.substr(line_start, line_end - line_start);
    const size_t hash = line.find("#include");
    if (hash != std::string_view::npos) {
      const size_t open = line.find_first_of("<\"", hash);
      if (open != std::string_view::npos) {
        const char close = line[open] == '<' ? '>' : '"';
        const size_t end = line.find(close, open + 1);
        if (end != std::string_view::npos) {
          includes.insert(std::string(line.substr(open + 1, end - open - 1)));
        }
      }
    }
    line_start = line_end + 1;
  }

  std::map<std::string, std::pair<std::string, int>> missing;  // header -> use
  for (const auto& rule : kSymbolRules) {
    if (includes.count(rule.header) != 0) continue;
    for (size_t pos = find_word(clean, rule.symbol);
         pos != std::string_view::npos;
         pos = find_word(clean, rule.symbol, pos + 1)) {
      if (rule.needs_std) {
        if (pos < 5 || clean.compare(pos - 5, 5, "std::") != 0) continue;
      }
      const auto it = missing.find(rule.header);
      const int line = lines.line_of(pos);
      if (it == missing.end() || line < it->second.second) {
        missing[rule.header] = {rule.symbol, line};
      }
      break;
    }
  }
  for (const auto& [header, use] : missing) {
    const bool bare = use.first.size() > 2 &&
                      use.first.compare(use.first.size() - 2, 2, "_t") == 0;
    out.push_back({std::string(file), use.second, "L006", Severity::kError,
                   util::strf("header uses %s%s but does not include <%s> "
                              "directly",
                              bare ? "" : "std::", use.first.c_str(),
                              header.c_str())});
  }
}

// ---------------------------------------------------------------------------

std::string normalize(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

/// Everything one file contributes to a lint run: the scrubbed stream and
/// symbol index (the whole-program passes need every file) plus the
/// per-file rule diagnostics.
struct FileAnalysis {
  std::string file;        // normalized path
  Scrubbed scrubbed;
  FileIndex index;
  std::vector<Diagnostic> diags;  // per-file rules, pre-suppression
};

void analyze_file(const SourceFile& sf, const Options& opts,
                  FileAnalysis& out) {
  out.file = normalize(sf.path);
  out.scrubbed = scrub(sf.text, out.file);
  const LineIndex lines(out.scrubbed.clean);
  out.index = build_file_index(out.file, out.scrubbed.clean, lines);
  if (rule_enabled(opts, "L001")) {
    rule_l001(out.file, out.scrubbed.clean, lines, opts, out.diags);
  }
  if (rule_enabled(opts, "L002")) {
    rule_l002(out.file, out.scrubbed.clean, lines, opts, out.diags);
  }
  if (rule_enabled(opts, "L003")) {
    rule_l003(out.file, out.scrubbed.clean, lines, opts, out.diags);
  }
  if (rule_enabled(opts, "L004")) {
    rule_l004(out.file, out.scrubbed.clean, lines, opts, out.diags);
  }
  if (rule_enabled(opts, "L005")) {
    rule_l005(out.file, out.scrubbed.clean, lines, out.index, opts,
              out.diags);
  }
  if (rule_enabled(opts, "L006")) {
    rule_l006(out.file, sf.text, out.scrubbed.clean, lines, out.diags);
  }
}

bool covered_by_suppressions(
    const std::map<std::string, const std::vector<Suppression>*>& sups_by_file,
    const std::string& file, std::string_view rule, int line) {
  const auto it = sups_by_file.find(file);
  if (it == sups_by_file.end()) return false;
  for (const auto& sup : *it->second) {
    if (suppresses(sup, rule, line)) return true;
  }
  return false;
}

}  // namespace

const char* to_string(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"L000", "malformed-suppression",
       "every suppression must name its rules and carry a written reason; a "
       "reasonless allow() is an unreviewable hole in the determinism gate"},
      {"L001", "forbidden-randomness",
       "all stochastic steps must draw from an explicitly seeded util::Rng "
       "so every run replays from a logged seed"},
      {"L002", "unordered-iteration",
       "bucket order of std::unordered_* is implementation-defined; folding "
       "over it in canonical-output files silently varies across stdlibs"},
      {"L003", "wall-clock",
       "timestamps in result paths break byte-identical canonical reports; "
       "only util/log (stamps) may read the wall clock"},
      {"L004", "float-equality",
       "sign-off comparisons must use tolerance bands; exact FP equality "
       "flips with -O flags, FMA contraction and parallel reduction order"},
      {"L005", "shared-state",
       "the work-stealing pool makes mutable globals and half-locked "
       "members data-race candidates that corrupt 2D-vs-T-MI comparisons"},
      {"L006", "header-hygiene",
       "headers must be self-sufficient: #pragma once plus direct includes "
       "for every std symbol used, so include order can never change "
       "behavior"},
      {"L010", "wall-clock-taint",
       "a wall-clock read transitively reachable from a canonical-output "
       "sink injects run-time timestamps into byte-compared results"},
      {"L011", "randomness-taint",
       "raw randomness or thread ids reachable from a canonical-output sink "
       "make reports differ across runs with identical inputs and seeds"},
      {"L012", "order-taint",
       "pointer-to-integer casts and unordered-container iteration "
       "reachable from a canonical-output sink leak allocator addresses and "
       "hash bucket order into results"},
      {"L013", "env-taint",
       "environment reads reachable from a canonical-output sink make "
       "results depend on ambient machine state a replay cannot see"},
      {"L014", "lock-order-cycle",
       "two locks acquired in both orders anywhere in the program "
       "(including through calls) is an AB-BA deadlock waiting for the "
       "right interleaving"},
      {"L015", "blocking-under-lock",
       "a locked section that calls (transitively) into the exec pool, "
       "sleeps or blocking I/O convoys every thread contending the lock and "
       "can deadlock against pool capacity"},
      {"L016", "discarded-status",
       "store::BlobReader and store::Store report torn or corrupt data "
       "ONLY through return values; a statement-discarded status turns "
       "corruption into silent wrong answers"},
  };
  return kRules;
}

std::vector<Diagnostic> lint_sources(const std::vector<SourceFile>& files,
                                     const Options& opts) {
  const size_t n = files.size();
  std::vector<FileAnalysis> analyses(n);

  // Stage 1: scrub + index + per-file rules, one file per pool task.
  exec::parallel_for(
      n,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          analyze_file(files[i], opts, analyses[i]);
        }
      },
      /*grain=*/1);

  // Stage 2: whole-program view.
  std::vector<FileIndex> indexes;
  indexes.reserve(n);
  for (const auto& a : analyses) indexes.push_back(a.index);
  const ProjectIndex project = build_project_index(indexes);

  // Stage 3: whole-program passes.
  std::vector<Diagnostic> project_diags;
  taint_pass(project, opts, project_diags);
  lock_pass(project, opts, project_diags);
  discard_pass(project, opts, project_diags);

  // Merge: per-file diagnostics with own-file suppressions, then project
  // diagnostics suppressed at EITHER end (primary or any related location).
  std::map<std::string, const std::vector<Suppression>*> sups_by_file;
  for (const auto& a : analyses) {
    sups_by_file[a.file] = &a.scrubbed.suppressions;
  }

  std::vector<Diagnostic> kept;
  for (auto& a : analyses) {
    for (auto& d : a.diags) {
      if (!covered_by_suppressions(sups_by_file, d.file, d.rule, d.line)) {
        kept.push_back(std::move(d));
      }
    }
    for (auto& d : a.scrubbed.directive_errors) kept.push_back(std::move(d));
  }
  for (auto& d : project_diags) {
    bool suppressed =
        covered_by_suppressions(sups_by_file, d.file, d.rule, d.line);
    for (const auto& r : d.related) {
      suppressed = suppressed ||
                   covered_by_suppressions(sups_by_file, r.file, d.rule,
                                           r.line);
    }
    if (!suppressed) kept.push_back(std::move(d));
  }

  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return kept;
}

std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view text,
                                    const Options& opts) {
  std::vector<SourceFile> files;
  files.push_back({std::string(path), std::string(text)});
  return lint_sources(files, opts);
}

std::vector<Diagnostic> lint_file(const std::string& path,
                                  const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{normalize(path), 0, "L000", Severity::kError,
             "cannot read file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str(), opts);
}

std::vector<Diagnostic> lint_tree(const std::vector<std::string>& roots,
                                  const Options& opts, size_t* files_seen) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(root, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& p = it->path();
      if (it->is_directory()) {
        const std::string dir = p.filename().string();
        if (std::find(opts.skip_dirs.begin(), opts.skip_dirs.end(), dir) !=
            opts.skip_dirs.end()) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(p.string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  if (files_seen != nullptr) *files_seen = paths.size();

  std::vector<SourceFile> sources;
  std::vector<Diagnostic> unreadable;
  sources.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      unreadable.push_back({normalize(path), 0, "L000", Severity::kError,
                            "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back({path, buf.str()});
  }
  auto diags = lint_sources(sources, opts);
  for (auto& d : unreadable) diags.push_back(std::move(d));
  return diags;
}

std::string format(const Diagnostic& d) {
  std::string out = util::strf("%s:%d: %s: [%s] %s", d.file.c_str(), d.line,
                               to_string(d.severity), d.rule.c_str(),
                               d.message.c_str());
  for (const auto& r : d.related) {
    out += util::strf("\n%s:%d: note: %s", r.file.c_str(), r.line,
                      r.note.c_str());
  }
  return out;
}

}  // namespace m3d::lint
