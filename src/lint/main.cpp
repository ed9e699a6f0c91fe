// m3d_lint CLI: lints the given files/directories against the project's
// determinism/concurrency rules (see lint/lint.hpp for the rule set).
//
//   m3d_lint [--rules=L001,L004] [--json] [--sarif[=path]] [--list-rules]
//            paths...
//
//   --sarif      emit a SARIF 2.1.0 log (to stdout, or to `path`) for
//                GitHub code scanning instead of the line-oriented report.
//
// Per-file analysis runs on the exec default pool ($M3D_THREADS wide;
// M3D_THREADS=1 is serial); diagnostics are identical at any width.
//
// Exit codes: 0 clean, 1 unsuppressed diagnostics, 2 usage error. This is
// what the `lint.tree` tier-1 ctest runs over src/, tests/ and tools/.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/sarif.hpp"

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: m3d_lint [--rules=L001,L002,...] [--json] "
               "[--sarif[=path]] [--list-rules] <path>...\n");
}

void list_rules() {
  for (const auto& rule : m3d::lint::rule_table()) {
    std::printf("%s  %-22s %s\n", rule.id, rule.title, rule.rationale);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  for (char c : list) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  m3d::lint::Options opts;
  std::vector<std::string> roots;
  bool json = false;
  bool sarif = false;
  std::string sarif_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules();
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif = true;
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--rules=", 0) == 0) {
      opts.only_rules = split_commas(arg.substr(8));
    } else if (arg.rfind("--", 0) == 0) {
      print_usage();
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    print_usage();
    return 2;
  }

  const auto t0 = std::chrono::steady_clock::now();
  size_t files_seen = 0;
  const auto diags = m3d::lint::lint_tree(roots, opts, &files_seen);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  if (sarif) {
    const std::string log = m3d::lint::to_sarif(diags);
    if (sarif_path.empty()) {
      std::fwrite(log.data(), 1, log.size(), stdout);
    } else {
      std::ofstream out(sarif_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "m3d_lint: cannot write %s\n",
                     sarif_path.c_str());
        return 2;
      }
      out << log;
    }
    std::fprintf(stderr, "m3d_lint: %zu file(s), %zu diagnostic(s), %lld ms\n",
                 files_seen, diags.size(),
                 static_cast<long long>(elapsed));
  } else if (json) {
    std::printf("[");
    for (size_t i = 0; i < diags.size(); ++i) {
      const auto& d = diags[i];
      std::printf(
          "%s\n  {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
          "\"severity\": \"%s\", \"message\": \"%s\"}",
          i == 0 ? "" : ",", json_escape(d.file).c_str(), d.line,
          d.rule.c_str(), m3d::lint::to_string(d.severity),
          json_escape(d.message).c_str());
    }
    std::printf("%s]\n", diags.empty() ? "" : "\n");
  } else {
    for (const auto& d : diags) {
      std::printf("%s\n", m3d::lint::format(d).c_str());
    }
    std::printf("m3d_lint: %zu file(s), %zu diagnostic(s), %lld ms\n",
                files_seen, diags.size(), static_cast<long long>(elapsed));
  }
  return diags.empty() ? 0 : 1;
}
