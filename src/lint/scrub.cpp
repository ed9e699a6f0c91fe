#include "lint/scrub.hpp"

#include <cctype>

namespace m3d::lint {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool word_at(std::string_view text, size_t pos, std::string_view word) {
  if (pos + word.size() > text.size()) return false;
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident(text[pos - 1])) return false;
  if (pos + word.size() < text.size() && is_ident(text[pos + word.size()])) {
    return false;
  }
  return true;
}

size_t find_word(std::string_view text, std::string_view word, size_t from) {
  for (size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

bool contains_word(std::string_view text, std::string_view word) {
  return find_word(text, word) != std::string_view::npos;
}

bool path_matches(std::string_view path,
                  const std::vector<std::string>& frags) {
  for (const auto& frag : frags) {
    if (path.find(frag) != std::string_view::npos) return true;
  }
  return false;
}

namespace {

/// Parses one comment's text for "m3d-lint: allow(L001,L002) reason" or
/// "m3d-lint: allow-file(L00x) reason".
void parse_directive(std::string_view comment, int line, std::string_view file,
                     Scrubbed& out) {
  // The tag must START the comment text (`// m3d-lint: ...`); prose that
  // merely mentions the directive syntax mid-sentence is not a directive.
  const size_t first = comment.find_first_not_of("/* \t");
  if (first == std::string_view::npos ||
      comment.compare(first, 9, "m3d-lint:") != 0) {
    return;
  }
  std::string_view rest = comment.substr(first + 9);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  Suppression sup;
  sup.line = line;
  if (rest.rfind("allow-file(", 0) == 0) {
    sup.file_wide = true;
    rest.remove_prefix(11);
  } else if (rest.rfind("allow(", 0) == 0) {
    rest.remove_prefix(6);
  } else {
    out.directive_errors.push_back(
        {std::string(file), line, "L000", Severity::kError,
         "malformed m3d-lint directive (expected allow(...) or "
         "allow-file(...))"});
    return;
  }
  const size_t close = rest.find(')');
  if (close == std::string_view::npos) {
    out.directive_errors.push_back({std::string(file), line, "L000",
                                    Severity::kError,
                                    "unterminated rule list in m3d-lint "
                                    "directive"});
    return;
  }
  std::string rule;
  for (char c : rest.substr(0, close)) {
    if (c == ',' || c == ' ') {
      if (!rule.empty()) sup.rules.push_back(rule);
      rule.clear();
    } else {
      rule += c;
    }
  }
  if (!rule.empty()) sup.rules.push_back(rule);

  std::string_view reason = rest.substr(close + 1);
  sup.has_reason =
      reason.find_first_not_of(" \t*/") != std::string_view::npos;
  if (sup.rules.empty()) {
    out.directive_errors.push_back({std::string(file), line, "L000",
                                    Severity::kError,
                                    "m3d-lint directive names no rules"});
    return;
  }
  if (!sup.has_reason) {
    out.directive_errors.push_back(
        {std::string(file), line, "L000", Severity::kError,
         "m3d-lint suppression must carry a reason after the rule list"});
  }
  out.suppressions.push_back(std::move(sup));
}

}  // namespace

Scrubbed scrub(std::string_view text, std::string_view file) {
  Scrubbed out;
  out.clean.assign(text.size(), ' ');
  int line = 1;
  size_t i = 0;
  const size_t n = text.size();
  auto copy = [&](size_t pos) { out.clean[pos] = text[pos]; };

  bool line_start = true;
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      out.clean[i] = '\n';
      ++line;
      ++i;
      line_start = true;
      continue;
    }
    // Preprocessor directive: blank the whole logical line (honoring
    // backslash continuations) so macro bodies never trip token rules.
    // L006 reads #include and #pragma once from the raw text.
    if (line_start && c == '#') {
      while (i < n) {
        if (text[i] == '\n') {
          if (i > 0 && text[i - 1] == '\\') {
            out.clean[i] = '\n';
            ++line;
            ++i;
            continue;
          }
          break;
        }
        ++i;
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) == 0) line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const size_t start = i;
      while (i < n && text[i] != '\n') ++i;
      parse_directive(text.substr(start, i - start), line, file, out);
      continue;
    }
    // Block comment (may span lines; directive applies to its first line).
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const size_t start = i;
      const int start_line = line;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          out.clean[i] = '\n';
          ++line;
        }
        ++i;
      }
      i = std::min(n, i + 2);
      parse_directive(text.substr(start, i - start), start_line, file, out);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
        (i == 0 || !is_ident(text[i - 1]))) {
      size_t d = i + 2;
      while (d < n && text[d] != '(') ++d;
      // Appended piecewise: operator+ on a literal trips a false-positive
      // -Wrestrict in GCC 12 at -O3.
      std::string terminator = ")";
      terminator += text.substr(i + 2, d - (i + 2));
      terminator += '"';
      size_t end = text.find(terminator, d);
      end = end == std::string_view::npos ? n : end + terminator.size();
      for (size_t k = i; k < end; ++k) {
        if (text[k] == '\n') {
          out.clean[k] = '\n';
          ++line;
        }
      }
      i = end;
      continue;
    }
    // Digit separator (1'000'000) — not a char literal.
    if (c == '\'' && i > 0 &&
        std::isdigit(static_cast<unsigned char>(text[i - 1])) != 0 &&
        i + 1 < n && std::isalnum(static_cast<unsigned char>(text[i + 1]))) {
      ++i;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') {
          out.clean[i] = '\n';
          ++line;
        }
        ++i;
      }
      ++i;  // closing quote
      continue;
    }
    copy(i);
    ++i;
  }
  return out;
}

bool suppresses(const Suppression& sup, std::string_view rule, int line) {
  if (!sup.has_reason) return false;
  if (std::find(sup.rules.begin(), sup.rules.end(), rule) ==
      sup.rules.end()) {
    return false;
  }
  return sup.file_wide || sup.line == line || sup.line == line - 1;
}

}  // namespace m3d::lint
