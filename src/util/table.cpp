#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/strf.hpp"

namespace m3d::util {

void Table::set_header(std::vector<std::string> cols) {
  assert(rows_.empty());
  header_ = std::move(cols);
}

void Table::add_row(std::vector<std::string> cols) {
  assert(header_.empty() || cols.size() == header_.size());
  rows_.push_back(Row{std::move(cols), false});
}

void Table::add_separator() { rows_.push_back(Row{{}, true}); }

std::string Table::to_string() const {
  const size_t ncol = header_.empty()
                          ? (rows_.empty() ? 0 : rows_.front().cols.size())
                          : header_.size();
  std::vector<size_t> width(ncol, 0);
  auto widen = [&](const std::vector<std::string>& cols) {
    for (size_t i = 0; i < cols.size() && i < ncol; ++i) {
      width[i] = std::max(width[i], cols[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row.cols);

  size_t total = 0;
  for (size_t w : width) total += w + 3;
  if (total > 0) total -= 1;

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  auto hline = [&] { out += std::string(total, '-') + "\n"; };
  auto emit = [&](const std::vector<std::string>& cols) {
    for (size_t i = 0; i < ncol; ++i) {
      const std::string& cell = i < cols.size() ? cols[i] : std::string();
      const int w = static_cast<int>(width[i]);
      if (i == 0) {
        out += strf("%-*s", w, cell.c_str());
      } else {
        out += strf("%*s", w, cell.c_str());
      }
      out += (i + 1 < ncol) ? " | " : "\n";
    }
  };
  hline();
  if (!header_.empty()) {
    emit(header_);
    hline();
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].separator) {
      emit(rows_[r].cols);
    } else if (r + 1 < rows_.size()) {  // the closing rule below ends it
      hline();
    }
  }
  hline();
  return out;
}

void Table::print() const {
  const std::string s = to_string();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

std::string pct(double ratio_minus_one) {
  return strf("%+.1f%%", 100.0 * ratio_minus_one);
}

}  // namespace m3d::util
