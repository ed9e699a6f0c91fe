// Aligned ASCII table builder used by every bench binary to print
// paper-style result tables.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace m3d::util {

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before any add_row.
  void set_header(std::vector<std::string> cols);
  /// Adds a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> cols);
  /// Adds a horizontal separator between the rows added before/after. A
  /// separator after the last row merges into the table's closing rule.
  void add_separator();

  size_t num_rows() const { return rows_.size(); }
  /// Renders the table with column alignment (first column left, rest right).
  std::string to_string() const;
  void print() const;

 private:
  struct Row {
    std::vector<std::string> cols;
    bool separator = false;
  };
  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Formats a percent difference like the paper's tables: "-41.7%".
std::string pct(double ratio_minus_one);

}  // namespace m3d::util
