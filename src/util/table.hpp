// Column-aligned text tables for benchmark drivers.
//
// Every bench binary prints the series/rows of the paper figure it
// regenerates through this class, so output formatting is uniform and easy
// to diff against EXPERIMENTS.md.  Can also emit CSV for plotting.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace ovp::util {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; cell count must equal header count.
  void addRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

  /// Pretty, column-aligned rendering with a header rule; with `csv`
  /// (a binary's --csv flag), printCsv's rendering instead.
  void print(std::ostream& os, bool csv = false) const;

  /// Comma-separated rendering (no alignment, header row first).
  void printCsv(std::ostream& os) const;

  [[nodiscard]] std::size_t rowCount() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ovp::util
