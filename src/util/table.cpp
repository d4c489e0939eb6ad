#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace ovp::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::addRow(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TextTable::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

void TextTable::print(std::ostream& os, bool csv) const {
  if (csv) return printCsv(os);
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emitRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emitRow(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 2 : 0);
  }
  for (std::size_t i = 0; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) emitRow(row);
}

void TextTable::printCsv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "," : "") << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace ovp::util
