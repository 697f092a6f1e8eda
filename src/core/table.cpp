#include "core/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace parsgd {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TableWriter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TableWriter::add_rule() { rows_.emplace_back(); }

void TableWriter::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_rule = [&] {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << '+' << std::string(width[c] + 2, '-');
    }
    os << "+\n";
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << "| " << cell << std::string(width[c] - cell.size() + 1, ' ');
    }
    os << "|\n";
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      print_rule();
    } else {
      print_row(row);
    }
  }
  print_rule();
}

std::string fmt_sig3(double v) {
  if (!std::isfinite(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  const double a = std::abs(v);
  int prec = 2;
  if (a >= 100) prec = 0;
  else if (a >= 10) prec = 1;
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string fmt_sec(double v) {
  if (!std::isfinite(v)) return "inf";
  return fmt_sig3(v);
}

std::string fmt_msec(double seconds) {
  if (!std::isfinite(seconds)) return "inf";
  return fmt_sig3(seconds * 1e3);
}

}  // namespace parsgd
