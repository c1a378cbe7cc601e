#include "shg/common/table.hpp"

#include <algorithm>
#include <sstream>

#include "shg/common/error.hpp"

namespace shg {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  SHG_REQUIRE(!header_.empty(), "table header must not be empty");
}

void Table::add_row(std::vector<std::string> row) {
  SHG_REQUIRE(row.size() == header_.size(),
              "row arity must match header arity");
  rows_.push_back(std::move(row));
}

namespace {
std::vector<std::size_t> column_widths(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

void append_padded(std::ostringstream& os, const std::string& s,
                   std::size_t width) {
  os << s;
  for (std::size_t i = s.size(); i < width; ++i) os << ' ';
}
}  // namespace

std::string Table::to_string() const {
  const auto widths = column_widths(header_, rows_);
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) os << "  ";
    append_padded(os, header_[c], widths[c]);
  }
  os << '\n';
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      append_padded(os, row[c], widths[c]);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace shg
