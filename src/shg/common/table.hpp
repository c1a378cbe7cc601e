// Column-aligned text tables for benchmark / experiment output.
//
// Every bench binary prints its paper table through this class so the
// produced rows are uniform and diffable against the paper's tables.
#pragma once

#include <string>
#include <vector>

namespace shg {

/// A simple right-padded text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  std::size_t num_rows() const { return rows_.size(); }

  /// Renders the table with aligned columns and a separator line.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace shg
