// Plain-text table rendering for human-readable reports: the CLI, the
// text blocks of run-plan analyses and the examples print their tables
// through this facility.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kronotri::util {

/// Format an integer with thousands separators: 1234567 -> "1,234,567".
std::string commas(std::uint64_t v);

/// Format like the paper's Table VI: 325729 -> "325.7K", 2.38e12 -> "2.38T".
std::string human(double v, int digits = 3);

/// Column-aligned ASCII table. Usage:
///   Table t({"Matrix", "Vertices", "Edges"});
///   t.row({"A", "325.7K", "1.1M"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& row(std::vector<std::string> cells);

  /// Render with a separator line under the header.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace kronotri::util
