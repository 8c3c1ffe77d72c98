// Minimal aligned-column table printer; sweep_runner prints each
// experiment's results with it.
#ifndef UNICC_COMMON_TABLE_H_
#define UNICC_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace unicc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Appends one row; the number of cells must match the header count.
  void AddRow(std::vector<std::string> cells);

  // Renders with aligned columns and a separator under the header.
  std::string ToString() const;

  // Convenience formatting helpers for cells.
  static std::string Num(double v, int precision = 2);
  static std::string Int(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace unicc

#endif  // UNICC_COMMON_TABLE_H_
