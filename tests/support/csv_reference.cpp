#include "tests/support/csv_reference.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::test {

namespace {

using data::CsvReadOptions;
using data::ParseReport;
using data::PointId;
using data::PointSet;

std::vector<std::string> split_commas(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) comma = line.size();
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

bool parse_double(const std::string& s, double& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool valid_id(double v) { return v >= 0.0 && v < 4294967296.0 && v == std::floor(v); }

}  // namespace

PointSet reference_read_csv(std::istream& is, const CsvReadOptions& options,
                            ParseReport* report) {
  ParseReport local_report;
  ParseReport& rep = report != nullptr ? *report : local_report;

  // Header, id column and width come from the first two non-blank lines.
  std::string line;
  bool first = true;
  bool has_header = false;
  bool has_id_column = false;
  std::vector<std::string> header;
  std::optional<std::vector<std::string>> first_row;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto cells = split_commas(line);
    if (first) {
      first = false;
      double probe = 0.0;
      if (!parse_double(cells[0], probe)) {
        has_header = true;
        has_id_column = (cells[0] == "id");
        header = std::move(cells);
        continue;
      }
    }
    first_row = std::move(cells);
    break;
  }
  MRSKY_REQUIRE(first_row.has_value(), "CSV contains no data rows");
  const std::size_t width = first_row->size();
  if (has_header) {
    MRSKY_REQUIRE(header.size() == width, "CSV header width differs from data width");
  }
  const std::size_t dim = has_id_column ? width - 1 : width;
  MRSKY_REQUIRE(dim >= 1, "CSV rows must contain at least one attribute");

  std::vector<double> values;
  std::vector<PointId> ids;
  std::vector<double> coords(dim);
  std::size_t row = 0;
  auto take = [&](const std::vector<std::string>& cells) {
    const std::size_t r = row++;
    std::string defect;
    if (cells.size() != width) {
      defect = "expected " + std::to_string(width) + " cells, got " +
               std::to_string(cells.size());
    }
    std::size_t c = 0;
    PointId id = static_cast<PointId>(r);
    if (defect.empty() && has_id_column) {
      double idv = 0.0;
      if (!parse_double(cells[0], idv) || !valid_id(idv)) {
        defect = "bad id: " + cells[0];
      } else {
        id = static_cast<PointId>(idv);
      }
      c = 1;
    }
    for (std::size_t a = 0; defect.empty() && c < width; ++c, ++a) {
      double v = 0.0;
      if (!parse_double(cells[c], v)) {
        defect = "bad number: " + cells[c];
      } else if (options.lenient && options.require_finite && !std::isfinite(v)) {
        defect = "non-finite value: " + cells[c];
      } else if (options.lenient && options.require_non_negative && v < 0.0) {
        defect = "negative value: " + cells[c];
      }
      coords[a] = v;
    }
    if (!defect.empty()) {
      MRSKY_REQUIRE(options.lenient, "CSV row " + std::to_string(r) + ": " + defect);
      rep.add_issue(r, defect);
      return;
    }
    ++rep.rows_read;
    ids.push_back(id);
    values.insert(values.end(), coords.begin(), coords.end());
  };

  take(*first_row);
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    take(split_commas(line));
  }
  MRSKY_REQUIRE(!ids.empty(), "CSV contains no usable data rows");
  return PointSet(dim, std::move(values), std::move(ids));
}

}  // namespace mrsky::test
