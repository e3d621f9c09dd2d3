// CSV persistence for point sets, so experiments can be re-run against a
// fixed on-disk dataset (or against the real QWS file if the user has one).
//
// Format: optional header line, then one row per point. If the first column
// is named "id" (or `with_ids` is set on write), it carries the PointId;
// otherwise ids are assigned sequentially on load.
//
// The reader never holds the whole file: each lane reads its byte range of a
// regular file through one bounded window, and the parsed points land in one
// buffer sized from a first counting pass (DESIGN.md decision 18).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "src/dataset/parse_report.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

struct CsvWriteOptions {
  bool with_header = true;
  bool with_ids = true;
  int precision = 17;  ///< max_digits10: doubles round-trip exactly
};

/// Writes `ps` to `os`. Throws mrsky::RuntimeError on stream failure.
void write_csv(std::ostream& os, const PointSet& ps, const CsvWriteOptions& options = {});
void write_csv_file(const std::string& path, const PointSet& ps,
                    const CsvWriteOptions& options = {});

struct CsvReadOptions {
  /// Strict (default): throw on the first ragged row or unparsable cell.
  /// Lenient: drop such rows and account for them in the ParseReport —
  /// the input-layer counterpart of the engine's skip-bad-records mode.
  bool lenient = false;
  /// Lenient mode only: also drop rows containing NaN or infinity.
  bool require_finite = true;
  /// Lenient mode only: also drop rows with negative attributes (MR-Angle's
  /// hyperspherical transform requires the non-negative orthant).
  bool require_non_negative = false;
};

/// Reads a point set. Detects a header (any non-numeric first line) and an
/// "id" first column automatically; an id must be an integer in [0, 2^32).
/// Throws on ragged rows or parse errors unless `options.lenient`; with a
/// non-null `report`, fills in what was accepted and dropped. Row numbers in
/// messages and in the report count non-blank lines after the header.
[[nodiscard]] PointSet read_csv(std::istream& is, const CsvReadOptions& options = {},
                                ParseReport* report = nullptr);

/// read_csv on a file. A regular file is split into byte ranges of at least
/// 1 MiB, up to one per hardware thread, and parsed in parallel; the result,
/// the report and the strict-mode error are those of a serial read.
[[nodiscard]] PointSet read_csv_file(const std::string& path,
                                     const CsvReadOptions& options = {},
                                     ParseReport* report = nullptr);

namespace detail {

/// How the CSV reader cuts its input. Internal: the public readers use the
/// defaults; tests force tiny values so range and window edges fall inside
/// short inputs.
struct CsvChunking {
  std::size_t ranges = 0;                       ///< byte ranges; 0 = by size and lanes
  std::size_t window = std::size_t{256} << 10;  ///< read window per lane, bytes
};

[[nodiscard]] PointSet read_csv(std::istream& is, const CsvReadOptions& options,
                                ParseReport* report, const CsvChunking& chunking);
[[nodiscard]] PointSet read_csv_file(const std::string& path, const CsvReadOptions& options,
                                     ParseReport* report, const CsvChunking& chunking);

}  // namespace detail

}  // namespace mrsky::data
