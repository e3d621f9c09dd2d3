// Test-only reference CSV reader: the simple serial reader the library used
// before its chunk-parallel ingest, kept as the oracle the differential suite
// compares data::read_csv_file and data::read_csv against. It reads one line
// at a time with std::getline and splits every line into std::string cells,
// so its semantics are easy to audit. Its one deliberate change from that
// reader is the id rule (a non-integral, negative, NaN or >= 2^32 id is a
// "bad id:" defect), which the library adopted at the same time.
#pragma once

#include <iosfwd>

#include "src/dataset/io.hpp"

namespace mrsky::test {

[[nodiscard]] data::PointSet reference_read_csv(std::istream& is,
                                                const data::CsvReadOptions& options = {},
                                                data::ParseReport* report = nullptr);

}  // namespace mrsky::test
