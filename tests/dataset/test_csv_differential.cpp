// Differential suite for the chunk-parallel CSV reader: data::read_csv_file at
// forced byte-range counts and read windows, and data::read_csv, against the
// serial reference reader in tests/support/csv_reference.hpp. Over generated,
// malformed and fuzzed inputs every read must give the same points (bits and
// ids), the same ParseReport, or the same exception type and message.
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/io.hpp"
#include "tests/support/csv_reference.hpp"

namespace mrsky::data {
namespace {

/// The forced byte-range counts every input is read at.
const std::vector<std::size_t> kRanges = {1, 2, 3, 7, 16};

/// What a read produced: the points and report, or the error.
struct Outcome {
  std::string error;  ///< "<type>: <message>", empty if the read returned
  std::size_t dim = 0;
  std::vector<double> values;
  std::vector<PointId> ids;
  ParseReport report;
};

/// Drops the "<file>:<line>: [requirement `<expr>` failed: ]" prefix, which
/// names the throwing source line rather than the input's defect.
std::string strip_location(const std::string& what) {
  static const std::regex prefix(R"(^[^:]*:[0-9]+: (requirement `[^`]*` failed: )?)");
  return std::regex_replace(what, prefix, "", std::regex_constants::format_first_only);
}

Outcome run(const std::function<PointSet(ParseReport&)>& read) {
  Outcome out;
  try {
    const PointSet ps = read(out.report);
    out.dim = ps.dim();
    out.values.assign(ps.raw().begin(), ps.raw().end());
    out.ids.assign(ps.ids().begin(), ps.ids().end());
  } catch (const InvalidArgument& e) {
    out.error = "InvalidArgument: " + strip_location(e.what());
  } catch (const RuntimeError& e) {
    out.error = "RuntimeError: " + strip_location(e.what());
  }
  return out;
}

testing::AssertionResult same(const Outcome& want, const Outcome& got) {
  if (want.error != got.error) {
    return testing::AssertionFailure() << "error \"" << got.error << "\", want \"" << want.error
                                       << "\"";
  }
  if (want.dim != got.dim || want.ids != got.ids) {
    return testing::AssertionFailure() << "dim or ids differ (" << got.ids.size() << " rows, want "
                                       << want.ids.size() << ")";
  }
  if (want.values.size() != got.values.size() ||
      (!want.values.empty() && std::memcmp(want.values.data(), got.values.data(),
                                           want.values.size() * sizeof(double)) != 0)) {
    return testing::AssertionFailure() << "coordinate bits differ";
  }
  const ParseReport& a = want.report;
  const ParseReport& b = got.report;
  if (a.rows_read != b.rows_read || a.rows_skipped != b.rows_skipped ||
      a.issues.size() != b.issues.size()) {
    return testing::AssertionFailure() << "report " << b.summary() << "want " << a.summary();
  }
  for (std::size_t i = 0; i < a.issues.size(); ++i) {
    if (a.issues[i].row != b.issues[i].row || a.issues[i].reason != b.issues[i].reason) {
      return testing::AssertionFailure() << "issue " << i << ": row " << b.issues[i].row << " \""
                                         << b.issues[i].reason << "\", want row "
                                         << a.issues[i].row << " \"" << a.issues[i].reason << "\"";
    }
  }
  return testing::AssertionSuccess();
}

/// Strict, and lenient under every combination of its filters.
std::vector<CsvReadOptions> all_options() {
  std::vector<CsvReadOptions> out(1);
  for (const bool finite : {true, false}) {
    for (const bool non_negative : {false, true}) {
      CsvReadOptions o;
      o.lenient = true;
      o.require_finite = finite;
      o.require_non_negative = non_negative;
      out.push_back(o);
    }
  }
  return out;
}

std::string describe(const CsvReadOptions& o) {
  if (!o.lenient) return "strict";
  return std::string("lenient finite=") + (o.require_finite ? "1" : "0") +
         " non_negative=" + (o.require_non_negative ? "1" : "0");
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/mrsky_csv_diff_" + name + ".csv";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << content;
  ASSERT_TRUE(file.good());
}

/// Every reader against the reference on `content`: the stream reader at
/// the default and a small window, and the file reader at each range count in
/// `range_counts`, alternating a default and a small window.
void check_input(const std::string& content, const std::string& path,
                 const std::vector<std::size_t>& range_counts, std::size_t small_window) {
  write_file(path, content);
  for (const CsvReadOptions& options : all_options()) {
    SCOPED_TRACE(describe(options) + ", input:\n" + content);
    const Outcome want = run([&](ParseReport& report) {
      std::istringstream is(content);
      return test::reference_read_csv(is, options, &report);
    });
    for (const std::size_t window : {detail::CsvChunking{}.window, small_window}) {
      EXPECT_TRUE(same(want, run([&](ParseReport& report) {
                    std::istringstream is(content);
                    return detail::read_csv(is, options, &report, {0, window});
                  })))
          << "read_csv, window " << window;
    }
    for (std::size_t i = 0; i < range_counts.size(); ++i) {
      const detail::CsvChunking chunking{range_counts[i],
                                         i % 2 == 0 ? small_window : detail::CsvChunking{}.window};
      EXPECT_TRUE(same(want, run([&](ParseReport& report) {
                    return detail::read_csv_file(path, options, &report, chunking);
                  })))
          << "read_csv_file, " << chunking.ranges << " ranges, window " << chunking.window;
    }
  }
}

// ---- Input generation ------------------------------------------------------

std::string pick(common::Rng& rng, const std::vector<std::string>& choices) {
  return choices[rng.uniform_index(choices.size())];
}

std::string number(common::Rng& rng) {
  char buf[64];
  switch (rng.uniform_index(4)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.17g", rng.uniform());
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%d", static_cast<int>(rng.uniform_index(1000)));
      break;
    case 2:
      std::snprintf(buf, sizeof buf, "%.3e", rng.uniform(0.0, 1e6));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%.6f", rng.uniform(0.0, 100.0));
      break;
  }
  return buf;
}

/// A cell that is unusable, or usable only under some lenient filters.
std::string odd_value(common::Rng& rng) {
  return pick(rng, {"oops", "", "1.2.3", " 1", "1 ", "0x10", "1e999", "+1", "1e", "nan", "inf",
                    "-inf", "infinity", "-nan", "-0", "-1.5", "-3e-7", "NaN", "--1"});
}

std::string odd_id(common::Rng& rng) {
  return pick(rng, {"-1", "1.5", "5000000000", "4294967296", "nan", "x", "", "-0", "1e3",
                    "4294967295", "inf", "0.0"});
}

/// A CSV text: header none/plain/"id", blank lines, CRLF, a missing final
/// newline, and odd cells and ragged rows at a rate drawn per input.
std::string generate_input(common::Rng& rng) {
  const std::size_t dim = 1 + rng.uniform_index(5);
  const std::size_t header = rng.uniform_index(3);  // 0 none, 1 plain, 2 id column
  const std::size_t rows = rng.uniform_index(80);
  const double defect_rates[] = {0.0, 0.03, 0.3};
  const double defect_rate = defect_rates[rng.uniform_index(3)];
  const double blank_rate = rng.uniform() < 0.5 ? 0.0 : 0.2;
  const bool crlf = rng.uniform() < 0.3;
  std::string out;
  auto end_line = [&] { out += crlf || rng.uniform() < 0.05 ? "\r\n" : "\n"; };
  if (header != 0) {
    out += header == 2 ? "id" : "x";
    for (std::size_t a = 0; a < dim; ++a) out += ",a" + std::to_string(a);
    if (header == 1 && rng.uniform() < 0.05) out += ",extra";  // header/data width clash
    end_line();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    while (rng.uniform() < blank_rate) {
      out += rng.uniform() < 0.3 ? "\r" : "";
      end_line();
    }
    std::vector<std::string> cells;
    if (header == 2) {
      cells.push_back(rng.uniform() < defect_rate ? odd_id(rng)
                                                  : std::to_string(rng.uniform_index(100000)));
    }
    for (std::size_t a = 0; a < dim; ++a) {
      cells.push_back(rng.uniform() < defect_rate ? odd_value(rng) : number(rng));
    }
    if (rng.uniform() < defect_rate / 3) {
      if (rng.uniform() < 0.5 && cells.size() > 1) {
        cells.pop_back();
      } else {
        cells.push_back(number(rng));
      }
    }
    for (std::size_t c = 0; c < cells.size(); ++c) out += (c > 0 ? "," : "") + cells[c];
    if (r + 1 < rows || rng.uniform() < 0.8) end_line();
  }
  return out;
}

/// `content` with a few random byte edits drawn from CSV's structural bytes.
std::string fuzz(common::Rng& rng, std::string content) {
  static const std::string alphabet = ",\n\r0123456789.-+eEnaif x";
  const std::size_t edits = 1 + rng.uniform_index(6);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = content.empty() ? 0 : rng.uniform_index(content.size() + 1);
    const char c = rng.uniform() < 0.05 ? '\0' : alphabet[rng.uniform_index(alphabet.size())];
    switch (rng.uniform_index(3)) {
      case 0:
        content.insert(content.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      case 1:
        if (at < content.size()) content.erase(at, 1);
        break;
      default:
        if (at < content.size()) content[at] = c;
        break;
    }
  }
  return content;
}

TEST(CsvDifferential, GeneratedInputsMatchTheReference) {
  common::Rng rng(20260418);
  const std::string path = temp_path("generated");
  for (int i = 0; i < 120; ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    check_input(generate_input(rng), path, kRanges, 1 + rng.uniform_index(24));
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(CsvDifferential, FuzzedInputsMatchTheReference) {
  common::Rng rng(977);
  const std::string path = temp_path("fuzzed");
  for (int i = 0; i < 120; ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    check_input(fuzz(rng, generate_input(rng)), path, kRanges, 1 + rng.uniform_index(24));
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(CsvDifferential, EveryRangeBoundaryOfSmallInputs) {
  // Every range count up to the input's length puts a boundary on every byte
  // (blank lines, a lone CR, the CR of a CRLF, the missing final newline).
  const std::vector<std::string> inputs = {
      "1,2\n\n3,4\n\n\n5,6\n",
      "a,b\r\n\r\n1,2\r\n\r\n3,4",
      "id,x\n\n7,1\n\n8,oops\n9,2\n\n10,-1\n",
      "\n\n1\n\n2\n\r\n3\r\r\n\r",
      "x,y\n1,2\n3\n4,5,6\n\n7,nan\n8,inf\n-9,1\n",
  };
  const std::string path = temp_path("boundaries");
  for (const std::string& input : inputs) {
    std::vector<std::size_t> counts;
    for (std::size_t k = 1; k <= input.size() + 1; ++k) counts.push_back(k);
    for (const std::size_t window : {1, 3, 8}) check_input(input, path, counts, window);
  }
  std::remove(path.c_str());
}

TEST(CsvDifferential, MoreIssuesThanTheReportRecords) {
  std::string input = "id,a,b\n";
  for (int r = 0; r < 200; ++r) {
    switch (r % 5) {
      case 0:
        input += std::to_string(r) + ",oops,1\n";
        break;
      case 1:
        input += std::to_string(r) + ",1\n\n";
        break;
      case 2:
        input += "-" + std::to_string(r) + ",1,2\n";
        break;
      default:
        input += std::to_string(r) + ",0.5,-2\r\n";
        break;
    }
  }
  check_input(input, temp_path("many_issues"), kRanges, 16);
  std::remove(temp_path("many_issues").c_str());
}

TEST(CsvDifferential, EdgeInputsMatchTheReference) {
  const std::vector<std::string> inputs = {
      "", "\n\n\r\n", "x,y\n", "x,y\n\n\n", "5", "5\n", "id\n1\n", "id,x\n1\n", "x,y\n1,2,3\n",
      "1,2\nbad,3\n", "nan,1\n2,3\n", ",\n,\n", "1,\n", "\r", "id,a\n-1,2\n5000000000,3\n1.5,4\nnan,5\n",
      std::string("1,2\n3,\0\n", 8), std::string(3000, '7') + "," + std::string(2000, '1') + "\n1,2\n",
  };
  const std::string path = temp_path("edges");
  for (const std::string& input : inputs) check_input(input, path, kRanges, 2);
  std::remove(path.c_str());
}

TEST(CsvDifferential, ParallelReadOfALargeFileMatchesTheReference) {
  // Big enough for the unforced reader to pick several ranges by itself.
  common::Rng rng(5);
  std::string input = "id,a,b,c\n";
  for (std::size_t r = 0; input.size() < (std::size_t{3} << 20); ++r) {
    input += std::to_string(r) + "," + number(rng) + "," + number(rng) + "," +
             (r % 9973 == 0 ? odd_value(rng) : number(rng)) + (r % 7 == 0 ? "\r\n" : "\n");
    if (r % 1000 == 0) input += "\n";
  }
  const std::string path = temp_path("large");
  write_file(path, input);
  for (const CsvReadOptions& options : all_options()) {
    SCOPED_TRACE(describe(options));
    const Outcome want = run([&](ParseReport& report) {
      std::istringstream is(input);
      return test::reference_read_csv(is, options, &report);
    });
    EXPECT_TRUE(same(want, run([&](ParseReport& report) {
                  return read_csv_file(path, options, &report);
                })));
    EXPECT_TRUE(same(want, run([&](ParseReport& report) {
                  return detail::read_csv_file(path, options, &report, {7, 4096});
                })));
  }
  std::remove(path.c_str());
}

TEST(CsvDifferential, PipeTakesTheStreamPath) {
  const std::string input = "id,x\n3,1.5\n\nbad,2\n4,-0\r\n5,2.5";
  const std::string path = temp_path("fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream fifo(path, std::ios::binary);
    fifo << input;
  });
  CsvReadOptions options;
  options.lenient = true;
  const Outcome got = run([&](ParseReport& report) {
    return read_csv_file(path, options, &report);
  });
  writer.join();
  std::remove(path.c_str());
  const Outcome want = run([&](ParseReport& report) {
    std::istringstream is(input);
    return test::reference_read_csv(is, options, &report);
  });
  EXPECT_TRUE(same(want, got));
  EXPECT_EQ(got.ids, (std::vector<PointId>{3, 4, 5}));
}

TEST(CsvDifferential, DirectoryIsNotReadable) {
  EXPECT_THROW((void)read_csv_file(testing::TempDir()), RuntimeError);
}

}  // namespace
}  // namespace mrsky::data
