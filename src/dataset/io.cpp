#include "src/dataset/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"

namespace mrsky::data {

namespace {

/// The smallest byte range worth a lane of its own.
constexpr std::uint64_t kMinRangeBytes = std::uint64_t{1} << 20;

bool parse_double(std::string_view s, double& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// A PointId is an integer in [0, 2^32); NaN fails every comparison.
bool valid_id(double v) { return v >= 0.0 && v < 4294967296.0 && v == std::floor(v); }

const char* find_comma(const char* p, const char* end) {
  const void* comma = std::memchr(p, ',', static_cast<std::size_t>(end - p));
  return comma != nullptr ? static_cast<const char*>(comma) : end;
}

std::size_t count_cells(std::string_view line) {
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
}

// ---- Byte sources ----------------------------------------------------------

struct FdCloser {
  explicit FdCloser(int f) : fd(f) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd); }
  int fd;
};

/// Reads bytes [pos, end) of an open regular file.
struct FileRange {
  int fd;
  std::uint64_t pos;
  std::uint64_t end;
  const std::string* path;

  std::size_t operator()(char* dst, std::size_t max) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(max, end - pos));
    if (want == 0) return 0;
    ssize_t got = 0;
    do {
      got = ::pread(fd, dst, want, static_cast<off_t>(pos));
    } while (got < 0 && errno == EINTR);
    if (got < 0) MRSKY_FAIL("cannot read: " + *path);
    pos += static_cast<std::uint64_t>(got);
    return static_cast<std::size_t>(got);
  }
};

/// Reads a pipe or other non-seekable descriptor to its end.
struct FileStream {
  int fd;
  const std::string* path;

  std::size_t operator()(char* dst, std::size_t max) const {
    ssize_t got = 0;
    do {
      got = ::read(fd, dst, max);
    } while (got < 0 && errno == EINTR);
    if (got < 0) MRSKY_FAIL("cannot read: " + *path);
    return static_cast<std::size_t>(got);
  }
};

struct StdStream {
  std::istream* is;

  std::size_t operator()(char* dst, std::size_t max) const {
    is->read(dst, static_cast<std::streamsize>(max));
    return static_cast<std::size_t>(is->gcount());
  }
};

/// The lines of a byte source, read through one bounded window: each line
/// comes without its '\n' and with one trailing '\r' removed (getline plus
/// the CR strip). `Fill(dst, max)` copies up to `max` next bytes of the
/// source and returns how many, 0 at its end. A line longer than the window
/// doubles the window until it fits.
template <typename Fill>
class LineReader {
 public:
  LineReader(Fill fill, std::size_t window)
      : fill_(std::move(fill)), buf_(std::max<std::size_t>(window, 1)) {}

  /// The next line, valid until the following call; false at the end.
  bool next(std::string_view& line) {
    for (;;) {
      const void* nl = std::memchr(buf_.data() + pos_, '\n', end_ - pos_);
      if (nl != nullptr) {
        const std::size_t stop = static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        emit(line, stop);
        pos_ = stop + 1;
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        emit(line, end_);
        pos_ = end_;
        return true;
      }
      refill();
    }
  }

  /// Source offset of the line the last next() returned.
  [[nodiscard]] std::uint64_t line_offset() const noexcept { return line_offset_; }

 private:
  void emit(std::string_view& line, std::size_t stop) {
    line_offset_ = consumed_ + pos_;
    std::size_t len = stop - pos_;
    if (len > 0 && buf_[pos_ + len - 1] == '\r') --len;
    line = {buf_.data() + pos_, len};
  }

  void refill() {
    // Keep the unfinished line at the window's front.
    consumed_ += pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const std::size_t got = fill_(buf_.data() + end_, buf_.size() - end_);
    eof_ = got == 0;
    end_ += got;
  }

  Fill fill_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< start of the unread bytes in buf_
  std::size_t end_ = 0;  ///< end of the valid bytes in buf_
  bool eof_ = false;
  std::uint64_t consumed_ = 0;  ///< source bytes dropped from the window's front
  std::uint64_t line_offset_ = 0;
};

// ---- Parsing ---------------------------------------------------------------

/// What the lines before the first data row establish.
struct CsvShape {
  std::size_t width = 0;  ///< cells per row
  std::size_t dim = 0;
  bool has_id_column = false;
};

/// Consumes lines up to and including the first data row, which `line` holds
/// on return. A non-numeric first cell on the first non-blank line makes that
/// line a header, and a header whose first cell is "id" an id column.
template <typename Reader>
CsvShape detect_shape(Reader& reader, std::string_view& line) {
  CsvShape shape;
  bool first = true;
  bool found = false;
  std::size_t header_width = 0;  // 0: no header
  while (!found && reader.next(line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      const std::string_view cell0 = line.substr(0, line.find(','));
      double probe = 0.0;
      if (!parse_double(cell0, probe)) {
        header_width = count_cells(line);
        shape.has_id_column = cell0 == "id";
        continue;
      }
    }
    found = true;
  }
  MRSKY_REQUIRE(found, "CSV contains no data rows");
  shape.width = count_cells(line);
  if (header_width != 0) {
    MRSKY_REQUIRE(header_width == shape.width, "CSV header width differs from data width");
  }
  shape.dim = shape.has_id_column ? shape.width - 1 : shape.width;
  MRSKY_REQUIRE(shape.dim >= 1, "CSV rows must contain at least one attribute");
  return shape;
}

/// What one range's parse accepted and dropped; rows are global data-row
/// indices (non-blank lines after the header, counted from 0).
struct RangeResult {
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::vector<ParseIssue> issues;  ///< the range's first kMaxRecordedIssues
};

/// Accepted rows go to a presized slice of the output buffer.
struct SliceSink {
  double* values;
  PointId* ids;
  std::size_t dim;

  double* slot(std::size_t n) const { return values + n * dim; }
  void commit(std::size_t n, PointId id) const { ids[n] = id; }
};

/// Accepted rows grow two vectors: the stream path, whose length is unknown.
struct GrowSink {
  std::size_t dim;
  std::vector<double> values;
  std::vector<PointId> ids;

  double* slot(std::size_t n) {
    values.resize((n + 1) * dim);
    return values.data() + n * dim;
  }
  void commit(std::size_t /*n*/, PointId id) { ids.push_back(id); }
};

/// Parses data rows in place: std::from_chars straight on the line's bytes,
/// coordinates written into the sink's next slot.
template <typename Sink>
class RangeParser {
 public:
  /// The range holds data rows [first_row, end_row): the first pass's count.
  RangeParser(const CsvShape& shape, const CsvReadOptions& options, std::size_t first_row,
              std::size_t end_row, Sink& sink, RangeResult& result)
      : shape_(shape),
        lenient_(options.lenient),
        check_finite_(options.lenient && options.require_finite),
        check_non_negative_(options.lenient && options.require_non_negative),
        row_(first_row),
        end_row_(end_row),
        sink_(sink),
        result_(result) {}

  /// Parses one non-blank line as the next data row. False once strict mode
  /// met a defect: the rest of the range no longer matters.
  bool row(std::string_view line) {
    // The first pass counted this range's rows; more means the file changed.
    if (row_ == end_row_) MRSKY_FAIL("CSV file changed while it was read");
    const std::size_t r = row_++;
    PointId id = static_cast<PointId>(r);
    if (parse(line, sink_.slot(result_.accepted), id)) {
      sink_.commit(result_.accepted++, id);
      return true;
    }
    ++result_.skipped;
    if (result_.issues.size() < ParseReport::kMaxRecordedIssues) {
      result_.issues.push_back(ParseIssue{r, std::move(defect_)});
    }
    defect_.clear();
    return lenient_;
  }

  template <typename Reader>
  void lines(Reader& reader) {
    std::string_view line;
    while (reader.next(line)) {
      if (!line.empty() && !row(line)) return;
    }
  }

 private:
  /// Fills `coords` (and `id` from an id column); false with defect_ set if
  /// the row is unusable. A ragged row reports its width before any bad cell,
  /// so a defect stops the parse but not the cell count.
  bool parse(std::string_view line, double* coords, PointId& id) {
    const char* cell = line.data();
    const char* const end = cell + line.size();
    std::size_t c = 0;
    for (;; ++c) {
      const char* stop = nullptr;
      if (defect_.empty() && c < shape_.width) {
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(cell, end, v);
        const bool whole = ec == std::errc() && (ptr == end || *ptr == ',');
        stop = whole ? ptr : find_comma(cell, end);
        if (c == 0 && shape_.has_id_column) {
          if (whole && valid_id(v)) {
            id = static_cast<PointId>(v);
          } else {
            defect_ = "bad id: " + std::string(cell, stop);
          }
        } else if (!whole) {
          defect_ = "bad number: " + std::string(cell, stop);
        } else if (check_finite_ && !std::isfinite(v)) {
          defect_ = "non-finite value: " + std::string(cell, stop);
        } else if (check_non_negative_ && v < 0.0) {
          defect_ = "negative value: " + std::string(cell, stop);
        } else {
          coords[shape_.has_id_column ? c - 1 : c] = v;
        }
      } else {
        stop = find_comma(cell, end);
      }
      if (stop == end) break;
      cell = stop + 1;
    }
    if (c + 1 != shape_.width) {
      defect_ = "expected " + std::to_string(shape_.width) + " cells, got " +
                std::to_string(c + 1);
    }
    return defect_.empty();
  }

  const CsvShape& shape_;
  const bool lenient_;
  const bool check_finite_;
  const bool check_non_negative_;
  std::size_t row_;
  const std::size_t end_row_;
  Sink& sink_;
  RangeResult& result_;
  std::string defect_;
};

/// Applies the ranges' results in file order, as a serial read would: strict
/// mode throws the first defect; otherwise the report gains every count and
/// the first kMaxRecordedIssues issues.
void settle(std::vector<RangeResult>& results, const CsvReadOptions& options,
            ParseReport* report) {
  ParseReport local_report;
  ParseReport& rep = report != nullptr ? *report : local_report;
  for (RangeResult& result : results) {
    rep.rows_read += result.accepted;
    if (result.skipped == 0) continue;
    MRSKY_REQUIRE(options.lenient, "CSV row " + std::to_string(result.issues.front().row) +
                                       ": " + result.issues.front().reason);
    rep.rows_skipped += result.skipped;
    for (ParseIssue& issue : result.issues) {
      if (rep.issues.size() == ParseReport::kMaxRecordedIssues) break;
      rep.issues.push_back(std::move(issue));
    }
  }
}

/// One range over a source read front to back: a stream, a pipe.
template <typename Fill>
PointSet read_stream(Fill fill, const CsvReadOptions& options, ParseReport* report,
                     std::size_t window) {
  LineReader<Fill> reader(std::move(fill), window);
  std::string_view line;
  const CsvShape shape = detect_shape(reader, line);
  GrowSink sink{shape.dim, {}, {}};
  std::vector<RangeResult> results(1);
  RangeParser<GrowSink> parser(shape, options, 0, SIZE_MAX, sink, results[0]);
  if (parser.row(line)) parser.lines(reader);
  settle(results, options, report);
  sink.values.resize(sink.ids.size() * shape.dim);
  MRSKY_REQUIRE(!sink.ids.empty(), "CSV contains no usable data rows");
  return PointSet(shape.dim, std::move(sink.values), std::move(sink.ids));
}

/// Offset of the first line that starts at or after `pos` in [begin, size).
std::uint64_t line_start_at_or_after(int fd, const std::string& path, std::uint64_t pos,
                                     std::uint64_t begin, std::uint64_t size) {
  if (pos <= begin) return begin;
  // A line starts at `pos` iff the byte before it ends a line.
  FileRange source{fd, pos - 1, size, &path};
  char buf[4096];
  std::uint64_t at = pos - 1;
  for (std::size_t got = 0; (got = source(buf, sizeof buf)) > 0; at += got) {
    if (const void* nl = std::memchr(buf, '\n', got); nl != nullptr) {
      return at + static_cast<std::uint64_t>(static_cast<const char*>(nl) - buf) + 1;
    }
  }
  return size;
}

/// The chunk-parallel reader of a regular file (DESIGN.md decision 18).
PointSet read_regular_file(int fd, const std::string& path, std::uint64_t size,
                           const CsvReadOptions& options, ParseReport* report,
                           const detail::CsvChunking& chunking) {
  // Header and first data row, serially; the data starts at that row.
  std::string_view first;
  LineReader<FileRange> head(FileRange{fd, 0, size, &path}, chunking.window);
  const CsvShape shape = detect_shape(head, first);
  const std::uint64_t begin = head.line_offset();

  // Byte ranges; a line belongs to the range in which it starts.
  const std::uint64_t bytes = size - begin;
  const std::size_t lanes = common::ThreadPool::default_concurrency();
  const std::size_t count =
      chunking.ranges != 0
          ? chunking.ranges
          : static_cast<std::size_t>(std::clamp<std::uint64_t>(bytes / kMinRangeBytes, 1, lanes));
  std::vector<std::uint64_t> starts(count + 1, size);
  starts[0] = begin;
  for (std::size_t i = 1; i < count; ++i) {
    starts[i] = line_start_at_or_after(fd, path, begin + bytes * i / count, begin, size);
  }
  auto range = [&](std::size_t i) {
    return LineReader<FileRange>(FileRange{fd, starts[i], starts[i + 1], &path},
                                 chunking.window);
  };
  std::unique_ptr<common::ThreadPool> pool;
  if (count > 1) pool = std::make_unique<common::ThreadPool>(std::min(count, lanes));

  // Pass 1: data rows per range, so the output is allocated once.
  std::vector<std::size_t> first_row(count + 1, 0);
  common::for_each_index(count, pool.get(), [&](std::size_t i) {
    LineReader<FileRange> reader = range(i);
    std::string_view line;
    std::size_t rows = 0;
    while (reader.next(line)) rows += line.empty() ? 0 : 1;
    first_row[i + 1] = rows;
  });
  for (std::size_t i = 0; i < count; ++i) first_row[i + 1] += first_row[i];
  const std::size_t total = first_row[count];

  // Pass 2: each range parses into its slice of the one buffer.
  std::vector<double> values(total * shape.dim);
  std::vector<PointId> ids(total);
  std::vector<RangeResult> results(count);
  common::for_each_index(count, pool.get(), [&](std::size_t i) {
    LineReader<FileRange> reader = range(i);
    SliceSink sink{values.data() + first_row[i] * shape.dim, ids.data() + first_row[i],
                   shape.dim};
    RangeParser<SliceSink> parser(shape, options, first_row[i], first_row[i + 1], sink,
                                  results[i]);
    parser.lines(reader);
  });
  settle(results, options, report);

  // Close the gaps dropped rows left, in file order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = results[i].accepted;
    if (kept != first_row[i] && n > 0) {
      std::memmove(values.data() + kept * shape.dim, values.data() + first_row[i] * shape.dim,
                   n * shape.dim * sizeof(double));
      std::memmove(ids.data() + kept, ids.data() + first_row[i], n * sizeof(PointId));
    }
    kept += n;
  }
  MRSKY_REQUIRE(kept > 0, "CSV contains no usable data rows");
  values.resize(kept * shape.dim);
  ids.resize(kept);
  return PointSet(shape.dim, std::move(values), std::move(ids));
}

}  // namespace

void write_csv(std::ostream& os, const PointSet& ps, const CsvWriteOptions& options) {
  if (options.with_header) {
    if (options.with_ids) os << "id";
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      if (a > 0 || options.with_ids) os << ",";
      os << "attr" << a;
    }
    os << "\n";
  }
  // std::to_chars in general format writes the digits `os << setprecision(p)`
  // would (printf's %.<p>g), without the stream's per-value overhead; rows go
  // through a buffer flushed in large writes.
  const std::size_t cell_bytes = static_cast<std::size_t>(std::max(options.precision, 17)) + 32;
  const std::size_t row_bytes = (ps.dim() + 1) * cell_bytes;
  std::vector<char> buf(std::max<std::size_t>(row_bytes, std::size_t{64} << 10));
  char* out = buf.data();
  char* const limit = buf.data() + buf.size();
  auto put = [&](auto... value_and_format) {
    const auto [ptr, ec] = std::to_chars(out, limit, value_and_format...);
    if (ec != std::errc()) MRSKY_FAIL("CSV write failed");
    out = ptr;
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (static_cast<std::size_t>(limit - out) < row_bytes) {
      os.write(buf.data(), out - buf.data());
      out = buf.data();
    }
    if (options.with_ids) put(ps.id(i));
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      if (a > 0 || options.with_ids) *out++ = ',';
      put(ps.at(i, a), std::chars_format::general, options.precision);
    }
    *out++ = '\n';
  }
  os.write(buf.data(), out - buf.data());
  if (!os) MRSKY_FAIL("CSV write failed");
}

void write_csv_file(const std::string& path, const PointSet& ps, const CsvWriteOptions& options) {
  std::ofstream file(path);
  if (!file) MRSKY_FAIL("cannot open for writing: " + path);
  write_csv(file, ps, options);
}

PointSet read_csv(std::istream& is, const CsvReadOptions& options, ParseReport* report) {
  return detail::read_csv(is, options, report, {});
}

PointSet read_csv_file(const std::string& path, const CsvReadOptions& options,
                       ParseReport* report) {
  return detail::read_csv_file(path, options, report, {});
}

namespace detail {

PointSet read_csv(std::istream& is, const CsvReadOptions& options, ParseReport* report,
                  const CsvChunking& chunking) {
  return read_stream(StdStream{&is}, options, report, chunking.window);
}

PointSet read_csv_file(const std::string& path, const CsvReadOptions& options,
                       ParseReport* report, const CsvChunking& chunking) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) MRSKY_FAIL("cannot open for reading: " + path);
  const FdCloser closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
    MRSKY_FAIL("cannot open for reading: " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    return read_stream(FileStream{fd, &path}, options, report, chunking.window);
  }
  return read_regular_file(fd, path, static_cast<std::uint64_t>(st.st_size), options, report,
                           chunking);
}

}  // namespace detail

}  // namespace mrsky::data
