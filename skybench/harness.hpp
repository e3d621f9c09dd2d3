// Shared plumbing of the skybench program: arguments, the metric report it
// prints, order statistics and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/dataset/point_set.hpp"

namespace skybench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string command;   ///< "prepare" (write inputs) or "run"
  std::string workload;  ///< batch-csv | batch-mrb | serve-read | serve-mixed
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string dir;        ///< working directory holding the prepared inputs
};

/// Everything one run reports: the metrics by name (their units live in
/// BENCHMARK.json), the operation counts the correctness gate feeds, and
/// free-form facts for the result file.
class Report {
 public:
  void metric(const std::string& name, double value);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  /// A series of samples, kept in the result file for later diagnosis.
  void info(const std::string& key, const std::vector<double>& values);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// A check outside the counted operations (e.g. a replay) failed.
  void gate_failed(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// One JSON line: correct / attempted / failed / metrics / info.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;  ///< rendered JSON values
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> gate_failures_;
};

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set (VmHWM) of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap to the OS and restarts the VmHWM watermark at the
/// current resident set, so the peak measured afterwards belongs to the
/// timed part rather than to set-up. Best effort: where the kernel refuses,
/// the peak covers the whole process.
void reset_peak_rss();

/// The workload's points: a --seed-drawn sample of `rows` points, in
/// seed-shuffled order, from a fixed QWS-like population of `population`
/// points. A fixed population keeps the skyline size, and with it the work
/// of a run, close across seeds; the seed still changes which points are in
/// and the order they arrive in.
[[nodiscard]] mrsky::data::PointSet sample_points(std::size_t population, std::size_t rows,
                                                  std::size_t dim, std::uint64_t seed);

/// 64-bit FNV-1a of a string (response fingerprints for the replay gate).
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes);

int prepare_batch(const Args& args);
int run_batch(const Args& args, Report& report);
int prepare_serve(const Args& args);
int run_serve(const Args& args, Report& report);

}  // namespace skybench
