#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/json.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/qws.hpp"

namespace skybench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value) { metrics_[name] = value; }

void Report::info(const std::string& key, double value) { info_[key] = number(value); }

void Report::info(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += mrsky::common::json_escape(value);
  info_[key] = quoted + "\"";
}

void Report::info(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ',';
    list += number(values[i]);
  }
  info_[key] = list + "]";
}

void Report::gate_failed(const std::string& why) { gate_failures_.push_back(why); }

std::string Report::to_json() const {
  const bool correct = failed_ == 0 && gate_failures_.empty() && attempted_ > 0;
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted_
     << ",\"failed\":" << failed_ << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    os << (first ? "" : ",") << "\"" << name << "\":" << number(value);
    first = false;
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ",") << "\"" << mrsky::common::json_escape(key) << "\":" << value;
    first = false;
  }
  os << "},\"gate_failures\":[";
  for (std::size_t i = 0; i < gate_failures_.size(); ++i) {
    os << (i > 0 ? "," : "") << "\"" << mrsky::common::json_escape(gate_failures_[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

mrsky::data::PointSet sample_points(std::size_t population, std::size_t rows, std::size_t dim,
                                    std::uint64_t seed) {
  constexpr std::uint64_t kPopulationSeed = 2012;
  mrsky::data::QwsLikeGenerator gen(dim, kPopulationSeed);
  const mrsky::data::PointSet all = gen.generate_oriented(population);
  // Fisher-Yates with the library's own generator, so the sample does not
  // depend on the standard library's shuffle.
  std::vector<std::size_t> order(population);
  for (std::size_t i = 0; i < population; ++i) order[i] = i;
  mrsky::common::Rng rng(seed);
  for (std::size_t i = population - 1; i > 0; --i) {
    std::swap(order[i], order[rng() % (i + 1)]);
  }
  order.resize(rows);
  return all.select(order);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace skybench
