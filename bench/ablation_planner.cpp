// Ablation — adaptive planner (scheme=auto) vs. static scheme choice.
//
// The planner's promise is SATO's: sample the data, price the candidates,
// and land on a plan at least as good as the best static configuration a
// user could have picked — on every data family, not just the ones
// MR-Angle wins. This bench sweeps the five workload families
// (independent / correlated / anticorrelated / clustered / QWS-like) and,
// per family:
//
//  * times every static paper scheme (MR-Dim / MR-Grid / MR-Angle) plus
//    MR-Pivot under the default configuration,
//  * times scheme=auto (planning included; the ex-planning pipeline wall is
//    reported separately),
//  * re-runs the exact static configuration the planner resolved to and
//    verifies the skyline is BITWISE identical (ids and coordinate bits) —
//    auto must change performance, never answers,
//  * with --check, gates: ex-planning auto wall <= best static wall x
//    (1 + tolerance) + noise floor, and planning overhead <= --max-plan-ms.
//
// Every config of a family runs once per round, rounds alternating the
// order (forward, then backward), and each wall is the min over the rounds;
// --check runs at least 5 rounds. On a shared host a slow spell then hits
// every config of a round alike instead of deciding the gate for the 20–50 ms
// families on its own. The noise floor
// keeps the gate meaningful at smoke scale, where walls are fractions of a
// millisecond and scheduler jitter dwarfs any plan quality difference.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/core/mr_skyline.hpp"

using namespace mrsky;

namespace {

/// Bitwise equality: same points, same order, same coordinate bit patterns.
bool bitwise_equal(const data::PointSet& a, const data::PointSet& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.id(i) != b.id(i)) return false;
    if (std::memcmp(a.point(i).data(), b.point(i).data(), a.dim() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct TimedRun {
  core::MRSkylineResult result;
  double best_wall = std::numeric_limits<double>::infinity();
};

/// Runs every config once per round for `rounds` rounds, alternating the
/// order each round, and keeps each config's fastest run.
std::vector<TimedRun> timed(const data::PointSet& ps,
                            const std::vector<core::MRSkylineConfig>& configs,
                            std::size_t rounds) {
  std::vector<TimedRun> out(configs.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const std::size_t c = r % 2 == 0 ? k : configs.size() - 1 - k;
      core::MRSkylineResult run = core::run_mr_skyline(ps, configs[c]);
      if (run.wall_seconds < out[c].best_wall) {
        out[c].best_wall = run.wall_seconds;
        out[c].result = std::move(run);
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 60000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 5));
  const auto servers = static_cast<std::size_t>(args.get_int("servers", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));
  const bool check = args.get_bool("check", false);
  const auto repeats = std::max<std::size_t>(
      static_cast<std::size_t>(args.get_int("repeats", 5)), check ? 5 : 1);
  const double tolerance = args.get_double("tolerance", 0.10);
  const double noise_floor_s = args.get_double("noise-floor-ms", 25.0) / 1e3;
  const double max_plan_s = args.get_double("max-plan-ms", 2000.0) / 1e3;
  const std::string json_path = args.get_string("json", "");

  std::cout << "Ablation — adaptive planner (scheme=auto)\n"
            << "N=" << n << ", d=" << dim << ", servers=" << servers << ", repeats=" << repeats
            << ", tolerance=" << tolerance * 100 << "%, noise floor=" << noise_floor_s * 1e3
            << " ms\n\n";

  std::vector<part::Scheme> static_schemes = bench::paper_schemes();
  static_schemes.push_back(part::Scheme::kPivot);

  struct FamilyRow {
    std::string family;
    std::string best_static;
    double best_static_s = 0.0;
    double auto_total_s = 0.0;     ///< planning included
    double auto_pipeline_s = 0.0;  ///< ex-planning
    double planning_s = 0.0;
    double predicted_s = 0.0;
    std::string chosen;
    bool bitwise_ok = false;
    bool within_tolerance = false;
  };
  std::vector<FamilyRow> rows;

  common::Table table({"family", "best_static", "static_s", "auto_s", "auto_pipeline_s",
                       "plan_ms", "chosen", "bitwise", "gate"});
  bool all_ok = true;

  auto run_family = [&](const std::string& label, const data::PointSet& ps) {
    FamilyRow row;
    row.family = label;

    // The static schemes first, scheme=auto last.
    std::vector<core::MRSkylineConfig> configs;
    for (part::Scheme scheme : static_schemes) {
      core::MRSkylineConfig& config = configs.emplace_back();
      config.scheme = scheme;
      config.servers = servers;
    }
    configs.emplace_back().scheme = part::Scheme::kAuto;
    configs.back().servers = servers;
    const std::vector<TimedRun> runs = timed(ps, configs, repeats);

    row.best_static_s = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < static_schemes.size(); ++k) {
      if (runs[k].best_wall < row.best_static_s) {
        row.best_static_s = runs[k].best_wall;
        row.best_static = bench::display_name(static_schemes[k]);
      }
    }
    const TimedRun& auto_run = runs.back();
    const core::PlanDecision& plan = auto_run.result.plan;
    row.auto_total_s = auto_run.best_wall;
    row.planning_s = plan.planning_seconds;
    row.auto_pipeline_s = auto_run.best_wall - plan.planning_seconds;
    row.predicted_s = plan.predicted_seconds;
    row.chosen = bench::display_name(plan.scheme) + "/Np=" + std::to_string(plan.partitions) +
                 (plan.parallel_merge ? "/parallel" : "/single") + (plan.salted ? "/salt" : "") +
                 (plan.fallback ? " (fallback)" : "");

    // The resolved plan, run as a plain static config, must give the exact
    // same bits: auto is a routing decision, never a different computation.
    core::MRSkylineConfig resolved;
    resolved.scheme = plan.scheme;
    resolved.servers = servers;
    resolved.num_partitions = plan.partitions;
    resolved.parallel_merge = plan.parallel_merge;
    resolved.salt_oversized_partitions = plan.salted;
    const core::MRSkylineResult replay = core::run_mr_skyline(ps, resolved);
    row.bitwise_ok = bitwise_equal(auto_run.result.skyline, replay.skyline);

    row.within_tolerance =
        row.auto_pipeline_s <= row.best_static_s * (1.0 + tolerance) + noise_floor_s &&
        row.planning_s <= max_plan_s;
    all_ok = all_ok && row.bitwise_ok && row.within_tolerance;

    table.add_row({row.family, row.best_static, common::Table::fmt(row.best_static_s, 4),
                   common::Table::fmt(row.auto_total_s, 4),
                   common::Table::fmt(row.auto_pipeline_s, 4),
                   common::Table::fmt(row.planning_s * 1e3, 2), row.chosen,
                   row.bitwise_ok ? "ok" : "MISMATCH",
                   row.within_tolerance ? "pass" : "FAIL"});
    rows.push_back(row);
  };

  for (data::Distribution dist :
       {data::Distribution::kIndependent, data::Distribution::kCorrelated,
        data::Distribution::kAnticorrelated, data::Distribution::kClustered}) {
    run_family(data::to_string(dist), bench::synthetic_workload(dist, n, dim, seed));
  }
  run_family("qws-like", bench::qws_workload(n, dim, seed));

  table.print(std::cout, "Planner ablation (walls are min over " + std::to_string(repeats) +
                             " alternating rounds, in-process seconds)");
  std::cout << "planner overhead bound: " << max_plan_s * 1e3
            << " ms; gate: auto pipeline wall <= best static x " << (1.0 + tolerance)
            << " + " << noise_floor_s * 1e3 << " ms noise floor\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "cannot open " << json_path << "\n";
      return 2;
    }
    file << "{\"cardinality\":" << n << ",\"dim\":" << dim << ",\"servers\":" << servers
         << ",\"tolerance\":" << tolerance << ",\"families\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const FamilyRow& r = rows[i];
      if (i > 0) file << ",";
      file << "{\"family\":\"" << r.family << "\",\"best_static\":\"" << r.best_static
           << "\",\"best_static_seconds\":" << r.best_static_s
           << ",\"auto_total_seconds\":" << r.auto_total_s
           << ",\"auto_pipeline_seconds\":" << r.auto_pipeline_s
           << ",\"planning_seconds\":" << r.planning_s
           << ",\"predicted_seconds\":" << r.predicted_s << ",\"chosen\":\"" << r.chosen
           << "\",\"bitwise_identical\":" << (r.bitwise_ok ? "true" : "false")
           << ",\"within_tolerance\":" << (r.within_tolerance ? "true" : "false") << "}";
    }
    file << "],\"all_ok\":" << (all_ok ? "true" : "false") << "}\n";
    std::cout << "results written to " << json_path << "\n";
  }

  if (check && !all_ok) {
    std::cerr << "FAIL: scheme=auto missed the gate on at least one family (see table)\n";
    return 1;
  }
  if (check) std::cout << "CHECK PASSED: auto within tolerance of best static on all families\n";
  return 0;
}
