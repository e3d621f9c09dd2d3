// Ablation — sequential skyline baselines: the scan algorithms the paper's
// pipeline uses (BNL, SFS) and the memory-bounded multi-pass BNL of the
// original skyline paper.
//
// Single-machine comparison at the paper's workload: wall time, dominance
// tests, and passes/spills for bounded BNL. All outputs are verified
// identical.
#include <iostream>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/common/timer.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/bnl_bounded.hpp"
#include "src/skyline/verify.hpp"

using namespace mrsky;

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 100000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 8));
  const auto window = static_cast<std::size_t>(args.get_int("window", 256));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));

  std::cout << "Ablation — sequential skyline baselines\n"
            << "N=" << n << ", d=" << dim << ", QWS-like workload\n\n";

  const auto ps = bench::qws_workload(n, dim, seed);
  common::Table table({"algorithm", "wall_ms", "dominance_tests", "skyline", "notes"});

  data::PointSet reference(1);
  {
    skyline::SkylineStats stats;
    common::Timer timer;
    reference = skyline::bnl_skyline(ps, &stats);
    table.add_row({"bnl", common::Table::fmt(timer.elapsed_ms(), 1),
                   common::Table::fmt(stats.dominance_tests),
                   common::Table::fmt(reference.size()), "in-memory window"});
  }
  {
    skyline::SkylineStats stats;
    common::Timer timer;
    const auto sky = skyline::sfs_skyline(ps, &stats);
    table.add_row({"sfs", common::Table::fmt(timer.elapsed_ms(), 1),
                   common::Table::fmt(stats.dominance_tests), common::Table::fmt(sky.size()),
                   skyline::same_ids(sky, reference) ? "presorted" : "MISMATCH"});
  }
  {
    skyline::BoundedBnlReport report;
    common::Timer timer;
    const auto sky = skyline::bnl_skyline_bounded(ps, window, &report);
    table.add_row({"bnl-bounded", common::Table::fmt(timer.elapsed_ms(), 1),
                   common::Table::fmt(report.stats.dominance_tests),
                   common::Table::fmt(sky.size()),
                   "W=" + std::to_string(window) + ", " + std::to_string(report.passes) +
                       " passes, " + std::to_string(report.overflow_points) + " spills" +
                       (skyline::same_ids(sky, reference) ? "" : " MISMATCH")});
  }
  table.print(std::cout, "Sequential baselines");
  std::cout << "\nThe MapReduce pipeline's value is distributing the work these scan\n"
               "algorithms do in one process.\n";
  return 0;
}
