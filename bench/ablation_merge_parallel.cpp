// Ablation — final phase: the paper's single-reducer merge vs the one-round
// parallel merge.
//
// Fig. 6 shows the Reduce phase refusing to scale: Algorithm 1 funnels every
// local-skyline point into one reducer. The parallel merge
// (MRSkylineConfig::parallel_merge) sorts the union U of the local skylines
// once in SFS order, broadcasts it, and splits the points across 2 × servers
// reducers, each keeping the points no earlier point of U dominates. Same
// job count, same skyline; this bench prints how the merge work spreads and
// what that does to simulated time. Exits 1 if the two skylines differ.
#include <algorithm>
#include <iostream>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/skyline/verify.hpp"

using namespace mrsky;

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 100000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 10));
  const auto servers = static_cast<std::size_t>(args.get_int("servers", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));

  std::cout << "Ablation — final phase (single reducer vs parallel merge)\n"
            << "N=" << n << ", d=" << dim << ", MR-Angle, cluster=" << servers
            << " servers\n\n";

  const auto ps = bench::qws_workload(n, dim, seed);
  common::Table table({"merge", "reducers", "merge_work", "merge_reduce_work_max", "map_s",
                       "reduce_s", "startup_s", "total_s"});
  std::vector<bench::CellResult> cells;
  for (const bool parallel : {false, true}) {
    core::MRSkylineConfig config;
    config.scheme = part::Scheme::kAngular;
    config.parallel_merge = parallel;
    const auto& cell = cells.emplace_back(bench::run_cell(ps, config, servers));
    // Largest single merge-reduce task (the serial bottleneck).
    std::uint64_t max_task_work = 0;
    for (const auto& task : cell.run.merge_job().reduce_tasks) {
      max_task_work = std::max(max_task_work, task.work_units);
    }
    table.add_row({parallel ? "parallel" : "single",
                   common::Table::fmt(cell.run.merge_job().reduce_tasks.size()),
                   common::Table::fmt(cell.run.merge_job().total_work_units()),
                   common::Table::fmt(max_task_work),
                   common::Table::fmt(cell.times.map_seconds, 2),
                   common::Table::fmt(cell.times.reduce_seconds, 2),
                   common::Table::fmt(cell.times.startup_seconds, 1),
                   common::Table::fmt(cell.times.total_seconds(), 2)});
  }
  table.print(std::cout, "Final-phase ablation");
  const bool same = skyline::same_ids(cells[0].run.skyline, cells[1].run.skyline);
  std::cout << "\nskylines identical: " << (same ? "yes" : "NO") << "\n"
            << "Expected: the parallel merge spreads the merge work over its reducers, so\n"
               "its largest merge task is a fraction of the single reducer's and the\n"
               "Reduce phase shrinks with the cluster instead of staying flat.\n";
  return same ? 0 : 1;
}
