// Ablation — sequential vs thread-pooled engine execution.
//
// Runs the full two-job pipeline (the Fig. 5 workload: QWS-like, normalised,
// MR-Angle partitioning) end to end under ExecutionMode::kSequential and
// under kThreads at increasing worker counts, and reports the real in-process
// wall-clock speedup. This is the one table in the bench suite measuring the
// host's actual parallelism rather than the simulated cluster: it quantifies
// what the persistent pool + parallel shuffle buy. Output and counters are
// bitwise identical across every row (asserted here), so the speedup is pure
// execution, not a different computation.
//
// Numbers scale with the host: on a single-core CI runner every row is ~1x;
// on an 8-way machine the 8-thread row is expected to clear 2x. The parallel
// merge (--parallel_merge, on by default) keeps the final phase parallel too;
// with the paper's single-reducer merge the serial tail caps the achievable
// speedup.
#include <iostream>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/common/timer.hpp"
#include "src/dataset/point_set.hpp"

using namespace mrsky;

namespace {

core::MRSkylineConfig base_config(std::size_t servers, bool parallel_merge, bool combiner) {
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = servers;
  config.parallel_merge = parallel_merge;
  config.use_combiner = combiner;
  return config;
}

/// Best-of-`repeats` wall seconds for one configuration.
double measure(const data::PointSet& ps, const core::MRSkylineConfig& config, int repeats,
               core::MRSkylineResult* out) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    common::Timer timer;
    auto result = core::run_mr_skyline(ps, config);
    const double s = timer.elapsed_seconds();
    if (r == 0 || s < best) best = s;
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 60000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 8));
  const auto servers = static_cast<std::size_t>(args.get_int("servers", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));
  const bool parallel_merge = args.get_bool("parallel_merge", true);
  const bool combiner = args.get_bool("combiner", true);
  const int repeats = static_cast<int>(args.get_int("repeats", 2));
  const auto thread_counts = args.get_int_list("threads", {2, 4, 8});

  std::cout << "Threading ablation — sequential vs kThreads on the Fig. 5 workload\n"
            << "N=" << n << ", d=" << dim << ", cluster=" << servers
            << " servers, merge=" << (parallel_merge ? "parallel" : "single")
            << ", combiner=" << (combiner ? "on" : "off")
            << ", hardware threads=" << common::ThreadPool::default_concurrency() << "\n\n";

  const auto ps = bench::qws_workload(n, dim, seed);
  const auto config = base_config(servers, parallel_merge, combiner);

  core::MRSkylineResult seq_result;
  const double seq_seconds = measure(ps, config, repeats, &seq_result);

  common::Table table({"mode", "threads", "wall_s", "speedup", "skyline", "identical"});
  table.add_row({"sequential", "1", common::Table::fmt(seq_seconds, 3), "1.00x",
                 common::Table::fmt(seq_result.skyline.size()), "-"});

  for (std::int64_t t : thread_counts) {
    core::MRSkylineConfig threaded = config;
    threaded.run_options.mode = mr::ExecutionMode::kThreads;
    threaded.run_options.num_threads = static_cast<std::size_t>(t);
    core::MRSkylineResult par_result;
    const double par_seconds = measure(ps, threaded, repeats, &par_result);
    const bool identical =
        par_result.skyline == seq_result.skyline &&
        par_result.partition_job.counter_totals() ==
            seq_result.partition_job.counter_totals() &&
        par_result.partition_job.shuffle_records == seq_result.partition_job.shuffle_records &&
        par_result.merge_job().counter_totals() == seq_result.merge_job().counter_totals() &&
        par_result.merge_job().total_work_units() == seq_result.merge_job().total_work_units();
    table.add_row({"threads", common::Table::fmt(static_cast<int>(t)),
                   common::Table::fmt(par_seconds, 3),
                   common::Table::fmt(seq_seconds / par_seconds, 2) + "x",
                   common::Table::fmt(par_result.skyline.size()),
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "ERROR: threaded run diverged from sequential output\n";
      return 1;
    }
  }

  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
    return 0;
  }
  table.print(std::cout, "seq vs threads, N=" + std::to_string(n));
  std::cout << "\nshuffle_ns (job 1, sequential run): " << seq_result.partition_job.shuffle_ns
            << "\nSpeedup is bounded by the host's cores and the serial merge tail; the\n"
               "'identical' column proves mode changes never change results.\n";
  return 0;
}
