// Randomised resident-vs-streamed differential testing (ISSUE 10): the same
// pipeline run from a materialised PointSet and from that set round-tripped
// through a `.mrb` block store must produce the same skyline, bitwise, under
// randomly drawn workloads, schemes, execution modes, block capacities and
// spill budgets. Block pruning and shuffle spilling are observability-only
// optimisations — the sweep is what holds them to that.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/source.hpp"
#include "src/skyline/algorithms.hpp"
#include "tests/support/run_compare.hpp"

namespace mrsky {
namespace {

struct Workload {
  data::PointSet points{1};
  core::MRSkylineConfig config;
  std::size_t block_rows = 32;
  bool zorder = false;
  std::string description;
};

Workload make_workload(std::uint64_t seed) {
  common::Rng rng(seed * 6151 + 29);
  Workload w;
  const std::size_t n = 200 + rng.uniform_index(1200);
  const std::size_t dim = 2 + rng.uniform_index(5);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  w.points = data::generate(dist, n, dim, seed);
  w.block_rows = 16 + rng.uniform_index(100);
  w.zorder = rng.uniform() < 0.5;

  auto& config = w.config;
  config.scheme = rng.uniform() < 0.5 ? part::Scheme::kAngular : part::Scheme::kGrid;
  config.servers = 2 + rng.uniform_index(6);
  config.parallel_merge = seed % 3 != 0;
  config.use_combiner = (seed % 2 == 1);
  (void)rng.uniform();  // once drew a pruning switch; kept so every seed's workload is unchanged
  config.run_options.mode = (seed % 2 == 0) ? mr::ExecutionMode::kSequential
                                            : mr::ExecutionMode::kThreads;
  config.run_options.num_threads = 4;
  if (rng.uniform() < 0.5) {
    // A budget this small forces every map task to spill its shards.
    config.run_options.shuffle_spill_bytes = 1 + rng.uniform_index(4096);
    config.run_options.spill_dir = testing::TempDir();
  }
  w.description = data::to_string(dist) + " n=" + std::to_string(n) +
                  " d=" + std::to_string(dim) +
                  " block_rows=" + std::to_string(w.block_rows) +
                  (w.zorder ? " zorder" : " input-order") +
                  " spill=" + std::to_string(config.run_options.shuffle_spill_bytes);
  return w;
}

/// Rows of `ps` in ascending-id order — the canonical form for comparing
/// skylines whose emission order differs (the streamed run fits its
/// partitioner on a block sample, which steers the single-reducer merge's
/// order but never its membership; see run_mr_skyline's DatasetSource
/// contract).
data::PointSet canonical_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

class OutOfCoreSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(OutOfCoreSweep, StreamedRunMatchesResidentRunBitwise) {
  const Workload w = make_workload(GetParam());
  const std::string path = testing::TempDir() + "/ooc_sweep_" +
                           std::to_string(GetParam()) + ".mrb";
  data::PointSet on_disk = w.zorder ? w.points.select(data::zorder_permutation(w.points))
                                    : w.points;
  data::write_block_store(path, on_disk, w.block_rows);
  const data::BlockStoreSource source(path);

  const auto resident = core::run_mr_skyline(w.points, w.config);
  const auto streamed = core::run_mr_skyline(source, w.config);

  // Same skyline SET, every surviving coordinate bit-identical.
  const data::PointSet expected = canonical_by_id(resident.skyline);
  const data::PointSet actual = canonical_by_id(streamed.skyline);
  EXPECT_EQ(actual, expected) << w.description;

  // And both agree with the single-machine reference.
  EXPECT_EQ(sorted_ids(streamed.skyline), sorted_ids(skyline::naive_skyline(w.points)))
      << w.description;

  // Pruning accounting is conservative and consistent: every payload byte is
  // either read or pruned.
  const auto& metrics = streamed.partition_job;
  std::uint64_t payload = 0;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    payload += source.block_stats(b).bytes;
  }
  EXPECT_EQ(metrics.bytes_read + metrics.bytes_pruned, payload) << w.description;
  EXPECT_LE(metrics.blocks_pruned, source.block_count()) << w.description;
  // The resident run's virtual blocks carry no corners, so it never prunes.
  EXPECT_EQ(resident.partition_job.blocks_pruned, 0u) << w.description;

  // A spill budget smaller than the shuffle volume forces real spill traffic;
  // spilling must never change the result (the identity above already proved
  // that). With the combiner on the guarantee disappears — map tasks shuffle
  // only their partial skylines, which can stay under any budget.
  if (w.config.run_options.shuffle_spill_bytes > 0 && !w.config.use_combiner) {
    EXPECT_GT(metrics.shuffle_spilled_bytes, 0u) << w.description;
    EXPECT_GT(metrics.shuffle_spill_files, 0u) << w.description;
  }
}

TEST_P(OutOfCoreSweep, ParallelMergeStreamedMatchesResidentInOrder) {
  // scheme=auto ends in the parallel merge, whose output is ordered by id:
  // the streamed and resident runs agree bitwise and in order, even though
  // they plan and fit on different samples. Faults and spilling ride along.
  Workload w = make_workload(GetParam() + 7000);
  w.config.scheme = part::Scheme::kAuto;
  if (GetParam() % 3 == 1) {
    w.config.run_options.task_failure_probability = 0.2;
    w.config.run_options.max_task_attempts = 16;
  }
  const std::string path = testing::TempDir() + "/ooc_parallel_" +
                           std::to_string(GetParam()) + ".mrb";
  data::write_block_store(path, w.points.select(data::zorder_permutation(w.points)),
                          w.block_rows);
  const data::BlockStoreSource source(path);

  const auto resident = core::run_mr_skyline(w.points, w.config);
  const auto streamed = core::run_mr_skyline(source, w.config);
  EXPECT_TRUE(streamed.plan.parallel_merge) << w.description;
  EXPECT_EQ(streamed.merge_job().job_name, "parallel-merge") << w.description;
  EXPECT_EQ(streamed.skyline, resident.skyline) << w.description;
  EXPECT_EQ(sorted_ids(streamed.skyline), sorted_ids(skyline::naive_skyline(w.points)))
      << w.description;

  // An explicit scheme streamed under both execution modes: the same run,
  // counter for counter.
  core::MRSkylineConfig config = w.config;
  config.scheme = part::Scheme::kAngular;
  config.parallel_merge = true;
  config.salt_oversized_partitions = GetParam() % 2 == 0;
  config.salt_target_factor = 1.0;
  config.run_options.mode = mr::ExecutionMode::kSequential;
  const auto sequential = core::run_mr_skyline(source, config);
  config.run_options.mode = mr::ExecutionMode::kThreads;
  const auto threaded = core::run_mr_skyline(source, config);
  EXPECT_TRUE(test::same_run(sequential, threaded)) << w.description;
  EXPECT_EQ(sequential.skyline, resident.skyline) << w.description;
}

TEST_P(OutOfCoreSweep, PrunedBlocksContainNoSkylineMember) {
  // Direct soundness check of the footer-corner prune rule, independent of
  // the pipeline: a block whose min corner is strictly dominated by any
  // dataset point contributes nothing to the global skyline.
  const Workload w = make_workload(GetParam() + 5000);
  const std::string path = testing::TempDir() + "/ooc_prune_" +
                           std::to_string(GetParam()) + ".mrb";
  data::write_block_store(path, w.points.select(data::zorder_permutation(w.points)),
                          w.block_rows);
  const data::BlockStoreSource source(path);
  const auto skyline_ids = sorted_ids(skyline::naive_skyline(w.points));
  const data::BlockPrune prune = data::prune_blocks(source, w.points);
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    if (std::binary_search(prune.kept.begin(), prune.kept.end(), b)) continue;
    data::PointSet block(w.points.dim());
    source.read_block(b, block);
    for (std::size_t r = 0; r < block.size(); ++r) {
      EXPECT_FALSE(std::binary_search(skyline_ids.begin(), skyline_ids.end(), block.id(r)))
          << "pruned block " << b << " holds skyline id " << block.id(r) << " — "
          << w.description;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutOfCoreSweep, testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace mrsky
