// The one-round parallel final phase (MRSkylineConfig::parallel_merge): the
// union U of the local skylines sorted once in SFS order and broadcast,
// 2 × servers reducers each keeping the points no earlier point of U
// dominates. It must return the single-reducer merge's skyline, ordered by
// id, charge the scalar prefix scan's dominance tests, and spread the merge
// work across its reducers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/partition/partitioner.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/dominance.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

using data::PointSet;

MRSkylineConfig merge_config(bool parallel, std::size_t servers = 8) {
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = servers;
  config.parallel_merge = parallel;
  return config;
}

bool ordered_by_id(const PointSet& ps) {
  for (std::size_t i = 1; i < ps.size(); ++i) {
    if (ps.id(i - 1) > ps.id(i)) return false;
  }
  return true;
}

TEST(ParallelMerge, SingleReducerIsTheDefault) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 3, 3);
  const auto result = run_mr_skyline(ps, MRSkylineConfig{});
  ASSERT_EQ(result.merge_rounds.size(), 1u);
  EXPECT_EQ(result.merge_job().job_name, "merge-round-1");
  EXPECT_EQ(result.merge_job().reduce_tasks.size(), 1u);
}

TEST(ParallelMerge, OneRoundOnTwoReducersPerServer) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 800, 3, 7);
  for (std::size_t servers : {1u, 3u, 8u}) {
    const auto result = run_mr_skyline(ps, merge_config(true, servers));
    ASSERT_EQ(result.merge_rounds.size(), 1u);
    EXPECT_EQ(result.merge_job().job_name, "parallel-merge");
    EXPECT_EQ(result.merge_job().reduce_tasks.size(), 2 * servers);
  }
}

TEST(ParallelMerge, SkylineIdenticalToSingleReducerAndOrderedById) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 1200, 4, 9);
  const auto single = run_mr_skyline(ps, merge_config(false));
  const auto parallel = run_mr_skyline(ps, merge_config(true));
  EXPECT_TRUE(skyline::same_ids(single.skyline, parallel.skyline));
  EXPECT_TRUE(ordered_by_id(parallel.skyline));
  // Same local skylines: only the final phase differs.
  for (std::size_t p = 0; p < single.local_skylines.size(); ++p) {
    EXPECT_EQ(single.local_skylines[p], parallel.local_skylines[p]) << "partition " << p;
  }
}

TEST(ParallelMerge, MatchesSequentialReferenceBitwise) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 900, 5, 11);
  const auto result = run_mr_skyline(ps, merge_config(true));
  // sfs_skyline returns its survivors in input order, which is id order here.
  EXPECT_EQ(result.skyline, skyline::sfs_skyline(ps));
}

TEST(ParallelMerge, WorksWithEveryScheme) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 600, 3, 19);
  const auto reference = skyline::bnl_skyline(ps);
  for (part::Scheme scheme : {part::Scheme::kDimensional, part::Scheme::kGrid,
                              part::Scheme::kAngular, part::Scheme::kAngularEquiDepth,
                              part::Scheme::kAngularRadial, part::Scheme::kPivot,
                              part::Scheme::kRandom}) {
    auto config = merge_config(true);
    config.scheme = scheme;
    const auto result = run_mr_skyline(ps, config);
    EXPECT_TRUE(skyline::same_ids(result.skyline, reference)) << part::to_string(scheme);
  }
}

TEST(ParallelMerge, ChargesTheScalarPrefixScanAndTheBroadcastRead) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 1500, 4, 21);
  const auto config = merge_config(true, 4);
  const auto result = run_mr_skyline(ps, config);

  // Rebuild U and count what a scalar scan of each point's SFS prefix makes:
  // tests up to and including the first dominator, the whole prefix if none.
  PointSet u(ps.dim());
  for (const PointSet& local : result.local_skylines) {
    for (std::size_t i = 0; i < local.size(); ++i) u.push_back(local.point(i), local.id(i));
  }
  const auto order = skyline::sfs_order(u.size(), [&u](std::size_t i) { return u.point(i); });
  std::uint64_t prefix_tests = 0;
  std::size_t survivors = 0;
  for (std::size_t r = 0; r < order.size(); ++r) {
    std::size_t k = 0;
    while (k < r && !skyline::dominates(u.point(order[k]), u.point(order[r]))) ++k;
    prefix_tests += k < r ? k + 1 : r;
    survivors += k == r;
  }
  const std::size_t reducers = 2 * config.servers;
  const std::uint64_t broadcast_reads = std::min(reducers, u.size()) * u.size();
  const mr::JobMetrics& merge = result.merge_job();
  EXPECT_EQ(merge.reduce_total().work_units, prefix_tests + broadcast_reads);
  EXPECT_EQ(merge.map_total().work_units, u.size());  // one re-key per point
  EXPECT_EQ(merge.counter_totals().at("skyline.merged_points"), survivors);
  EXPECT_EQ(survivors, result.skyline.size());
}

TEST(ParallelMerge, SpreadsTheMergeReduceAcrossTheCluster) {
  // Algorithm 1's merge is one reducer (Fig. 6's bottleneck); the parallel
  // phase's largest reduce task is a fraction of it, and the simulated
  // Reduce phase of the merge job shrinks accordingly.
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 4000, 5, 17);
  const auto single = run_mr_skyline(ps, merge_config(false));
  const auto parallel = run_mr_skyline(ps, merge_config(true));
  std::uint64_t largest = 0;
  for (const auto& task : parallel.merge_job().reduce_tasks) {
    largest = std::max(largest, task.work_units);
  }
  EXPECT_LT(largest * 4, single.merge_job().reduce_total().work_units);
  mr::ClusterModel model;
  model.servers = 8;
  EXPECT_LT(mr::simulate_job(parallel.merge_job(), model).reduce_seconds,
            mr::simulate_job(single.merge_job(), model).reduce_seconds);
}

/// Routes points with a positive first coordinate to partition 0 and the
/// rest to partition 1, so a pair can be kept out of each other's local
/// skyline.
class FirstCoordinateSplit final : public part::Partitioner {
 public:
  void fit(const PointSet& /*ps*/) override {}
  [[nodiscard]] std::size_t assign(std::span<const double> point) const override {
    return point[0] > 0.0 ? 0 : 1;
  }
  [[nodiscard]] std::size_t num_partitions() const noexcept override { return 2; }
  [[nodiscard]] std::string name() const override { return "first-coordinate-split"; }
};

TEST(ParallelMerge, TiedScoresKeepTheDominatorFirst) {
  // q = (0, 1) dominates p = (1e-20, 1), yet their floating-point coordinate
  // sums tie. Each is alone in its partition, so both reach the merge, p
  // first. A score-only presort keeps that order and p survives the prefix
  // scan; the lexicographic tie break puts q first.
  PointSet ps(2);
  ps.push_back(std::vector<double>{1e-20, 1.0}, 0);
  ps.push_back(std::vector<double>{0.0, 1.0}, 1);
  const FirstCoordinateSplit split;
  auto config = merge_config(true, 1);
  config.prepared_partitioner = &split;
  const auto result = run_mr_skyline(ps, config);
  ASSERT_EQ(result.local_skylines[0].size(), 1u);
  ASSERT_EQ(result.local_skylines[1].size(), 1u);
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(result.skyline.id(0), 1u);
}

TEST(ParallelMerge, SimulationChargesOneMergeJob) {
  // Both final phases are one job: the same startup on the simulated clock.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 300, 2, 17);
  const auto single = run_mr_skyline(ps, merge_config(false));
  const auto parallel = run_mr_skyline(ps, merge_config(true));
  mr::ClusterModel model;
  model.servers = 8;
  EXPECT_DOUBLE_EQ(parallel.simulate(model).startup_seconds,
                   single.simulate(model).startup_seconds);
}

}  // namespace
}  // namespace mrsky::core
