// Partition salting (MRSkylineConfig::salt_oversized_partitions).
#include <gtest/gtest.h>

#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

using data::PointSet;

PointSet clumped_workload(std::size_t n) {
  // QWS-like data is direction-clumped: pure angular partitioning piles most
  // points into few sectors, which is exactly what salting targets.
  data::QwsLikeGenerator gen(8, 53);
  return data::normalize_min_max(gen.generate_oriented(n));
}

MRSkylineConfig salted_config(bool salted) {
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 8;
  config.salt_oversized_partitions = salted;
  return config;
}

TEST(Salting, SkylineUnchanged) {
  const PointSet ps = clumped_workload(5000);
  const auto plain = run_mr_skyline(ps, salted_config(false));
  const auto salted = run_mr_skyline(ps, salted_config(true));
  EXPECT_TRUE(skyline::same_ids(plain.skyline, salted.skyline));
  EXPECT_TRUE(skyline::same_ids(salted.skyline, skyline::bnl_skyline(ps)));
}

TEST(Salting, SplitsTheDenseSector) {
  const PointSet ps = clumped_workload(10000);
  const auto plain = run_mr_skyline(ps, salted_config(false));
  const auto salted = run_mr_skyline(ps, salted_config(true));
  // More reduce tasks than partitions, and the largest reduce task shrinks.
  EXPECT_GT(salted.partition_job.reduce_tasks.size(),
            plain.partition_job.reduce_tasks.size());
  auto max_records = [](const mr::JobMetrics& m) {
    std::uint64_t best = 0;
    for (const auto& t : m.reduce_tasks) best = std::max(best, t.records_in);
    return best;
  };
  EXPECT_LT(max_records(salted.partition_job), max_records(plain.partition_job));
}

TEST(Salting, LocalSkylinesStillIndexedByPartition) {
  const PointSet ps = clumped_workload(4000);
  const auto salted = run_mr_skyline(ps, salted_config(true));
  EXPECT_EQ(salted.local_skylines.size(), 16u);  // partitions, not keys
  std::size_t covered = 0;
  for (const auto& ls : salted.local_skylines) covered += ls.size();
  EXPECT_GE(covered, salted.skyline.size());
}

TEST(Salting, NoopOnBalancedData) {
  // Random partitioning is already balanced: salting must not change the
  // reduce-task count.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 4000, 3, 55);
  MRSkylineConfig base = salted_config(false);
  base.scheme = part::Scheme::kRandom;
  MRSkylineConfig salted = salted_config(true);
  salted.scheme = part::Scheme::kRandom;
  const auto a = run_mr_skyline(ps, base);
  const auto b = run_mr_skyline(ps, salted);
  EXPECT_EQ(a.partition_job.reduce_tasks.size(), b.partition_job.reduce_tasks.size());
}

TEST(Salting, WorksWithParallelMergeAndCombiner) {
  const PointSet ps = clumped_workload(3000);
  MRSkylineConfig config = salted_config(true);
  config.parallel_merge = true;
  config.use_combiner = true;
  const auto result = run_mr_skyline(ps, config);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
}

TEST(Salting, WorksWithGridPruning) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 5000, 2, 57);
  MRSkylineConfig config = salted_config(true);
  config.scheme = part::Scheme::kGrid;
  const auto result = run_mr_skyline(ps, config);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
  EXPECT_FALSE(result.partition_report.prunable.empty());
}

TEST(Salting, RejectsBadFactor) {
  const PointSet ps = clumped_workload(100);
  MRSkylineConfig config = salted_config(true);
  config.salt_target_factor = 0.5;
  EXPECT_THROW(run_mr_skyline(ps, config), mrsky::InvalidArgument);
}

TEST(Salting, LocalPointsCounterMatchesLocalSkylineSizes) {
  // `skyline.local_points` counts the reduce-side local-skyline pass only,
  // so it must equal the summed local skyline sizes with the combiner off
  // AND on (the map-side pass reports as `skyline.combine_points` instead
  // of double-counting into the same name).
  const PointSet ps = clumped_workload(4000);
  for (bool combiner : {false, true}) {
    MRSkylineConfig config = salted_config(true);
    config.use_combiner = combiner;
    const auto result = run_mr_skyline(ps, config);
    std::uint64_t local_total = 0;
    for (const auto& ls : result.local_skylines) local_total += ls.size();
    const auto totals = result.partition_job.counter_totals();
    EXPECT_EQ(totals.at("skyline.local_points"), local_total)
        << "use_combiner=" << combiner;
    if (combiner) {
      // The combine pass ran and reported under its own counter, charged to
      // the map side; the reduce side never increments it.
      EXPECT_GT(totals.at("skyline.combine_points"), 0u);
      EXPECT_EQ(result.partition_job.map_total().counters.count("skyline.local_points"), 0u);
      EXPECT_EQ(result.partition_job.reduce_total().counters.count("skyline.combine_points"),
                0u);
    } else {
      EXPECT_EQ(totals.count("skyline.combine_points"), 0u);
    }
  }
}

TEST(Salting, DeterministicAcrossRuns) {
  const PointSet ps = clumped_workload(2000);
  const auto a = run_mr_skyline(ps, salted_config(true));
  const auto b = run_mr_skyline(ps, salted_config(true));
  EXPECT_EQ(sorted_ids(a.skyline), sorted_ids(b.skyline));
  EXPECT_EQ(a.partition_job.shuffle_records, b.partition_job.shuffle_records);
}

}  // namespace
}  // namespace mrsky::core
