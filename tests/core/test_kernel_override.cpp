// The local_skyline_override hook: plugging a custom skyline kernel (here
// SFS, bypassing the local_algorithm enum) into the MapReduce pipeline.
#include <gtest/gtest.h>

#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

using data::PointSet;

MRSkylineConfig sfs_config() {
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 4;
  config.local_skyline_override = [](const PointSet& ps, skyline::SkylineStats* stats) {
    return skyline::sfs_skyline(ps, stats);
  };
  return config;
}

TEST(KernelOverride, SfsPipelineMatchesBnlPipeline) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 1500, 4, 21);
  MRSkylineConfig bnl;
  bnl.scheme = part::Scheme::kAngular;
  bnl.servers = 4;
  const auto reference = run_mr_skyline(ps, bnl);
  const auto sfs = run_mr_skyline(ps, sfs_config());
  EXPECT_TRUE(skyline::same_ids(reference.skyline, sfs.skyline));
}

TEST(KernelOverride, MatchesSequentialReference) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 900, 3, 23);
  const auto result = run_mr_skyline(ps, sfs_config());
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
}

TEST(KernelOverride, StatsStillChargeWork) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 800, 3, 25);
  const auto result = run_mr_skyline(ps, sfs_config());
  EXPECT_GT(result.partition_job.reduce_total().work_units, 0u);
  EXPECT_GT(result.merge_job().reduce_total().work_units, 0u);
}

TEST(KernelOverride, OverrideTakesPrecedenceOverEnum) {
  // Even with a bogus enum value the override result must rule. Use a kernel
  // that tags its use through a side effect.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 200, 2, 27);
  int calls = 0;
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 2;
  config.local_algorithm = skyline::Algorithm::kNaive;
  config.local_skyline_override = [&calls](const PointSet& points,
                                           skyline::SkylineStats* stats) {
    ++calls;
    return skyline::sfs_skyline(points, stats);
  };
  const auto result = run_mr_skyline(ps, config);
  EXPECT_GT(calls, 0);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
}

TEST(KernelOverride, WorksWithParallelMerge) {
  // Under the parallel merge the override serves the local skylines only:
  // one call per non-empty partition key, none from the merge job.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 700, 3, 29);
  int calls = 0;
  auto config = sfs_config();
  config.parallel_merge = true;
  config.local_skyline_override = [&calls](const PointSet& points,
                                           skyline::SkylineStats* stats) {
    ++calls;
    return skyline::sfs_skyline(points, stats);
  };
  const auto result = run_mr_skyline(ps, config);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
  std::size_t non_empty_keys = 0;
  for (const auto& task : result.partition_job.reduce_tasks) non_empty_keys += task.records_in > 0;
  EXPECT_EQ(static_cast<std::size_t>(calls), non_empty_keys);
  EXPECT_EQ(result.merge_job().reduce_tasks.size(), 2 * config.servers);
}

}  // namespace
}  // namespace mrsky::core
