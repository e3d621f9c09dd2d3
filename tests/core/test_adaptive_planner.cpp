// core::AdaptivePlanner — sample → analyze → optimize, and the scheme=auto
// resolution path through run_mr_skyline. Tests pin explicit CostConstants so
// candidate pricing (and hence every assertion) is machine-independent.
#include "src/core/adaptive_planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/source.hpp"
#include "src/partition/factory.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

/// Fixed constants: deterministic pricing regardless of the host machine.
CostConstants pinned_constants() {
  CostConstants c;
  c.seconds_per_dominance_test = 4e-9;
  c.seconds_per_assign_dim = 2e-9;
  c.seconds_per_shuffle_record = 1.2e-7;
  c.seconds_per_job = 2e-4;
  return c;
}

AdaptivePlannerOptions pinned_options() {
  AdaptivePlannerOptions options;
  options.constants = pinned_constants();
  return options;
}

data::PointSet workload(std::size_t n = 4000, std::size_t dim = 4,
                        std::uint64_t seed = 71) {
  return data::generate(data::Distribution::kAnticorrelated, n, dim, seed);
}

TEST(AdaptivePlanner, SmallDatasetsFallBackToStaticHeuristic) {
  const auto ps = data::generate(data::Distribution::kIndependent, 100, 4, 7);
  const AdaptivePlanner planner(pinned_options());
  const AdaptivePlan plan = planner.plan(ps, MRSkylineConfig{});
  EXPECT_TRUE(plan.fallback);
  EXPECT_TRUE(plan.candidates.empty());
  EXPECT_NE(plan.config.scheme, part::Scheme::kAuto);
  EXPECT_TRUE(plan.config.validate().empty());
  EXPECT_TRUE(plan.config.parallel_merge);  // every auto plan, fallback too
  EXPECT_NE(plan.rationale.find("static heuristic"), std::string::npos);
}

TEST(AdaptivePlanner, EveryPlanEndsInTheParallelMerge) {
  const auto ps = workload();
  const AdaptivePlan plan = AdaptivePlanner(pinned_options()).plan(ps, MRSkylineConfig{});
  EXPECT_FALSE(plan.fallback);
  EXPECT_TRUE(plan.config.parallel_merge);
  // (scheme x Np x salting): at most 4 x 3 x 2 candidates.
  EXPECT_LE(plan.candidates.size(), 24u);
  EXPECT_NE(plan.rationale.find("merge=parallel"), std::string::npos);
}

TEST(AdaptivePlanner, PlanIsDeterministic) {
  const auto ps = workload();
  const AdaptivePlanner planner(pinned_options());
  const AdaptivePlan a = planner.plan(ps, MRSkylineConfig{});
  const AdaptivePlan b = planner.plan(ps, MRSkylineConfig{});
  EXPECT_EQ(a.chosen.scheme, b.chosen.scheme);
  EXPECT_EQ(a.chosen.partitions, b.chosen.partitions);
  EXPECT_EQ(a.chosen.salted, b.chosen.salted);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].scheme, b.candidates[i].scheme) << "candidate " << i;
    EXPECT_DOUBLE_EQ(a.candidates[i].total_seconds(), b.candidates[i].total_seconds());
  }
}

TEST(AdaptivePlanner, ResolvedConfigValidatesAndIsNeverAuto) {
  const auto ps = workload();
  MRSkylineConfig base;
  base.scheme = part::Scheme::kAuto;
  base.servers = 6;
  const AdaptivePlan plan = AdaptivePlanner(pinned_options()).plan(ps, base);
  EXPECT_FALSE(plan.fallback);
  EXPECT_NE(plan.config.scheme, part::Scheme::kAuto);
  EXPECT_TRUE(plan.config.validate().empty());
  // Fields the planner does not decide pass through from the base config.
  EXPECT_EQ(plan.config.servers, 6u);
  EXPECT_EQ(plan.config.prepared_partitioner, nullptr);
}

TEST(AdaptivePlanner, CandidatesSortedCheapestFirstAndChosenIsFirst) {
  const auto ps = workload();
  const AdaptivePlan plan = AdaptivePlanner(pinned_options()).plan(ps, MRSkylineConfig{});
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_TRUE(std::is_sorted(
      plan.candidates.begin(), plan.candidates.end(),
      [](const PlanCandidate& a, const PlanCandidate& b) {
        return a.total_seconds() < b.total_seconds();
      }));
  EXPECT_EQ(plan.chosen.scheme, plan.candidates.front().scheme);
  EXPECT_EQ(plan.chosen.partitions, plan.candidates.front().partitions);
  EXPECT_DOUBLE_EQ(plan.chosen.total_seconds(), plan.candidates.front().total_seconds());
  // Every candidate carries a full phase breakdown and analysis fields.
  for (const PlanCandidate& c : plan.candidates) {
    EXPECT_GT(c.total_seconds(), 0.0);
    EXPECT_GT(c.partitions, 0u);
    EXPECT_GE(c.predicted_merge_input, 0.0);
  }
}

TEST(AdaptivePlanner, RationaleNamesTheDecision) {
  const auto ps = workload();
  const AdaptivePlan plan = AdaptivePlanner(pinned_options()).plan(ps, MRSkylineConfig{});
  EXPECT_NE(plan.rationale.find(part::to_string(plan.chosen.scheme)), std::string::npos);
  EXPECT_NE(plan.rationale.find("candidate"), std::string::npos);
  EXPECT_GT(plan.sample_points, 0u);
}

TEST(AdaptivePlanner, SampleSizeCapsAnalyzedPoints) {
  const auto ps = workload(5000);
  AdaptivePlannerOptions options = pinned_options();
  options.sample_size = 1024;
  const AdaptivePlan plan = AdaptivePlanner(options).plan(ps, MRSkylineConfig{});
  EXPECT_EQ(plan.sample_points, 1024u);
}

TEST(AdaptivePlanner, BlockSkipPreviewCountsWhatPruneBlocksDrops) {
  // A Z-ordered anticorrelated .mrb: tight block corners, many of them
  // strictly dominated by the sample skyline.
  const auto ps = workload(20000);
  const std::string path = testing::TempDir() + "/planner_preview.mrb";
  data::write_block_store(path, ps.select(data::zorder_permutation(ps)), 256);
  const data::BlockStoreSource source(path);
  const AdaptivePlannerOptions options = pinned_options();
  const AdaptivePlan plan = AdaptivePlanner(options).plan(source, MRSkylineConfig{});
  ASSERT_FALSE(plan.fallback);

  const std::string tag = "block stats: ";
  const std::size_t at = plan.rationale.find(tag);
  ASSERT_NE(at, std::string::npos) << plan.rationale;
  std::size_t k = 0;
  std::size_t m = 0;
  ASSERT_EQ(std::sscanf(plan.rationale.c_str() + at + tag.size(), "%zu/%zu", &k, &m), 2);
  EXPECT_GT(k, 0u);
  EXPECT_EQ(m, source.block_count());
  const data::PointSet sample = source.sample(options.sample_size, options.sample_seed);
  EXPECT_EQ(k, data::prune_blocks(source, skyline::bnl_skyline(sample)).blocks_pruned);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_bitwise_equal(const PlanCandidate& a, const PlanCandidate& b, const std::string& what) {
  EXPECT_EQ(a.scheme, b.scheme) << what;
  EXPECT_EQ(a.partitions, b.partitions) << what;
  EXPECT_EQ(a.salted, b.salted) << what;
  EXPECT_TRUE(same_bits(a.balance_cv, b.balance_cv)) << what;
  EXPECT_TRUE(same_bits(a.prunable_fraction, b.prunable_fraction)) << what;
  EXPECT_TRUE(same_bits(a.predicted_merge_input, b.predicted_merge_input)) << what;
  EXPECT_TRUE(same_bits(a.map_seconds, b.map_seconds)) << what;
  EXPECT_TRUE(same_bits(a.shuffle_seconds, b.shuffle_seconds)) << what;
  EXPECT_TRUE(same_bits(a.local_seconds, b.local_seconds)) << what;
  EXPECT_TRUE(same_bits(a.merge_seconds, b.merge_seconds)) << what;
}

void expect_bitwise_equal(const AdaptivePlan& pooled, const AdaptivePlan& serial) {
  EXPECT_EQ(pooled.fallback, serial.fallback);
  EXPECT_EQ(pooled.sample_points, serial.sample_points);
  ASSERT_EQ(pooled.candidates.size(), serial.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    expect_bitwise_equal(pooled.candidates[i], serial.candidates[i],
                         "candidate " + std::to_string(i));
  }
  expect_bitwise_equal(pooled.chosen, serial.chosen, "chosen");
  EXPECT_EQ(pooled.config.scheme, serial.config.scheme);
  EXPECT_EQ(pooled.config.num_partitions, serial.config.num_partitions);
  EXPECT_EQ(pooled.config.parallel_merge, serial.config.parallel_merge);
  EXPECT_EQ(pooled.config.salt_oversized_partitions, serial.config.salt_oversized_partitions);
  EXPECT_TRUE(same_bits(pooled.config.salt_target_factor, serial.config.salt_target_factor));
  EXPECT_EQ(pooled.config.servers, serial.config.servers);
  EXPECT_EQ(pooled.rationale, serial.rationale);
}

TEST(AdaptivePlanner, PooledPlanningIsBitwiseTheSerialPlanning) {
  // Three servers make Np = 3 odd, which angular-radial rejects: that
  // (scheme, Np) pair is skipped, and on the pool it is skipped in parallel.
  AdaptivePlannerOptions options = pinned_options();
  options.schemes = {part::Scheme::kDimensional, part::Scheme::kGrid, part::Scheme::kAngular,
                     part::Scheme::kAngularRadial, part::Scheme::kPivot};
  const AdaptivePlanner planner(options);

  MRSkylineConfig serial;
  serial.scheme = part::Scheme::kAuto;
  serial.servers = 3;
  serial.run_options.mode = mr::ExecutionMode::kThreads;
  serial.run_options.num_threads = 4;
  common::ThreadPool pool(4);
  MRSkylineConfig pooled = serial;
  pooled.run_options.num_threads = 0;
  pooled.run_options.pool = &pool;

  const auto ps = workload(20000, 5);
  const std::string path = testing::TempDir() + "/planner_pooled.mrb";
  data::write_block_store(path, ps.select(data::zorder_permutation(ps)), 512);
  const data::BlockStoreSource source(path);

  const AdaptivePlan resident_serial = planner.plan(ps, serial);
  const AdaptivePlan resident_pooled = planner.plan(ps, pooled);
  const AdaptivePlan streamed_serial = planner.plan(source, serial);
  const AdaptivePlan streamed_pooled = planner.plan(source, pooled);

  for (const AdaptivePlan* plan : {&resident_serial, &streamed_serial}) {
    ASSERT_FALSE(plan->fallback);
    const auto has = [&](part::Scheme scheme, std::size_t np) {
      return std::any_of(plan->candidates.begin(), plan->candidates.end(),
                         [&](const PlanCandidate& c) {
                           return c.scheme == scheme && c.partitions == np;
                         });
    };
    EXPECT_FALSE(has(part::Scheme::kAngularRadial, 3));
    EXPECT_TRUE(has(part::Scheme::kAngularRadial, 6));
    EXPECT_TRUE(std::any_of(plan->candidates.begin(), plan->candidates.end(),
                            [](const PlanCandidate& c) { return c.salted; }));
  }
  {
    SCOPED_TRACE("resident");
    expect_bitwise_equal(resident_pooled, resident_serial);
  }
  {
    SCOPED_TRACE(".mrb");
    expect_bitwise_equal(streamed_pooled, streamed_serial);
  }
  std::remove(path.c_str());
}

TEST(SchemeAuto, FactoryRejectsAutoAsPartitioner) {
  part::PartitionerOptions options;
  options.num_partitions = 8;
  EXPECT_THROW((void)part::make_partitioner(part::Scheme::kAuto, options),
               mrsky::RuntimeError);
}

TEST(SchemeAuto, ParseAndToStringRoundTrip) {
  EXPECT_EQ(part::parse_scheme("auto"), part::Scheme::kAuto);
  EXPECT_EQ(part::parse_scheme("adaptive"), part::Scheme::kAuto);
  EXPECT_EQ(part::to_string(part::Scheme::kAuto), "auto");
}

TEST(SchemeAuto, RunMrSkylineResolvesAutoAndMatchesBnl) {
  const auto ps = workload(3000);
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAuto;
  const MRSkylineResult result = run_mr_skyline(ps, config);
  EXPECT_TRUE(result.plan.engaged);
  EXPECT_NE(result.plan.scheme, part::Scheme::kAuto);
  EXPECT_GT(result.plan.candidates, 0u);
  EXPECT_GE(result.wall_seconds, result.plan.planning_seconds);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
}

TEST(SchemeAuto, StaticRunsLeavePlanDisengaged) {
  const auto ps = workload(1000);
  const MRSkylineResult result = run_mr_skyline(ps, MRSkylineConfig{});
  EXPECT_FALSE(result.plan.engaged);
  EXPECT_DOUBLE_EQ(result.plan.planning_seconds, 0.0);
}

TEST(SchemeAuto, ReplayingResolvedConfigGivesSameIds) {
  const auto ps = workload(3000);
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAuto;
  const MRSkylineResult auto_run = run_mr_skyline(ps, config);

  MRSkylineConfig resolved;
  resolved.scheme = auto_run.plan.scheme;
  resolved.num_partitions = auto_run.plan.partitions;
  resolved.parallel_merge = auto_run.plan.parallel_merge;
  resolved.salt_oversized_partitions = auto_run.plan.salted;
  const MRSkylineResult replay = run_mr_skyline(ps, resolved);
  EXPECT_FALSE(replay.plan.engaged);
  EXPECT_TRUE(skyline::same_ids(auto_run.skyline, replay.skyline));
}

}  // namespace
}  // namespace mrsky::core
