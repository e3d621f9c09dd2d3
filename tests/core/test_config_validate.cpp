// MRSkylineConfig::validate() — the all-errors contract (ISSUE 5 satellite)
// and the merge_job()/merge_rounds aliasing invariant.
#include <gtest/gtest.h>

#include <string>

#include "src/core/mr_skyline.hpp"
#include "src/core/planner.hpp"
#include "src/dataset/generators.hpp"

namespace mrsky {
namespace {

TEST(ConfigValidate, DefaultConfigIsValid) {
  const core::MRSkylineConfig config;
  EXPECT_TRUE(config.validate().empty());
  EXPECT_NO_THROW(config.validate_or_throw());
}

TEST(ConfigValidate, EachProblemIsDetected) {
  {
    core::MRSkylineConfig c;
    c.servers = 0;
    ASSERT_EQ(c.validate().size(), 1u);
    EXPECT_NE(c.validate()[0].find("servers"), std::string::npos);
  }
  {
    core::MRSkylineConfig c;
    c.salt_oversized_partitions = true;
    c.salt_target_factor = 0.5;
    ASSERT_EQ(c.validate().size(), 1u);
    EXPECT_NE(c.validate()[0].find("salt_target_factor"), std::string::npos);
  }
  {
    core::MRSkylineConfig c;
    c.scheme = part::Scheme::kAngularRadial;
    c.num_partitions = 7;
    ASSERT_EQ(c.validate().size(), 1u);
    EXPECT_NE(c.validate()[0].find("even"), std::string::npos);
  }
  {
    core::MRSkylineConfig c;
    c.run_options.max_task_attempts = 0;
    ASSERT_EQ(c.validate().size(), 1u);
    EXPECT_NE(c.validate()[0].find("max_task_attempts"), std::string::npos);
  }
  {
    core::MRSkylineConfig c;
    c.run_options.task_failure_probability = 1.0;
    ASSERT_EQ(c.validate().size(), 1u);
    EXPECT_NE(c.validate()[0].find("task_failure_probability"), std::string::npos);
  }
}

TEST(ConfigValidate, AllProblemsReportedInOneThrow) {
  core::MRSkylineConfig c;
  c.servers = 0;
  c.salt_oversized_partitions = true;
  c.salt_target_factor = 0.0;
  c.run_options.max_task_attempts = 0;
  c.run_options.task_failure_probability = 2.0;
  EXPECT_EQ(c.validate().size(), 4u);

  try {
    c.validate_or_throw();
    FAIL() << "validate_or_throw did not throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 problems"), std::string::npos) << what;
    EXPECT_NE(what.find("servers"), std::string::npos) << what;
    EXPECT_NE(what.find("salt_target_factor"), std::string::npos) << what;
    EXPECT_NE(what.find("max_task_attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("task_failure_probability"), std::string::npos) << what;
  }
}

TEST(ConfigValidate, RunMrSkylineRejectsBadConfigBeforeTouchingData) {
  const auto ps = data::generate(data::Distribution::kIndependent, 50, 3, 7);
  core::MRSkylineConfig c;
  c.servers = 0;
  c.run_options.max_task_attempts = 0;
  try {
    (void)core::run_mr_skyline(ps, c);
    FAIL() << "run_mr_skyline accepted an invalid config";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("servers"), std::string::npos) << what;
    EXPECT_NE(what.find("max_task_attempts"), std::string::npos) << what;
  }
}

TEST(ConfigValidate, PlannerOutputAlwaysValidates) {
  for (std::size_t servers : {1u, 4u, 16u}) {
    for (std::size_t dim : {2u, 6u, 12u}) {
      core::PlannerInputs in;
      in.cardinality = 100000;
      in.dim = dim;
      in.servers = servers;
      const auto planned = core::plan_config(in);
      EXPECT_TRUE(planned.config.validate().empty())
          << "servers=" << servers << " dim=" << dim;
    }
  }
}

TEST(ConfigValidate, MergeJobAliasesLastMergeRound) {
  const auto ps = data::generate(data::Distribution::kAnticorrelated, 200, 3, 11);
  core::MRSkylineConfig config;
  for (const bool parallel : {false, true}) {
    config.parallel_merge = parallel;
    const auto result = core::run_mr_skyline(ps, config);
    // One merge job under either final phase, and merge_job() IS it, not a
    // copy that could drift.
    ASSERT_EQ(result.merge_rounds.size(), 1u);
    EXPECT_EQ(&result.merge_job(), &result.merge_rounds.back());
  }
}

TEST(ConfigValidate, MergeJobThrowsBeforeAnyRun) {
  const core::MRSkylineResult result;
  EXPECT_THROW((void)result.merge_job(), InvalidArgument);
}

}  // namespace
}  // namespace mrsky
