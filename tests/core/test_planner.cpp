#include "src/core/planner.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

TEST(Planner, Validation) {
  PlannerInputs bad;
  EXPECT_THROW((void)plan_config(bad), mrsky::InvalidArgument);
  bad.cardinality = 100;
  EXPECT_THROW((void)plan_config(bad), mrsky::InvalidArgument);  // dim 0
}

TEST(Planner, DefaultsToAngular) {
  PlannerInputs in;
  in.cardinality = 10000;
  in.dim = 4;
  const auto planned = plan_config(in);
  EXPECT_EQ(planned.config.scheme, part::Scheme::kAngular);
  EXPECT_NE(planned.rationale.find("angular"), std::string::npos);
}

TEST(Planner, ClusteredWorkloadsGetPivot) {
  PlannerInputs in;
  in.cardinality = 10000;
  in.dim = 4;
  in.clustered = true;
  EXPECT_EQ(plan_config(in).config.scheme, part::Scheme::kPivot);
}

TEST(Planner, SmallWorkloadsKeepSingleReducer) {
  PlannerInputs in;
  in.cardinality = 1000;
  in.dim = 3;
  EXPECT_FALSE(plan_config(in).config.parallel_merge);
}

TEST(Planner, HugeHighDimensionalWorkloadsGetParallelMerge) {
  PlannerInputs in;
  in.cardinality = 1000000;
  in.dim = 10;
  const auto planned = plan_config(in);
  EXPECT_TRUE(planned.config.parallel_merge);
  EXPECT_TRUE(planned.config.salt_oversized_partitions);
}

TEST(Planner, ServersPropagate) {
  PlannerInputs in;
  in.cardinality = 5000;
  in.dim = 4;
  in.servers = 12;
  const auto planned = plan_config(in);
  EXPECT_EQ(planned.config.servers, 12u);
  EXPECT_EQ(planned.config.effective_partitions(), 24u);
}

TEST(Planner, RationaleExplainsEveryDecision) {
  PlannerInputs in;
  in.cardinality = 50000;
  in.dim = 8;
  const auto planned = plan_config(in);
  EXPECT_NE(planned.rationale.find("scheme="), std::string::npos);
  EXPECT_NE(planned.rationale.find("partitions="), std::string::npos);
  EXPECT_NE(planned.rationale.find("merge="), std::string::npos);
  EXPECT_NE(planned.rationale.find("salting="), std::string::npos);
}

TEST(Planner, PlannedConfigRunsCorrectly) {
  // The planner's output must be a valid configuration end-to-end.
  const auto ps = data::generate(data::Distribution::kIndependent, 2000, 6, 91);
  PlannerInputs in;
  in.cardinality = ps.size();
  in.dim = ps.dim();
  in.servers = 4;
  const auto planned = plan_config(in);
  const auto result = run_mr_skyline(ps, planned.config);
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
}

}  // namespace
}  // namespace mrsky::core
