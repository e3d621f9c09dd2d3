// Sample-based partitioner fitting (MRSkylineConfig::fit_sample_size) and
// the run summary.
#include <gtest/gtest.h>

#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

using data::PointSet;

TEST(SampleFit, SkylineStillExactForEveryScheme) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 3000, 4, 31);
  const auto reference = skyline::bnl_skyline(ps);
  for (part::Scheme scheme : {part::Scheme::kDimensional, part::Scheme::kGrid,
                              part::Scheme::kAngular}) {
    MRSkylineConfig config;
    config.scheme = scheme;
    config.servers = 4;
    config.fit_sample_size = 200;
    const auto result = run_mr_skyline(ps, config);
    EXPECT_TRUE(skyline::same_ids(result.skyline, reference)) << part::to_string(scheme);
  }
}

TEST(SampleFit, SampleLargerThanDataFallsBackToFull) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 300, 3, 33);
  MRSkylineConfig full;
  full.scheme = part::Scheme::kAngular;
  full.servers = 4;
  MRSkylineConfig oversized = full;
  oversized.fit_sample_size = 10000;
  const auto a = run_mr_skyline(ps, full);
  const auto b = run_mr_skyline(ps, oversized);
  EXPECT_EQ(a.partition_report.sizes, b.partition_report.sizes);
}

TEST(SampleFit, DeterministicUnderSeed) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 2000, 3, 35);
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 4;
  config.fit_sample_size = 150;
  const auto a = run_mr_skyline(ps, config);
  const auto b = run_mr_skyline(ps, config);
  EXPECT_EQ(a.partition_report.sizes, b.partition_report.sizes);
}

TEST(SampleFit, DifferentSeedsShiftBoundaries) {
  const PointSet ps = data::generate(data::Distribution::kClustered, 2000, 3, 37);
  MRSkylineConfig a_config;
  a_config.scheme = part::Scheme::kAngularEquiDepth;
  a_config.servers = 4;
  a_config.fit_sample_size = 100;
  MRSkylineConfig b_config = a_config;
  b_config.fit_sample_seed = a_config.fit_sample_seed + 1;
  const auto a = run_mr_skyline(ps, a_config);
  const auto b = run_mr_skyline(ps, b_config);
  // Same exact skyline either way...
  EXPECT_TRUE(skyline::same_ids(a.skyline, b.skyline));
  // ...but (almost surely) different partition boundaries.
  EXPECT_NE(a.partition_report.sizes, b.partition_report.sizes);
}

TEST(Summary, MentionsTheHeadlineNumbers) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 3, 39);
  MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 4;
  const auto result = run_mr_skyline(ps, config);
  const std::string text = result.summary();
  EXPECT_NE(text.find("skyline points:"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(result.skyline.size())), std::string::npos);
  EXPECT_NE(text.find("merge:"), std::string::npos);
  EXPECT_NE(text.find("single reducer"), std::string::npos);
  EXPECT_NE(text.find("balance CV"), std::string::npos);
}

}  // namespace
}  // namespace mrsky::core
