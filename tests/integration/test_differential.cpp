// Randomised differential testing: every skyline implementation in the
// library — four scan algorithms, the bounded-window BNL, and the MapReduce
// pipeline under every partitioning scheme and both final phases — must
// agree on randomly drawn workloads (size, dimension, distribution,
// duplicate injection and score ties all derived from the seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/transforms.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/bnl_bounded.hpp"
#include "src/skyline/verify.hpp"
#include "tests/support/run_compare.hpp"

namespace mrsky {
namespace {

struct Workload {
  data::PointSet points{1};
  std::string description;
};

Workload make_workload(std::uint64_t seed) {
  common::Rng rng(seed * 7919 + 13);
  const std::size_t n = 50 + rng.uniform_index(750);
  const std::size_t dim = 1 + rng.uniform_index(8);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  Workload w;
  w.points = data::generate(dist, n, dim, seed);
  if (rng.uniform() < 0.5 && !w.points.empty()) {
    const std::size_t copies = 1 + rng.uniform_index(n / 4 + 1);
    w.points = data::with_duplicates(w.points, copies, rng);
  }
  w.description = data::to_string(dist) + " n=" + std::to_string(w.points.size()) +
                  " d=" + std::to_string(dim);
  return w;
}

/// The points snapped down to a 1/8 grid: exact coordinate-sum ties and
/// duplicates everywhere, the cases a score-only SFS presort gets wrong.
data::PointSet on_grid(const data::PointSet& ps) {
  data::PointSet out(ps.dim());
  std::vector<double> p(ps.dim());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < ps.dim(); ++a) p[a] = std::floor(ps.point(i)[a] * 8.0) / 8.0;
    out.push_back(p, ps.id(i));
  }
  return out;
}

class Differential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, AllImplementationsAgree) {
  const Workload w = make_workload(GetParam());
  const auto reference = sorted_ids(skyline::naive_skyline(w.points));

  auto expect_same = [&](const data::PointSet& sky, const std::string& what) {
    EXPECT_EQ(sorted_ids(sky), reference) << what << " on " << w.description;
  };

  expect_same(skyline::bnl_skyline(w.points), "bnl");
  expect_same(skyline::sfs_skyline(w.points), "sfs");
  expect_same(skyline::dc_skyline(w.points), "dc");
  expect_same(skyline::bnl_skyline_bounded(w.points, 3), "bnl-bounded-w3");
  expect_same(skyline::bnl_skyline_bounded(w.points, 64), "bnl-bounded-w64");
}

TEST_P(Differential, PipelineAgreesUnderEveryScheme) {
  const Workload w = make_workload(GetParam() + 1000);
  const auto reference = sorted_ids(skyline::naive_skyline(w.points));
  for (part::Scheme scheme : {part::Scheme::kDimensional, part::Scheme::kGrid,
                              part::Scheme::kAngular, part::Scheme::kAngularEquiDepth,
                              part::Scheme::kAngularRadial, part::Scheme::kPivot,
                              part::Scheme::kRandom}) {
    core::MRSkylineConfig config;
    config.scheme = scheme;
    config.servers = 1 + GetParam() % 6;
    config.parallel_merge = GetParam() % 3 != 0;
    config.use_combiner = (GetParam() % 2 == 1);
    config.salt_oversized_partitions = (GetParam() % 5 < 2);
    const auto result = core::run_mr_skyline(w.points, config);
    EXPECT_EQ(sorted_ids(result.skyline), reference)
        << part::to_string(scheme) << " on " << w.description;
  }
}

TEST_P(Differential, ParallelMergeAndAutoAgreeUnderBothModes) {
  Workload w = make_workload(GetParam() + 3000);
  if (GetParam() % 2 == 0) w.points = on_grid(w.points);
  const auto reference = sorted_ids(skyline::naive_skyline(w.points));
  for (part::Scheme scheme : {part::Scheme::kAuto, part::Scheme::kAngular, part::Scheme::kGrid,
                              part::Scheme::kRandom}) {
    core::MRSkylineConfig config;
    config.scheme = scheme;
    config.servers = 1 + GetParam() % 6;
    config.parallel_merge = true;
    // Salting at the lowest target splits every above-average partition
    // into sub-keys, whose local skylines overlap in the merge input.
    config.salt_oversized_partitions = true;
    config.salt_target_factor = 1.0;
    if (GetParam() % 3 == 0) {
      config.run_options.task_failure_probability = 0.25;
      config.run_options.max_task_attempts = 16;
    }
    const std::string what = part::to_string(scheme) + " on " + w.description;
    const auto sequential = core::run_mr_skyline(w.points, config);
    EXPECT_EQ(sorted_ids(sequential.skyline), reference) << what;
    EXPECT_TRUE(std::is_sorted(sequential.skyline.ids().begin(), sequential.skyline.ids().end()))
        << what;

    config.run_options.mode = mr::ExecutionMode::kThreads;
    config.run_options.num_threads = 4;
    const auto threaded = core::run_mr_skyline(w.points, config);
    if (scheme == part::Scheme::kAuto) {
      // The planner prices for the lanes it runs on, so the two modes may
      // resolve different plans; the id-ordered skyline is the same anyway.
      EXPECT_TRUE(threaded.plan.parallel_merge) << what;
      EXPECT_EQ(threaded.skyline, sequential.skyline) << what;
    } else {
      EXPECT_TRUE(test::same_run(sequential, threaded)) << what;
    }
  }
}

TEST_P(Differential, VerifierAcceptsReferenceOutput) {
  const Workload w = make_workload(GetParam() + 2000);
  const auto sky = skyline::bnl_skyline(w.points);
  const auto verdict = skyline::verify_skyline(w.points, sky);
  EXPECT_TRUE(verdict.ok) << verdict.message << " on " << w.description;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mrsky
