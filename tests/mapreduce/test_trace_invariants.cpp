// Trace-invariant tests (ISSUE 4): the spans the engine and the cluster
// simulator record must form a well-shaped timeline — every task traced,
// retries before successes, one merge job under either final phase,
// no lane running two things at once — under both execution modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/mapreduce/trace_export.hpp"
#include "tests/support/trace_test_utils.hpp"

namespace mrsky {
namespace {

using common::TraceRecorder;
using common::TraceSpan;

data::PointSet workload() {
  return data::generate(data::Distribution::kAnticorrelated, 400, 4, /*seed=*/77);
}

core::MRSkylineResult traced_run(TraceRecorder& rec, core::MRSkylineConfig config,
                                 const data::PointSet& points) {
  config.run_options.trace = &rec;
  return core::run_mr_skyline(points, config);
}

std::size_t total_tasks(const mr::JobMetrics& job, bool reduce) {
  return reduce ? job.reduce_tasks.size() : job.map_tasks.size();
}

class TraceInvariants : public testing::TestWithParam<mr::ExecutionMode> {
 protected:
  core::MRSkylineConfig base_config() const {
    core::MRSkylineConfig config;
    config.servers = 3;
    config.run_options.mode = GetParam();
    config.run_options.num_threads = 4;
    return config;
  }
};

TEST_P(TraceInvariants, EngineTimelineIsWellShaped) {
  TraceRecorder rec;
  traced_run(rec, base_config(), workload());
  const auto spans = rec.spans();
  EXPECT_TRUE(test::well_formed(spans));
  EXPECT_TRUE(test::no_sibling_overlap(spans));
  EXPECT_TRUE(test::valid_json(rec.to_chrome_json()));
}

TEST_P(TraceInvariants, EveryTaskAndShuffleIsTraced) {
  TraceRecorder rec;
  const auto result = traced_run(rec, base_config(), workload());
  const auto spans = rec.spans();

  std::size_t map_tasks = total_tasks(result.partition_job, false);
  std::size_t reduce_tasks = total_tasks(result.partition_job, true);
  for (const auto& round : result.merge_rounds) {
    map_tasks += total_tasks(round, false);
    reduce_tasks += total_tasks(round, true);
  }
  EXPECT_EQ(test::spans_named(spans, "map").size(), map_tasks);
  EXPECT_EQ(test::spans_named(spans, "reduce").size(), reduce_tasks);
  // One attempt span per successful (fault-free) task execution.
  EXPECT_EQ(test::spans_in_category(spans, "attempt").size(), map_tasks + reduce_tasks);
  // One shuffle span per job; pipeline + partition-fit recorded once each.
  EXPECT_EQ(test::spans_named(spans, "shuffle").size(), 1 + result.merge_rounds.size());
  EXPECT_EQ(test::spans_named(spans, "mr-skyline").size(), 1u);
  EXPECT_EQ(test::spans_named(spans, "partition-fit").size(), 1u);
  // Job spans carry their configured task counts.
  const auto jobs = test::spans_in_category(spans, "job");
  ASSERT_EQ(jobs.size(), 1 + result.merge_rounds.size());
  EXPECT_EQ(jobs[0]->name, "partition-local-skyline");
  EXPECT_EQ(jobs[0]->arg_int("map_tasks"),
            static_cast<std::int64_t>(result.partition_job.map_tasks.size()));
}

TEST_P(TraceInvariants, OneMergeJobUnderEitherFinalPhase) {
  for (const bool parallel : {false, true}) {
    TraceRecorder rec;
    auto config = base_config();
    config.parallel_merge = parallel;
    const auto result = traced_run(rec, config, workload());
    ASSERT_EQ(result.merge_rounds.size(), 1u) << "parallel=" << parallel;
    const auto spans = rec.spans();
    const char* ran = parallel ? "parallel-merge" : "merge-round-1";
    const char* other = parallel ? "merge-round-1" : "parallel-merge";
    ASSERT_EQ(test::spans_named(spans, ran).size(), 1u) << ran;
    EXPECT_EQ(test::spans_named(spans, other).size(), 0u) << other;
    // The merge job's span records the reducer count it ran with.
    EXPECT_EQ(test::spans_named(spans, ran)[0]->arg_int("reduce_tasks"),
              static_cast<std::int64_t>(parallel ? 2 * config.servers : 1));
  }
}

TEST_P(TraceInvariants, FailedAttemptsPrecedeTheSuccessfulRetry) {
  TraceRecorder rec;
  auto config = base_config();
  config.run_options.task_failure_probability = 0.3;
  config.run_options.max_task_attempts = 16;
  const auto result = traced_run(rec, config, workload());
  const auto spans = rec.spans();
  EXPECT_TRUE(test::well_formed(spans));
  EXPECT_TRUE(test::retries_precede_success(spans));

  // The failed-attempt spans account for exactly the waste the metrics report.
  std::int64_t span_waste = 0;
  std::size_t failed_spans = 0;
  for (const TraceSpan* a : test::spans_in_category(spans, "attempt")) {
    const auto* status = a->find_arg("status");
    if (status != nullptr && status->value == "failed") {
      ++failed_spans;
      span_waste += a->arg_int("wasted_records", 0);
    }
  }
  std::uint64_t metric_waste = 0;
  std::size_t metric_retries = 0;
  auto tally = [&](const mr::JobMetrics& job) {
    for (const auto* tasks : {&job.map_tasks, &job.reduce_tasks}) {
      for (const auto& t : *tasks) {
        metric_waste += t.wasted_records;
        metric_retries += t.attempts - 1;
      }
    }
  };
  tally(result.partition_job);
  for (const auto& round : result.merge_rounds) tally(round);
  EXPECT_GT(failed_spans, 0u) << "fault injection produced no failed attempts";
  EXPECT_EQ(failed_spans, metric_retries);
  EXPECT_EQ(static_cast<std::uint64_t>(span_waste), metric_waste);
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceInvariants,
                         testing::Values(mr::ExecutionMode::kSequential,
                                         mr::ExecutionMode::kThreads),
                         [](const auto& param_info) {
                           return param_info.param == mr::ExecutionMode::kSequential
                                      ? "Sequential"
                                      : "Threads";
                         });

TEST(TraceInvariantsModes, SkylineIdenticalAcrossModesWithTracingOn) {
  const auto points = workload();
  std::vector<data::PointId> ids[2];
  std::vector<double> coords[2];
  const mr::ExecutionMode modes[2] = {mr::ExecutionMode::kSequential,
                                      mr::ExecutionMode::kThreads};
  for (int m = 0; m < 2; ++m) {
    TraceRecorder rec;
    core::MRSkylineConfig config;
    config.servers = 3;
    config.parallel_merge = true;
    config.run_options.mode = modes[m];
    config.run_options.task_failure_probability = 0.2;
    config.run_options.max_task_attempts = 16;
    const auto result = traced_run(rec, config, points);
    for (std::size_t i = 0; i < result.skyline.size(); ++i) {
      ids[m].push_back(result.skyline.id(i));
      for (double c : result.skyline.point(i)) coords[m].push_back(c);
    }
  }
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(coords[0], coords[1]);  // bitwise-identical doubles, same order
}

// --- Cluster-simulator timeline. ---

class SimulatorTrace : public testing::Test {
 protected:
  std::vector<mr::JobMetrics> pipeline_jobs() {
    core::MRSkylineConfig config;
    config.servers = 4;
    config.parallel_merge = true;
    const auto result = core::run_mr_skyline(workload(), config);
    std::vector<mr::JobMetrics> jobs;
    jobs.push_back(result.partition_job);
    jobs.insert(jobs.end(), result.merge_rounds.begin(), result.merge_rounds.end());
    return jobs;
  }
};

TEST_F(SimulatorTrace, ScheduledTimelineCoversEveryPlacement) {
  const auto jobs = pipeline_jobs();
  mr::ClusterModel model;
  model.servers = 4;

  TraceRecorder rec;
  const double end = mr::append_pipeline_trace(rec, jobs, model);
  EXPECT_GT(end, 0.0);

  const auto spans = rec.spans();
  EXPECT_TRUE(test::well_formed(spans));
  EXPECT_TRUE(test::no_sibling_overlap(spans));
  EXPECT_TRUE(test::valid_json(rec.to_chrome_json()));

  std::size_t expected_placements = 0;
  for (const auto& job : jobs) {
    const auto trace = mr::trace_job(job, model);
    expected_placements += trace.map.placements.size() + trace.reduce.placements.size();
  }
  EXPECT_EQ(test::spans_in_category(spans, "sim-task").size(), expected_placements);
  const auto sim_jobs = test::spans_in_category(spans, "sim-job");
  ASSERT_EQ(sim_jobs.size(), jobs.size());
  // Jobs run back-to-back on the job lane, in pipeline order.
  for (std::size_t i = 1; i < sim_jobs.size(); ++i) {
    EXPECT_GE(sim_jobs[i]->start_ns, sim_jobs[i - 1]->end_ns);
  }
  for (const TraceSpan* s : test::spans_in_category(spans, "sim-task")) {
    EXPECT_EQ(s->pid, common::kTracePidSimulator);
    EXPECT_GE(s->lane, 1u);  // lane 0 is reserved for the job timeline
  }
}

TEST_F(SimulatorTrace, NodeLossMarksReexecutedTasks) {
  const auto jobs = pipeline_jobs();
  mr::ClusterModel model;
  model.servers = 4;
  // Failure times are job-relative with the map phase at t=0; every map task
  // here costs ~1s (task startup dominates), so t=0.5 kills in-flight work.
  model.node_failures.push_back(mr::NodeFailure{/*server=*/0, /*time_seconds=*/0.5});

  TraceRecorder rec;
  mr::append_pipeline_trace(rec, jobs, model);
  const auto spans = rec.spans();
  EXPECT_TRUE(test::well_formed(spans));
  EXPECT_TRUE(test::no_sibling_overlap(spans));

  std::size_t expected_reexecuted = 0;
  for (const auto& job : jobs) {
    const auto trace = mr::trace_job(job, model);
    for (const auto* phase : {&trace.map, &trace.reduce}) {
      for (const auto& p : phase->placements) {
        if (p.reexecuted) ++expected_reexecuted;
      }
    }
  }
  std::size_t marked = 0;
  for (const TraceSpan* s : test::spans_in_category(spans, "sim-task")) {
    if (s->arg_int("reexecuted", 0) == 1) ++marked;
  }
  EXPECT_EQ(marked, expected_reexecuted);
  EXPECT_GT(marked, 0u) << "node failure at t=25s re-executed nothing";
}

}  // namespace
}  // namespace mrsky
