// Run-identity assertion: two pipeline runs of the same configuration must
// agree on the skyline (ids, order and coordinate bits) and on every
// measured counter of both jobs — the kSequential-vs-kThreads contract.
// Wall-clock fields (TaskMetrics::wall_ns, JobMetrics::shuffle_ns) are the
// only ones allowed to differ.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/core/mr_skyline.hpp"

namespace mrsky::test {

inline testing::AssertionResult same_job(const mr::JobMetrics& a, const mr::JobMetrics& b) {
  if (a.job_name != b.job_name) return testing::AssertionFailure() << "job names differ";
  if (a.shuffle_records != b.shuffle_records || a.shuffle_bytes != b.shuffle_bytes ||
      a.shuffle_spilled_bytes != b.shuffle_spilled_bytes ||
      a.shuffle_spill_files != b.shuffle_spill_files) {
    return testing::AssertionFailure() << a.job_name << ": shuffle counters differ";
  }
  for (const bool reduce : {false, true}) {
    const auto& ta = reduce ? a.reduce_tasks : a.map_tasks;
    const auto& tb = reduce ? b.reduce_tasks : b.map_tasks;
    if (ta.size() != tb.size()) {
      return testing::AssertionFailure() << a.job_name << ": task counts differ";
    }
    for (std::size_t t = 0; t < ta.size(); ++t) {
      const mr::TaskMetrics& x = ta[t];
      const mr::TaskMetrics& y = tb[t];
      if (x.records_in != y.records_in || x.records_out != y.records_out ||
          x.work_units != y.work_units || x.attempts != y.attempts ||
          x.wasted_records != y.wasted_records || x.wasted_work_units != y.wasted_work_units ||
          x.records_skipped != y.records_skipped || x.counters != y.counters) {
        return testing::AssertionFailure()
               << a.job_name << (reduce ? " reduce" : " map") << " task " << t << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

inline testing::AssertionResult same_run(const core::MRSkylineResult& a,
                                         const core::MRSkylineResult& b) {
  if (!(a.skyline == b.skyline)) return testing::AssertionFailure() << "skylines differ";
  if (auto r = same_job(a.partition_job, b.partition_job); !r) return r;
  if (a.merge_rounds.size() != b.merge_rounds.size()) {
    return testing::AssertionFailure() << "merge job counts differ";
  }
  return same_job(a.merge_job(), b.merge_job());
}

}  // namespace mrsky::test
