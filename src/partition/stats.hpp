// Partition diagnostics: how balanced is an assignment, and how big are the
// pieces each local-skyline task will see. Used by tests, ablation benches
// and the examples to explain *why* the schemes differ.
#pragma once

#include <cstddef>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/dataset/source.hpp"
#include "src/partition/partitioner.hpp"

namespace mrsky::common {
class ThreadPool;
}

namespace mrsky::part {

struct PartitionReport {
  std::vector<std::size_t> sizes;        ///< points per partition
  std::size_t non_empty = 0;             ///< partitions with >= 1 point
  std::size_t largest = 0;               ///< max points in one partition
  double balance_cv = 0.0;               ///< coefficient of variation of sizes
  std::vector<std::size_t> prunable;     ///< partitions droppable before local skyline
  std::size_t pruned_points = 0;         ///< points inside prunable partitions
};

/// Fits nothing — `partitioner` must already be fitted on (a superset of)
/// `ps`. Computes the report for `ps` under that partitioner. With a `pool`,
/// row ranges are counted on its lanes and summed in range order; the report
/// is identical to the serial one.
[[nodiscard]] PartitionReport analyze_partitioning(const Partitioner& partitioner,
                                                   const data::PointSet& ps,
                                                   common::ThreadPool* pool = nullptr);

/// Streaming variant: assigns every row of `source` one block at a time
/// (peak memory one block), producing the same report the PointSet overload
/// would on the materialised data. Exact sizes matter — they feed the
/// pipeline's salting decision — so every block is visited, including ones
/// block pruning will later skip. With a `pool`, blocks are counted on its
/// lanes (peak memory one block per lane) with the same result.
[[nodiscard]] PartitionReport analyze_partitioning(const Partitioner& partitioner,
                                                   const data::DatasetSource& source,
                                                   common::ThreadPool* pool = nullptr);

/// Splits `ps` into per-partition point sets under a fitted partitioner.
/// Result has exactly partitioner.num_partitions() entries (possibly empty).
[[nodiscard]] std::vector<data::PointSet> split_by_partition(const Partitioner& partitioner,
                                                             const data::PointSet& ps);

}  // namespace mrsky::part
