#include "src/partition/stats.hpp"

#include <algorithm>

#include "src/common/stats.hpp"
#include "src/common/thread_pool.hpp"

namespace mrsky::part {

namespace {

/// Rows per counting task in the resident overload.
constexpr std::size_t kRowsPerRange = std::size_t{1} << 14;

/// Partition histogram over `tasks` disjoint pieces of the input:
/// `count(t, sizes)` adds piece t's assignments to `sizes`. Serially every
/// piece adds to one histogram; on a pool each piece fills its own slot and
/// the slots are summed in piece order, so both give the same sizes.
template <typename CountFn>
std::vector<std::size_t> count_partitions(std::size_t partitions, std::size_t tasks,
                                          common::ThreadPool* pool, const CountFn& count) {
  std::vector<std::size_t> sizes(partitions, 0);
  if (pool == nullptr || tasks <= 1) {
    for (std::size_t t = 0; t < tasks; ++t) count(t, sizes);
    return sizes;
  }
  std::vector<std::vector<std::size_t>> slots(tasks, std::vector<std::size_t>(partitions, 0));
  pool->parallel_for(tasks, [&](std::size_t t) { count(t, slots[t]); });
  for (const std::vector<std::size_t>& slot : slots) {
    for (std::size_t p = 0; p < partitions; ++p) sizes[p] += slot[p];
  }
  return sizes;
}

/// Derive the summary fields from the filled `sizes` histogram — shared by
/// the materialised and streaming analyze_partitioning overloads so they
/// report identically on the same data.
void finish_report(const Partitioner& partitioner, PartitionReport& report) {
  std::vector<double> sizes_d;
  sizes_d.reserve(report.sizes.size());
  for (std::size_t s : report.sizes) {
    if (s > 0) report.non_empty += 1;
    report.largest = std::max(report.largest, s);
    sizes_d.push_back(static_cast<double>(s));
  }
  report.balance_cv = common::coefficient_of_variation(sizes_d);
  report.prunable = partitioner.prunable_partitions();
  for (std::size_t p : report.prunable) report.pruned_points += report.sizes[p];
}

}  // namespace

PartitionReport analyze_partitioning(const Partitioner& partitioner, const data::PointSet& ps,
                                     common::ThreadPool* pool) {
  PartitionReport report;
  const std::size_t ranges = (ps.size() + kRowsPerRange - 1) / kRowsPerRange;
  report.sizes = count_partitions(
      partitioner.num_partitions(), ranges, pool,
      [&](std::size_t r, std::vector<std::size_t>& sizes) {
        const std::size_t end = std::min(ps.size(), (r + 1) * kRowsPerRange);
        for (std::size_t i = r * kRowsPerRange; i < end; ++i) {
          sizes[partitioner.assign(ps.point(i))] += 1;
        }
      });
  finish_report(partitioner, report);
  return report;
}

PartitionReport analyze_partitioning(const Partitioner& partitioner,
                                     const data::DatasetSource& source,
                                     common::ThreadPool* pool) {
  if (const data::PointSet* resident = source.resident()) {
    return analyze_partitioning(partitioner, *resident, pool);
  }
  PartitionReport report;
  report.sizes = count_partitions(
      partitioner.num_partitions(), source.block_count(), pool,
      [&](std::size_t b, std::vector<std::size_t>& sizes) {
        data::PointSet rows(source.dim());
        source.read_block(b, rows);
        for (std::size_t i = 0; i < rows.size(); ++i) {
          sizes[partitioner.assign(rows.point(i))] += 1;
        }
        source.release_block(b);
      });
  finish_report(partitioner, report);
  return report;
}

std::vector<data::PointSet> split_by_partition(const Partitioner& partitioner,
                                               const data::PointSet& ps) {
  std::vector<data::PointSet> parts(partitioner.num_partitions(), data::PointSet(ps.dim()));
  for (std::size_t i = 0; i < ps.size(); ++i) {
    parts[partitioner.assign(ps.point(i))].push_back(ps.point(i), ps.id(i));
  }
  return parts;
}

}  // namespace mrsky::part
