// MapReduce skyline query processing — the paper's Algorithm 1, generalised
// over the three partitioning schemes of §III (plus this library's extras).
//
// The driver runs the paper's two Hadoop jobs on the mrsky::mr engine:
//
//   Job 1 "partition+local-skyline":
//     map     — transform the point (hyperspherical for MR-Angle), assign its
//               partition, emit (partition, point)            [Alg. 1, l.2-6]
//     combine — optional map-side BNL per partition fragment (off by default;
//               Algorithm 1 has no combiner — see MRSkylineConfig)
//     reduce  — BNL computing each partition's local skyline  [Alg. 1, l.7-10]
//               MR-Grid's prunable partitions are skipped here (§III-B).
//   Job 2, one of two final phases (MRSkylineConfig::parallel_merge):
//     "merge-round-1" — Algorithm 1's single-reducer merge (the default):
//       map    — re-key every local-skyline point to the null key [l.12-14]
//       reduce — one global BNL merge                             [l.15]
//     "parallel-merge" — every scheme=auto plan's final phase:
//       driver — sort the union U of the local skylines once in SFS order
//                (skyline::sfs_order) and pack it into one tiled window that
//                every reducer reads (Hadoop's distributed cache)
//       map    — re-key every point by its rank in U
//       reduce — 2 × servers reducers; a point survives iff no earlier point
//                of U dominates it. The output is ordered by id.
//
// All dominance tests are charged to the engine's work counters, so the
// cluster simulator (mr::simulate_pipeline) can turn one in-process run into
// simulated Map/Reduce times for any server count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/dataset/point_set.hpp"
#include "src/dataset/source.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/mapreduce/job.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::core {

struct MRSkylineConfig {
  part::Scheme scheme = part::Scheme::kAngular;

  /// Cluster size the job is sized for. Defaults below derive from it.
  std::size_t servers = 8;

  /// Number of data-space partitions; 0 means the paper's 2 × servers.
  std::size_t num_partitions = 0;

  /// Number of input splits; 0 means servers × 2 (one per default map slot).
  std::size_t num_map_tasks = 0;

  /// Local/global skyline algorithm (the paper uses BNL everywhere).
  skyline::Algorithm local_algorithm = skyline::Algorithm::kBnl;

  /// Optional override for the local/merge skyline kernel. When set it
  /// replaces `local_algorithm` entirely; the function must return the exact
  /// skyline of its input and accumulate its dominance tests into the stats
  /// (pass-through to the cluster cost model). This is the hook for plugging
  /// a custom kernel (e.g. skyline::sfs_skyline, or a fault-injecting one in
  /// tests) into the pipeline without coupling the core to it. Under
  /// `parallel_merge` the override serves the local skylines only: the
  /// parallel phase's prefix scan is not a whole-set skyline kernel.
  std::function<data::PointSet(const data::PointSet&, skyline::SkylineStats*)>
      local_skyline_override;

  /// Map-side combining (partial local skylines inside each map task).
  /// Off by default: the paper's Algorithm 1 computes local skylines only in
  /// the reduce stage. Enabling it is this library's extension (see the
  /// ablation bench) — it cuts shuffle volume and reduce work substantially.
  bool use_combiner = false;

  /// Honour MR-Grid's inter-cell dominance pruning (§III-B).
  bool apply_grid_pruning = true;

  /// MR-Dim only: attribute carrying the slabs.
  std::size_t split_dim = 0;

  /// Final phase. false (the paper's Algorithm 1): one job funnels every
  /// local-skyline point to a single BNL reducer. true: the one-round
  /// parallel merge — the union U of the local skylines is sorted once in
  /// SFS order and broadcast, and 2 × servers reducers (the modelled
  /// cluster's reduce slots) each keep the points of U that no earlier point
  /// of U dominates. The library's answer to the Fig. 6 single-reducer
  /// bottleneck; every scheme=auto plan selects it.
  bool parallel_merge = false;

  /// Engine execution (sequential by default; results identical either way).
  /// Under kThreads the pipeline creates one persistent worker pool and
  /// reuses it for scheme=auto planning, the partition count, job 1 and the
  /// merge job; set run_options.pool to share a caller-owned pool across
  /// many run_mr_skyline calls instead.
  mr::RunOptions run_options;

  /// Skew cure (extension): split any partition whose population exceeds
  /// `salt_target_factor` × N/Np into that many hash-salted sub-partitions,
  /// each its own local-skyline reduce task. Standard MapReduce salting: it
  /// bounds the largest reduce task at the cost of a larger merge input
  /// (sub-skylines of one cone overlap). Fixes MR-Angle's dense-sector
  /// imbalance on direction-clumped data; quantified in bench/ablation_salting.
  bool salt_oversized_partitions = false;
  double salt_target_factor = 2.0;

  /// Fit the partitioner on a uniform sample of this many points instead of
  /// the full dataset (0 = fit on everything, the paper's behaviour). The
  /// master-side planning step then scales independently of N; assignment
  /// stays total, so the result is still the exact skyline — only partition
  /// boundaries (and thus load balance) shift slightly.
  std::size_t fit_sample_size = 0;

  /// Seed for the fitting sample (only used when fit_sample_size > 0).
  std::uint64_t fit_sample_seed = 0x5a3e;

  /// Prepared-partition hook (service::QueryEngine's fit amortisation): when
  /// set, run_mr_skyline skips partitioner construction and fitting entirely
  /// and routes every point through this already-fitted object instead. The
  /// caller keeps ownership and must keep it alive (and fitted) for the whole
  /// run; `scheme`, `num_partitions`, `split_dim` and the fit_sample_* knobs
  /// are ignored. assign() must be pure and thread-safe, which the
  /// part::Partitioner contract already guarantees after fit(). Assignment is
  /// total for every scheme, so reusing a fit across queries — even one
  /// fitted before later insertions — still yields the exact skyline; only
  /// load balance (and MR-Grid's pruning opportunities, recomputed per fit)
  /// can degrade.
  const part::Partitioner* prepared_partitioner = nullptr;

  [[nodiscard]] std::size_t effective_partitions() const noexcept {
    return num_partitions == 0 ? 2 * servers : num_partitions;
  }
  [[nodiscard]] std::size_t effective_map_tasks() const noexcept {
    return num_map_tasks == 0 ? 2 * servers : num_map_tasks;
  }

  /// Validates every config-level precondition and returns ALL violations —
  /// one human-readable message per problem, empty when the config is usable.
  /// Unlike the first-failure MRSKY_REQUIRE style this used to be spread
  /// across the pipeline, a caller (CLI flag parsing, the QueryEngine, the
  /// planner's self-check) gets the complete list in one round trip.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// validate() plus the source-compatibility checks: some options only make
  /// sense against a particular kind of DatasetSource (e.g. a shuffle spill
  /// budget against an in-memory source, which by definition already fits in
  /// RAM). Same all-errors contract as validate(); the DatasetSource overload
  /// of run_mr_skyline calls this instead of validate().
  [[nodiscard]] std::vector<std::string> validate_for(const data::DatasetSource& source) const;

  /// Throws mrsky::InvalidArgument listing every validate() error in one
  /// message; no-op on a valid config. Called at the top of run_mr_skyline.
  void validate_or_throw() const;
};

/// Record of a `scheme=auto` planning decision. Attached by run_mr_skyline
/// when it resolves kAuto through core::AdaptivePlanner; `engaged` stays
/// false on static-scheme runs. Carries only plain data (the full candidate
/// table lives on core::AdaptivePlan) so the result stays cheap to copy.
struct PlanDecision {
  bool engaged = false;   ///< true when the adaptive planner picked the config
  bool fallback = false;  ///< planner fell back to the static heuristic
  part::Scheme scheme = part::Scheme::kAngular;  ///< resolved scheme
  std::size_t partitions = 0;
  bool parallel_merge = false;  ///< the final phase that ran
  bool salted = false;
  std::size_t candidates = 0;     ///< plans scored (0 on fallback)
  std::size_t sample_points = 0;  ///< planning sample actually analyzed
  double predicted_seconds = 0.0; ///< chosen plan's predicted in-process wall
  double planning_seconds = 0.0;  ///< cost of planning itself
  std::string rationale;          ///< human-readable decision trail
};

struct MRSkylineResult {
  data::PointSet skyline;                        ///< the global skyline
  std::vector<data::PointSet> local_skylines;    ///< per partition (post Job 1)
  part::PartitionReport partition_report;        ///< sizes / balance / pruning
  mr::JobMetrics partition_job;                  ///< Job 1 metrics
  /// The merge job's metrics: exactly one element after a run (single
  /// reducer or parallel phase, both one round), so the pipeline's jobs are
  /// partition_job followed by merge_rounds.
  std::vector<mr::JobMetrics> merge_rounds;
  /// Planner decision trail (engaged only on scheme=auto runs). When engaged,
  /// `wall_seconds` includes `plan.planning_seconds` — the planner is part of
  /// what the caller waited for.
  PlanDecision plan;
  double wall_seconds = 0.0;                     ///< real in-process time

  MRSkylineResult() : skyline(1) {}

  /// The merge job's metrics: the last (only) element of merge_rounds.
  /// Requires a completed run (throws on a default-constructed result).
  [[nodiscard]] const mr::JobMetrics& merge_job() const {
    MRSKY_REQUIRE(!merge_rounds.empty(), "merge_job() requires a completed run");
    return merge_rounds.back();
  }

  /// Simulated phase times of the whole pipeline on a modelled cluster.
  [[nodiscard]] mr::PhaseTimes simulate(const mr::ClusterModel& model) const;

  /// Multi-line human-readable run report (skyline size, partition balance,
  /// per-job work) — what the CLI prints with --verbose.
  [[nodiscard]] std::string summary() const;
};

/// Runs the full two-job pipeline over `input` (minimisation orientation,
/// non-negative coordinates required by MR-Angle's transform). Thin adapter
/// over the DatasetSource pipeline below for callers that already hold the
/// data in memory; new call sites should prefer the DatasetSource overload.
[[nodiscard]] MRSkylineResult run_mr_skyline(const data::PointSet& input,
                                             const MRSkylineConfig& config);

/// Runs the pipeline streaming from a DatasetSource. Map tasks iterate the
/// source block by block instead of over a materialised PointSet, so peak
/// memory is bounded by a handful of blocks regardless of dataset size.
/// Blocks whose min corner is strictly dominated by a sample-skyline point
/// are skipped whole before any row is read (data::prune_blocks: sound, so
/// only `bytes_read` changes; a source without corners keeps every block);
/// the job-1 metrics report `blocks_pruned`, `bytes_read` and
/// `bytes_pruned`. The skyline is the SAME POINT SET as the in-memory
/// overload computes on the same data, every member bitwise identical
/// (compare canonically, e.g. ordered by id). Under parallel_merge the
/// output is ordered by id, so the order matches too. Under the
/// single-reducer merge it matches whenever both runs use the same
/// partitioning — e.g. a shared config.prepared_partitioner, or
/// fit_sample_size == 0 on a resident source — and can differ otherwise,
/// because an out-of-core run must fit the partitioner on a bounded block
/// sample where the in-memory run fits on everything, and partition
/// boundaries steer the BNL merge's emission order (never its membership).
/// Sources with a resident PointSet (data::PointSetSource) short-circuit to
/// the in-memory path.
[[nodiscard]] MRSkylineResult run_mr_skyline(const data::DatasetSource& source,
                                             const MRSkylineConfig& config);

}  // namespace mrsky::core
