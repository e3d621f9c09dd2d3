#include "src/core/adaptive_planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <unordered_set>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/core/planner.hpp"
#include "src/dataset/transforms.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::core {
namespace {

// Sample-scale measurements for one (scheme, Np), shared by both salting
// variants priced on top of it.
struct FitAnalysis {
  part::Scheme scheme = part::Scheme::kAngular;
  std::size_t partitions = 0;  ///< requested Np (what the config will say)
  double balance_cv = 0.0;
  double prunable_fraction = 0.0;
  /// Per surviving (non-pruned, non-empty) partition.
  std::vector<std::size_t> part_sample_n;
  std::vector<std::size_t> part_sample_sky;  ///< sample skyline sizes
};

double growth(double sample_n, double full_n, std::size_t dim) {
  const auto s = static_cast<std::size_t>(std::llround(std::max(sample_n, 0.0)));
  const auto f = static_cast<std::size_t>(std::llround(std::max(full_n, 0.0)));
  return skyline_growth_factor(s, f, dim);
}

std::size_t worker_lanes(const MRSkylineConfig& config) {
  if (config.run_options.mode != mr::ExecutionMode::kThreads) return 1;
  if (config.run_options.pool != nullptr) return std::max<std::size_t>(1, config.run_options.pool->size());
  if (config.run_options.num_threads > 0) return config.run_options.num_threads;
  return std::max<std::size_t>(1, common::ThreadPool::default_concurrency());
}

// Returns nullopt for a salted variant in which no partition actually
// splits (every k_p == 1): it would be an exact duplicate of the unsalted
// candidate — same plan, same prediction — and only bloat the table.
// `global_sky` is the predicted full-scale global skyline, the same for
// every candidate.
std::optional<PlanCandidate> price_candidate(const FitAnalysis& fa, bool salted,
                                             const MRSkylineConfig& base, std::size_t full_n,
                                             std::size_t dim, std::size_t sample_n,
                                             double global_sky, std::size_t lanes,
                                             const CostConstants& c) {
  PlanCandidate cand;
  cand.scheme = fa.scheme;
  cand.partitions = fa.partitions;
  cand.salted = salted;
  cand.balance_cv = fa.balance_cv;
  cand.prunable_fraction = fa.prunable_fraction;

  const auto n = static_cast<double>(full_n);
  const double scale = sample_n > 0 ? n / static_cast<double>(sample_n) : 1.0;

  // Map + job-1 shuffle: every point is assigned (O(d)) and materialised
  // into its reduce bucket, whatever the scheme.
  cand.map_seconds = n * static_cast<double>(dim) * c.seconds_per_assign_dim;
  cand.shuffle_seconds = n * c.seconds_per_shuffle_record;

  // Local-skyline phase: one task per reduce key; salting splits oversized
  // partitions with the same k_p formula run_mr_skyline uses. Every key's
  // local skyline enters the merge.
  const double salt_target =
      base.salt_target_factor * n / static_cast<double>(std::max<std::size_t>(1, fa.partitions));
  std::vector<double> local_tasks;
  bool any_split = false;
  for (std::size_t i = 0; i < fa.part_sample_n.size(); ++i) {
    const double part_sample = static_cast<double>(fa.part_sample_n[i]);
    const double part_full = part_sample * scale;
    const double sky_sample = static_cast<double>(fa.part_sample_sky[i]);
    std::size_t salt_count = 1;
    if (salted) {
      const auto needed =
          static_cast<std::size_t>(std::ceil(part_full / std::max(salt_target, 1.0)));
      salt_count = std::clamp<std::size_t>(needed, 1, 64);
      any_split = any_split || salt_count > 1;
    }
    const double sub_full = part_full / static_cast<double>(salt_count);
    const double sub_sky =
        std::min(sub_full, sky_sample * growth(part_sample, sub_full, dim));
    for (std::size_t s = 0; s < salt_count; ++s) {
      local_tasks.push_back(sub_full * std::max(sub_sky, 1.0) * c.seconds_per_dominance_test);
      cand.predicted_merge_input += sub_sky;
    }
  }
  if (salted && !any_split) return std::nullopt;
  cand.local_seconds =
      mr::lpt_makespan(local_tasks, lanes) + c.seconds_per_job;

  // The parallel merge, priced the way run_mr_skyline executes it: each of
  // the M merge-input points scans the prefix of U before it in SFS order.
  // A global-skyline point scans its whole prefix (M/2 on average); a
  // dominated one stops at its first dominator, near the head. The tests
  // split evenly over 2 x servers reducers, scheduled LPT onto the lanes.
  const double merge_in = cand.predicted_merge_input;
  const double survivors = std::min(merge_in, global_sky);
  const std::size_t reducers = 2 * std::max<std::size_t>(1, base.servers);
  const std::vector<double> merge_tasks(
      reducers, survivors * merge_in / 2.0 / static_cast<double>(reducers) *
                    c.seconds_per_dominance_test);
  cand.merge_seconds = mr::lpt_makespan(merge_tasks, lanes) + c.seconds_per_job +
                       merge_in * c.seconds_per_shuffle_record;
  return cand;
}

MRSkylineConfig resolve(const MRSkylineConfig& base, part::Scheme scheme,
                        std::size_t partitions, bool salted) {
  MRSkylineConfig resolved = base;
  resolved.scheme = scheme;
  resolved.num_partitions = partitions;
  resolved.parallel_merge = true;
  resolved.salt_oversized_partitions = salted;
  resolved.prepared_partitioner = nullptr;
  return resolved;
}

// Sample-scale analysis of one (scheme, Np), or nullopt when it is not a
// candidate: the pipeline would reject the combination, the scheme cannot
// fit this sample, or every partition is empty or pruned.
std::optional<FitAnalysis> analyze_fit(part::Scheme scheme, std::size_t np,
                                       const data::PointSet& sample,
                                       const MRSkylineConfig& base) {
  if (!resolve(base, scheme, np, false).validate().empty()) return std::nullopt;
  FitAnalysis fa;
  fa.scheme = scheme;
  fa.partitions = np;
  try {
    part::PartitionerOptions popts;
    popts.num_partitions = np;
    popts.split_dim = base.split_dim;
    const part::PartitionerPtr partitioner = part::make_partitioner(scheme, popts);
    partitioner->fit(sample);
    const part::PartitionReport report = part::analyze_partitioning(*partitioner, sample);
    fa.balance_cv = report.balance_cv;
    fa.prunable_fraction =
        !sample.empty() && base.apply_grid_pruning
            ? static_cast<double>(report.pruned_points) / static_cast<double>(sample.size())
            : 0.0;
    std::vector<data::PointSet> parts = part::split_by_partition(*partitioner, sample);
    std::unordered_set<std::size_t> pruned;
    if (base.apply_grid_pruning) pruned.insert(report.prunable.begin(), report.prunable.end());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (parts[p].empty() || pruned.count(p) != 0) continue;
      fa.part_sample_n.push_back(parts[p].size());
      fa.part_sample_sky.push_back(skyline::sfs_skyline(parts[p]).size());
    }
  } catch (const std::exception&) {
    return std::nullopt;  // a scheme that cannot fit this sample is not a candidate
  }
  if (fa.part_sample_n.empty()) return std::nullopt;
  return fa;
}

AdaptivePlan heuristic_fallback(std::size_t n, std::size_t dim, const MRSkylineConfig& base,
                                const std::string& reason) {
  PlannerInputs inputs;
  inputs.cardinality = std::max<std::size_t>(1, n);
  inputs.dim = std::max<std::size_t>(1, dim);
  inputs.servers = std::max<std::size_t>(1, base.servers);
  const PlannedConfig heur = plan_config(inputs);

  AdaptivePlan plan;
  plan.fallback = true;
  plan.config = resolve(base, heur.config.scheme, heur.config.num_partitions,
                        heur.config.salt_oversized_partitions);
  plan.config.salt_target_factor = heur.config.salt_target_factor;
  plan.chosen.scheme = plan.config.scheme;
  plan.chosen.partitions = plan.config.effective_partitions();
  plan.chosen.salted = plan.config.salt_oversized_partitions;
  plan.rationale = "auto: " + reason + "; using static heuristic\n" + heur.rationale;
  return plan;
}

std::string format_ms(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms";
  return os.str();
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(AdaptivePlannerOptions options) : options_(std::move(options)) {
  if (options_.schemes.empty()) {
    options_.schemes = {part::Scheme::kDimensional, part::Scheme::kGrid, part::Scheme::kAngular,
                        part::Scheme::kPivot};
  }
  if (options_.partitions_per_server.empty()) options_.partitions_per_server = {1, 2, 4};
}

AdaptivePlan AdaptivePlanner::plan(const data::PointSet& input,
                                   const MRSkylineConfig& base) const {
  common::Timer timer;
  const std::size_t n = input.size();
  const std::size_t dim = input.dim();

  if (n < options_.min_points || dim == 0) {
    AdaptivePlan plan = heuristic_fallback(
        n, dim, base,
        "dataset below planning threshold (" + std::to_string(n) + " < " +
            std::to_string(options_.min_points) + " points)");
    plan.planning_seconds = timer.elapsed_seconds();
    return plan;
  }

  // 1. Sample — deterministic, so plans memoised on (version, seed) are
  // reproducible and shareable.
  data::PointSet sample_storage(dim);
  const data::PointSet* sample = &input;
  if (options_.sample_size > 0 && options_.sample_size < n) {
    common::Rng rng(options_.sample_seed);
    sample_storage = data::sample_without_replacement(input, options_.sample_size, rng);
    sample = &sample_storage;
  }
  AdaptivePlan plan = plan_on_sample(*sample, n, dim, base);
  plan.planning_seconds = timer.elapsed_seconds();
  return plan;
}

AdaptivePlan AdaptivePlanner::plan(const data::DatasetSource& source,
                                   const MRSkylineConfig& base) const {
  if (const data::PointSet* resident = source.resident()) return plan(*resident, base);
  common::Timer timer;
  const std::size_t n = source.size();
  const std::size_t dim = source.dim();

  if (n < options_.min_points || dim == 0) {
    AdaptivePlan plan = heuristic_fallback(
        n, dim, base,
        "dataset below planning threshold (" + std::to_string(n) + " < " +
            std::to_string(options_.min_points) + " points)");
    plan.planning_seconds = timer.elapsed_seconds();
    return plan;
  }

  // 1. Sample — block-proportional systematic draw, deterministic in
  // (seed, layout); nothing is materialised.
  const std::size_t target = options_.sample_size > 0 ? std::min(options_.sample_size, n) : n;
  const data::PointSet sample =
      source.sample(target, options_.sample_seed, mr::borrowed_pool(base.run_options));
  AdaptivePlan plan = plan_on_sample(sample, n, dim, base);

  // 4. Block-skip preview: discount the map and shuffle phases by the
  // fraction of on-disk bytes the pipeline's pre-shuffle block pruning will
  // drop (the same data::prune_blocks run_mr_skyline applies). Map and
  // shuffle costs are scheme-independent, so the discount is uniform across
  // candidates and the ranking is unchanged — only the absolute predictions
  // tighten.
  if (!plan.fallback) {
    const data::BlockPrune prune =
        data::prune_blocks(source, skyline::compute_skyline(sample, skyline::Algorithm::kBnl));
    const double total_bytes = static_cast<double>(prune.bytes_read + prune.bytes_pruned);
    if (prune.blocks_pruned > 0 && total_bytes > 0) {
      const double pruned_bytes = static_cast<double>(prune.bytes_pruned);
      const double keep = 1.0 - pruned_bytes / total_bytes;
      for (PlanCandidate& cand : plan.candidates) {
        cand.map_seconds *= keep;
        cand.shuffle_seconds *= keep;
      }
      plan.chosen.map_seconds *= keep;
      plan.chosen.shuffle_seconds *= keep;
      std::ostringstream os;
      os << "\nblock stats: " << prune.blocks_pruned << "/" << source.block_count()
         << " blocks (" << std::fixed << std::setprecision(1)
         << 100.0 * pruned_bytes / total_bytes << "% of bytes) prunable before read";
      plan.rationale += os.str();
    }
  }
  plan.planning_seconds = timer.elapsed_seconds();
  return plan;
}

AdaptivePlan AdaptivePlanner::plan_on_sample(const data::PointSet& sample, std::size_t full_n,
                                             std::size_t dim,
                                             const MRSkylineConfig& base) const {
  const std::size_t n = full_n;
  const std::size_t sample_n = sample.size();

  const CostConstants constants =
      options_.constants ? *options_.constants : CostModel::process().constants();
  const std::size_t lanes = worker_lanes(base);
  common::ThreadPool* const pool = mr::borrowed_pool(base.run_options);

  // 2. Analyze — fit each (scheme, Np) on the sample once and compute the
  // actual per-partition sample skylines; both salting variants are priced
  // from the same analysis. Fits are independent, so they run on the job's
  // lanes into index-addressed slots, collected in enumeration order.
  std::vector<std::size_t> partition_counts;
  for (const std::size_t per_server : options_.partitions_per_server) {
    const std::size_t np = std::max<std::size_t>(1, per_server * std::max<std::size_t>(1, base.servers));
    if (std::find(partition_counts.begin(), partition_counts.end(), np) ==
        partition_counts.end()) {
      partition_counts.push_back(np);
    }
  }
  const std::size_t np_count = partition_counts.size();
  std::vector<std::optional<FitAnalysis>> fits(options_.schemes.size() * np_count);
  common::for_each_index(fits.size(), pool, [&](std::size_t f) {
    fits[f] = analyze_fit(options_.schemes[f / np_count], partition_counts[f % np_count], sample,
                          base);
  });
  std::vector<FitAnalysis> analyses;
  for (std::optional<FitAnalysis>& fa : fits) {
    if (fa) analyses.push_back(std::move(*fa));
  }

  if (analyses.empty()) {
    AdaptivePlan plan =
        heuristic_fallback(n, dim, base, "no candidate scheme survived sample analysis");
    plan.sample_points = sample_n;
    return plan;
  }

  // 3. Optimize — price every (scheme, Np, salting) candidate and keep them
  // all (cheapest first) for the rationale and `mrsky plan`. The global
  // skyline every candidate's merge keeps is measured once on the sample.
  const double global_sky =
      static_cast<double>(skyline::sfs_skyline(sample).size()) *
      growth(static_cast<double>(sample_n), static_cast<double>(n), dim);
  std::vector<std::optional<PlanCandidate>> priced(analyses.size() * 2);
  common::for_each_index(analyses.size(), pool, [&](std::size_t f) {
    const FitAnalysis& fa = analyses[f];
    for (const bool salted : {false, true}) {
      if (salted && !options_.consider_salting) continue;
      if (!resolve(base, fa.scheme, fa.partitions, salted).validate().empty()) continue;
      priced[f * 2 + (salted ? 1 : 0)] =
          price_candidate(fa, salted, base, n, dim, sample_n, global_sky, lanes, constants);
    }
  });
  AdaptivePlan plan;
  plan.sample_points = sample_n;
  for (const std::optional<PlanCandidate>& cand : priced) {
    if (cand) plan.candidates.push_back(*cand);
  }
  if (plan.candidates.empty()) {
    AdaptivePlan fb = heuristic_fallback(n, dim, base, "no priced candidate validated");
    fb.sample_points = sample_n;
    return fb;
  }
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     if (a.total_seconds() != b.total_seconds())
                       return a.total_seconds() < b.total_seconds();
                     if (a.scheme != b.scheme) return static_cast<int>(a.scheme) < static_cast<int>(b.scheme);
                     if (a.partitions != b.partitions) return a.partitions < b.partitions;
                     return !a.salted && b.salted;
                   });
  plan.chosen = plan.candidates.front();
  plan.config = resolve(base, plan.chosen.scheme, plan.chosen.partitions, plan.chosen.salted);
  plan.config.validate_or_throw();

  std::ostringstream os;
  os << "auto: scored " << plan.candidates.size() << " candidates over " << sample_n
     << " sample points (seed 0x" << std::hex << options_.sample_seed << std::dec << ")\n";
  os << "chosen: scheme=" << part::to_string(plan.chosen.scheme) << " Np=" << plan.chosen.partitions
     << " salt=" << (plan.chosen.salted ? "on" : "off") << " merge=parallel"
     << " — predicted " << format_ms(plan.chosen.total_seconds()) << " (map "
     << format_ms(plan.chosen.map_seconds) << ", shuffle " << format_ms(plan.chosen.shuffle_seconds)
     << ", local " << format_ms(plan.chosen.local_seconds) << ", merge "
     << format_ms(plan.chosen.merge_seconds) << ")\n";
  if (plan.candidates.size() > 1) {
    const PlanCandidate& runner = plan.candidates[1];
    const double delta = plan.chosen.total_seconds() > 0.0
                             ? (runner.total_seconds() / plan.chosen.total_seconds() - 1.0) * 100.0
                             : 0.0;
    os << "runner-up: scheme=" << part::to_string(runner.scheme) << " Np=" << runner.partitions
       << " salt=" << (runner.salted ? "on" : "off") << " at +"
       << std::fixed << std::setprecision(1) << delta << "%\n";
  }
  os << "sample balance cv " << std::fixed << std::setprecision(3) << plan.chosen.balance_cv
     << ", prunable " << std::setprecision(1) << plan.chosen.prunable_fraction * 100.0
     << "% of sample, predicted merge input " << std::setprecision(0)
     << plan.chosen.predicted_merge_input << " records";
  plan.rationale = os.str();
  return plan;
}

}  // namespace mrsky::core
