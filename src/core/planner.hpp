// Configuration planner — heuristics distilled from this repository's
// experiments, packaged so a caller who only knows (N, d, servers) gets a
// sensible MRSkylineConfig plus the reasoning.
//
// Rules (each traceable to a bench):
//  * scheme: MR-Angle (Fig. 5/7 — fastest and highest optimality on every
//    workload family we measured except heavily clustered data, where
//    pivot cells balance better).
//  * partitions: the paper's 2 × servers; MR-Angle tolerates more
//    (ablation_partition_count) but gains nothing at these sizes.
//  * final phase: Algorithm 1's single reducer until the expected merge
//    input is large, then the one-round parallel merge
//    (ablation_merge_parallel); the expected skyline size comes from the
//    independent-data law (estimate.hpp), a deliberate upper-ish bound.
//  * salting: on when the expected per-partition load is very uneven —
//    approximated by dimension (direction concentration grows with d;
//    ablation_salting).
#pragma once

#include <string>

#include "src/core/mr_skyline.hpp"

namespace mrsky::core {

struct PlannedConfig {
  MRSkylineConfig config;
  std::string rationale;  ///< one line per decision, human-readable
};

struct PlannerInputs {
  std::size_t cardinality = 0;   ///< N (> 0)
  std::size_t dim = 0;           ///< attributes (>= 1)
  std::size_t servers = 8;       ///< cluster size (>= 1)
  /// Set when the workload is known to form tight clusters (e.g. services
  /// replicated across a few providers): switches the scheme to pivot cells.
  bool clustered = false;
};

/// Produces a recommended pipeline configuration for the given workload.
[[nodiscard]] PlannedConfig plan_config(const PlannerInputs& inputs);

}  // namespace mrsky::core
