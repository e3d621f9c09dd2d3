#include "src/core/planner.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/skyline/estimate.hpp"

namespace mrsky::core {

PlannedConfig plan_config(const PlannerInputs& inputs) {
  MRSKY_REQUIRE(inputs.cardinality > 0, "planner needs the cardinality");
  MRSKY_REQUIRE(inputs.dim >= 1, "planner needs the dimensionality");
  MRSKY_REQUIRE(inputs.servers >= 1, "planner needs the cluster size");

  PlannedConfig planned;
  std::ostringstream why;

  // Scheme.
  if (inputs.clustered) {
    planned.config.scheme = part::Scheme::kPivot;
    why << "scheme=pivot: clustered workloads balance best under Voronoi cells\n";
  } else {
    planned.config.scheme = part::Scheme::kAngular;
    why << "scheme=angular: fastest and highest Eq.5 optimality in Fig.5/Fig.7\n";
  }

  // Partition count: the paper's rule.
  planned.config.servers = inputs.servers;
  planned.config.num_partitions = 0;  // 2 x servers
  why << "partitions=2x servers (" << 2 * inputs.servers << "): paper SIII-A default\n";

  // Final phase: expected merge input ~ partitions x per-partition skyline.
  // Use the independence law as an upper-ish estimate of the global skyline
  // and assume locals sum to a small multiple of it.
  const double expected_sky =
      skyline::expected_skyline_size(inputs.cardinality, inputs.dim);
  const double expected_merge_input = 3.0 * expected_sky;
  if (expected_merge_input > 20000.0) {
    planned.config.parallel_merge = true;
    why << "merge=parallel: expected merge input ~"
        << static_cast<std::size_t>(expected_merge_input)
        << " points, split by point across 2x servers reducers in one round\n";
  } else {
    planned.config.parallel_merge = false;
    why << "merge=single reducer: expected merge input ~"
        << static_cast<std::size_t>(expected_merge_input)
        << " points, small enough for Algorithm 1's one BNL reducer\n";
  }

  // Salting: direction concentration (and thus partition skew) grows with d.
  if (!inputs.clustered && inputs.dim >= 6) {
    planned.config.salt_oversized_partitions = true;
    why << "salting=on: angular sectors skew at d>=6 (ablation_salting)\n";
  } else {
    why << "salting=off: load skew manageable at this dimensionality\n";
  }

  planned.rationale = why.str();
  // The planner's recommendation must be runnable as-is: route it through the
  // same all-errors validation run_mr_skyline applies, so a heuristic change
  // that produces an inconsistent config fails here, not at query time.
  planned.config.validate_or_throw();
  return planned;
}

}  // namespace mrsky::core
