// SkylineServiceSelector — the top-level facade of the library.
//
// Wraps a ServiceCatalog and an MRSkylineConfig into the workflow the paper
// motivates: compute the skyline of all registered services with the
// MapReduce pipeline, and keep it current as new services register without
// recomputing from scratch (paper §II: "the new service is first mapped into
// a group and added into the local skyline computation. Then all local
// skylines are integrated into the global skyline at the Reduce stage").
#pragma once

#include <span>
#include <vector>

#include "src/core/mr_skyline.hpp"
#include "src/partition/partitioner.hpp"
#include "src/qos/catalog.hpp"
#include "src/skyline/maintained.hpp"

namespace mrsky::qos {

/// Hard QoS requirements in natural units: per attribute an optional
/// [min, max] window (NaN = unconstrained). "Response time under 500 ms and
/// availability at least 99 %" is {max[ResponseTime]=500, min[Availability]=99}.
class QosConstraints {
 public:
  /// Unconstrained over `dim` attributes.
  explicit QosConstraints(std::size_t dim);

  QosConstraints& at_least(std::size_t attribute, double value);
  QosConstraints& at_most(std::size_t attribute, double value);

  [[nodiscard]] std::size_t dim() const noexcept { return min_.size(); }
  [[nodiscard]] bool admits(std::span<const double> natural_qos) const;

 private:
  std::vector<double> min_;  ///< NaN = no lower bound
  std::vector<double> max_;  ///< NaN = no upper bound
};

class SkylineServiceSelector {
 public:
  SkylineServiceSelector(ServiceCatalog catalog, core::MRSkylineConfig config = {});

  /// The current global skyline as full service records (natural units).
  /// First call (and any call after a batch of registrations) computes it.
  [[nodiscard]] const std::vector<WebService>& skyline();

  /// Registers a new service and updates the skyline incrementally: the
  /// service is assigned to its partition, that partition's local skyline is
  /// updated, and the global merge re-runs over local skylines only.
  /// Returns true iff the new service joined the global skyline.
  bool add_service(std::string name, std::vector<double> qos);

  /// Constrained selection: the skyline of only those services admitted by
  /// `constraints` (computed fresh per call — the constrained skyline is NOT
  /// a subset of the unconstrained one, because removing a dominator can
  /// promote a previously-dominated service).
  [[nodiscard]] std::vector<WebService> skyline_within(const QosConstraints& constraints) const;

  /// Deregisters a service (provider withdrawal). Removal can resurrect
  /// points the victim used to dominate, so each partition keeps its full
  /// point set in a skyline::MaintainedSkyline: the erase promotes exactly
  /// the victim's exclusive dominees inside its partition, and the global
  /// merge re-runs only when the victim was a local skyline member — the
  /// deletion analogue of the paper's "compare only within the subdivided
  /// group" argument. Returns false when the id is unknown.
  bool remove_service(data::PointId id);

  [[nodiscard]] const ServiceCatalog& catalog() const noexcept { return catalog_; }

  /// Metrics of the last full MapReduce run (empty before the first run).
  [[nodiscard]] const core::MRSkylineResult& last_run() const;

  /// Dominance tests spent on incremental maintenance since the last full run
  /// (the per-partition bulk load that follows the run is not counted).
  [[nodiscard]] std::uint64_t incremental_dominance_tests() const noexcept {
    return incremental_tests_;
  }

 private:
  void full_recompute();
  void merge_locals();
  void refresh_service_view();

  ServiceCatalog catalog_;
  core::MRSkylineConfig config_;
  part::PartitionerPtr partitioner_;
  /// Per-partition live points and exact local skylines. Every partition
  /// holds its true local skyline, including partitions the run's MR-Grid
  /// pruning skipped.
  std::vector<skyline::MaintainedSkyline> local_;
  data::PointSet global_;  ///< oriented global skyline
  std::vector<WebService> skyline_services_;
  core::MRSkylineResult last_run_;
  std::uint64_t incremental_tests_ = 0;
  bool computed_ = false;
};

}  // namespace mrsky::qos
