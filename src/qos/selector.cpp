#include "src/qos/selector.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "src/common/error.hpp"
#include "src/partition/factory.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::qos {

QosConstraints::QosConstraints(std::size_t dim)
    : min_(dim, std::numeric_limits<double>::quiet_NaN()),
      max_(dim, std::numeric_limits<double>::quiet_NaN()) {
  MRSKY_REQUIRE(dim >= 1, "constraints need at least one attribute");
}

QosConstraints& QosConstraints::at_least(std::size_t attribute, double value) {
  MRSKY_REQUIRE(attribute < min_.size(), "attribute out of range");
  min_[attribute] = value;
  return *this;
}

QosConstraints& QosConstraints::at_most(std::size_t attribute, double value) {
  MRSKY_REQUIRE(attribute < max_.size(), "attribute out of range");
  max_[attribute] = value;
  return *this;
}

bool QosConstraints::admits(std::span<const double> natural_qos) const {
  MRSKY_REQUIRE(natural_qos.size() == min_.size(), "constraint dimension mismatch");
  for (std::size_t a = 0; a < min_.size(); ++a) {
    if (!std::isnan(min_[a]) && natural_qos[a] < min_[a]) return false;
    if (!std::isnan(max_[a]) && natural_qos[a] > max_[a]) return false;
  }
  return true;
}

SkylineServiceSelector::SkylineServiceSelector(ServiceCatalog catalog,
                                               core::MRSkylineConfig config)
    : catalog_(std::move(catalog)), config_(config), global_(catalog_.schema().size()) {}

const std::vector<WebService>& SkylineServiceSelector::skyline() {
  if (!computed_) full_recompute();
  return skyline_services_;
}

void SkylineServiceSelector::full_recompute() {
  MRSKY_REQUIRE(catalog_.size() > 0, "cannot select from an empty catalog");
  const data::PointSet points = catalog_.to_oriented_points();
  last_run_ = core::run_mr_skyline(points, config_);
  global_ = last_run_.skyline;

  // Seed the incremental maintainers: refit the run's partitioner and
  // bulk-load every partition's full point set.
  part::PartitionerOptions popts;
  popts.num_partitions = config_.effective_partitions();
  popts.split_dim = config_.split_dim;
  partitioner_ = part::make_partitioner(config_.scheme, popts);
  partitioner_->fit(points);
  local_.clear();
  for (const data::PointSet& part : part::split_by_partition(*partitioner_, points)) {
    local_.emplace_back(part);
  }
  incremental_tests_ = 0;
  refresh_service_view();
  computed_ = true;
}

void SkylineServiceSelector::merge_locals() {
  data::PointSet merged(catalog_.schema().size());
  for (const auto& maintainer : local_) {
    const data::PointSet sky = maintainer.skyline_points();
    for (std::size_t i = 0; i < sky.size(); ++i) merged.push_back(sky.point(i), sky.id(i));
  }
  skyline::SkylineStats stats;
  global_ = skyline::bnl_skyline(merged, &stats);
  incremental_tests_ += stats.dominance_tests;
  refresh_service_view();
}

void SkylineServiceSelector::refresh_service_view() {
  skyline_services_.clear();
  skyline_services_.reserve(global_.size());
  for (data::PointId id : global_.ids()) {
    auto service = catalog_.find(id);
    MRSKY_ASSERT(service.has_value(), "skyline id missing from catalog");
    if (service) skyline_services_.push_back(std::move(*service));
  }
}

bool SkylineServiceSelector::add_service(std::string name, std::vector<double> qos) {
  if (!computed_) full_recompute();
  const data::PointId id = catalog_.add(std::move(name), std::move(qos));
  const WebService& added = catalog_.services().back();
  const std::vector<double> oriented = catalog_.oriented_qos(added);

  // Paper §II: route the newcomer to its partition's local skyline only.
  const std::size_t partition = partitioner_->assign(oriented);
  MRSKY_ASSERT(partition < local_.size(), "partition index out of range");
  const std::uint64_t before = local_[partition].stats().dominance_tests;
  const bool entered_local = local_[partition].insert(oriented, id);
  incremental_tests_ += local_[partition].stats().dominance_tests - before;
  if (!entered_local) return false;  // dominated locally => dominated globally

  // Re-integrate local skylines into the global skyline (the Reduce stage).
  merge_locals();
  for (data::PointId gid : global_.ids()) {
    if (gid == id) return true;
  }
  return false;
}

std::vector<WebService> SkylineServiceSelector::skyline_within(
    const QosConstraints& constraints) const {
  MRSKY_REQUIRE(constraints.dim() == catalog_.schema().size(),
                "constraints must cover every schema attribute");
  data::PointSet admitted(catalog_.schema().size());
  for (const auto& service : catalog_.services()) {
    if (constraints.admits(service.qos)) {
      admitted.push_back(catalog_.oriented_qos(service), service.id);
    }
  }
  std::vector<WebService> out;
  if (admitted.empty()) return out;
  const data::PointSet sky = skyline::bnl_skyline(admitted);
  out.reserve(sky.size());
  for (data::PointId id : sky.ids()) {
    auto service = catalog_.find(id);
    if (service) out.push_back(std::move(*service));
  }
  return out;
}

bool SkylineServiceSelector::remove_service(data::PointId id) {
  if (!computed_) full_recompute();
  const auto service = catalog_.find(id);
  if (!service) return false;
  const std::vector<double> oriented = catalog_.oriented_qos(*service);
  catalog_.remove(id);

  const std::size_t partition = partitioner_->assign(oriented);
  MRSKY_ASSERT(partition < local_.size(), "partition index out of range");
  const std::uint64_t before = local_[partition].stats().dominance_tests;
  const skyline::MaintainedSkyline::EraseResult erased = local_[partition].erase(id);
  incremental_tests_ += local_[partition].stats().dominance_tests - before;
  MRSKY_ASSERT(erased.erased, "catalogued service missing from its partition");
  // A non-member was on no local skyline, so the global skyline is unchanged.
  if (erased.was_skyline) merge_locals();
  return true;
}

const core::MRSkylineResult& SkylineServiceSelector::last_run() const { return last_run_; }

}  // namespace mrsky::qos
