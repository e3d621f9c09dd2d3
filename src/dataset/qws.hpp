// QWS-like web-service QoS data generation.
//
// The paper evaluates on the QWS dataset (Al-Masri & Mahmoud, WWW 2007):
// ~10,000 measured web services with nine QoS attributes, which the authors
// extend to 100,000 services / 10 attributes "by randomly generating QoS
// values which are limited to a narrow range following the distribution of
// the QWS dataset".
//
// The real QWS file is not redistributable, so this module performs the
// substitution documented in DESIGN.md §2: a generator whose per-attribute
// marginal shapes (range, skew, unit) follow the published QWS summary, with
// an optional latent quality factor inducing the mild positive correlation
// observed in real service measurements. The paper's own extension step is
// exactly this kind of resampling, so the workload the algorithms see is of
// the same family the paper used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

/// Marginal shape of one QoS attribute.
enum class MarginalShape {
  kLongTailLow,   ///< lognormal-like mass near the low end, long upper tail
  kSkewHigh,      ///< most mass near the upper bound (e.g. availability)
  kSkewLow,       ///< most mass near the lower bound (e.g. throughput)
  kSymmetric,     ///< bell-ish around the midpoint
  kBroad,         ///< close to uniform over the range
};

struct QwsAttribute {
  std::string name;
  std::string unit;
  double min = 0.0;
  double max = 1.0;
  MarginalShape shape = MarginalShape::kBroad;
  /// True for benefit attributes (availability, throughput, ...) that must be
  /// flipped to cost orientation before skyline computation.
  bool higher_is_better = false;
};

/// The nine QWS attributes plus a tenth synthetic "Price" attribute (the
/// paper selects 10 QoS attributes). `dim` must be in [1, 10]; the first
/// `dim` attributes of the canonical ordering are returned.
[[nodiscard]] std::vector<QwsAttribute> qws_schema(std::size_t dim);

class QwsLikeGenerator {
 public:
  struct Options {
    /// Strength of the latent per-service quality factor in [0, 1); 0 means
    /// attributes are independent. Real QoS data shows mild positive
    /// correlation between quality attributes; the default keeps skyline
    /// sizes at the paper's scale (N=100k, d=10) in the low thousands.
    double quality_correlation = 0.5;
  };

  QwsLikeGenerator(std::size_t dim, std::uint64_t seed);
  QwsLikeGenerator(std::size_t dim, std::uint64_t seed, Options options);

  /// Raw measurements in natural units and orientation (row i = service i).
  [[nodiscard]] PointSet generate_raw(std::size_t n);

  /// Skyline-ready data: benefit attributes flipped to (max - v) so smaller
  /// is better in every dimension, matching the paper's Fig. 1 convention.
  [[nodiscard]] PointSet generate_oriented(std::size_t n);

  [[nodiscard]] const std::vector<QwsAttribute>& schema() const noexcept { return schema_; }

  /// Flips benefit attributes of a raw set into cost orientation. This is
  /// also the load path for real QWS data: export it as an `id,<attribute...>`
  /// CSV in qws_schema order, read it with data::read_points and orient it
  /// here. Throws InvalidArgument, naming the attribute and the row, when a
  /// value lies outside its schema [min, max].
  [[nodiscard]] static PointSet orient(const PointSet& raw,
                                       const std::vector<QwsAttribute>& schema);

 private:
  double sample_attribute(const QwsAttribute& attr, double quality_z);

  std::vector<QwsAttribute> schema_;
  common::Rng rng_;
  Options options_;
};

/// The paper's dataset-extension method, verbatim: "we extend the size of
/// the QWS dataset by randomly generating QoS values which are limited to a
/// narrow range following the distribution of the QWS dataset". Given seed
/// measurements (the real QWS file, or any PointSet), each generated record
/// resamples a random seed row and jitters every attribute within ±`jitter`
/// (relative), clamped to the seed data's per-attribute range. The joint
/// distribution — including cross-attribute correlation — is inherited from
/// the seed rows, which pure marginal generators cannot do.
class BootstrapResampler {
 public:
  /// `seed_data` must be non-empty; `jitter` in [0, 1) is the relative
  /// half-width of the per-attribute noise.
  BootstrapResampler(data::PointSet seed_data, double jitter = 0.05);

  /// `n` resampled points with fresh sequential ids, deterministic in `rng`.
  [[nodiscard]] PointSet generate(std::size_t n, common::Rng& rng) const;

  [[nodiscard]] const PointSet& seed_data() const noexcept { return seed_; }
  [[nodiscard]] double jitter() const noexcept { return jitter_; }

 private:
  PointSet seed_;
  double jitter_;
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace mrsky::data
