// Sequential skyline algorithms.
//
// * BNL (block-nested-loops, Börzsönyi et al. ICDE'01) — the algorithm the
//   paper uses for both the local-skyline stage and the global merge
//   (Algorithm 1, lines 8 and 15). In-memory variant: the window always fits.
// * SFS (sort-filter-skyline, Chomicki et al. ICDE'03) — presort by a
//   monotone score (sfs_order); a later point can never dominate an earlier
//   one, so the window is append-only. Used in the local-algorithm ablation.
// * Divide & conquer — two-way split with pairwise cross-filtering merge.
// * Naive — the O(n²) full pairwise reference used by tests as ground truth.
//
// Semantics shared by all: duplicate (coordinate-identical) points do not
// dominate each other, so every copy of an undominated point is returned.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky::skyline {

enum class Algorithm { kBnl, kSfs, kDivideConquer, kNaive };

[[nodiscard]] Algorithm parse_algorithm(const std::string& name);
[[nodiscard]] std::string to_string(Algorithm algo);

/// Computes the skyline of `ps`. If `stats` is non-null the algorithm's work
/// counters are accumulated into it (never reset).
[[nodiscard]] data::PointSet bnl_skyline(const data::PointSet& ps, SkylineStats* stats = nullptr);
[[nodiscard]] data::PointSet sfs_skyline(const data::PointSet& ps, SkylineStats* stats = nullptr);
[[nodiscard]] data::PointSet dc_skyline(const data::PointSet& ps, SkylineStats* stats = nullptr);
[[nodiscard]] data::PointSet naive_skyline(const data::PointSet& ps,
                                           SkylineStats* stats = nullptr);

/// The SFS presort order of `n` points, `point(i)` returning point i's
/// coordinates as a span: ascending coordinate sum, ties broken
/// lexicographically and then by index. A dominator always comes before
/// every point it dominates — the floating-point sum is monotone in each
/// coordinate, and on a tied sum the dominator is the lexicographically
/// smaller point — and the order is total, so it does not depend on the sort
/// implementation. sfs_skyline and the pipeline's parallel merge both scan
/// in this order.
template <typename PointAt>
[[nodiscard]] std::vector<std::size_t> sfs_order(std::size_t n, const PointAt& point) {
  std::vector<double> score(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> p = point(i);
    score[i] = std::accumulate(p.begin(), p.end(), 0.0);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] < score[b];
    const std::span<const double> pa = point(a);
    const std::span<const double> pb = point(b);
    const auto diff = std::mismatch(pa.begin(), pa.end(), pb.begin());
    if (diff.first != pa.end()) return *diff.first < *diff.second;
    return a < b;
  });
  return order;
}

/// Dispatch by enum.
[[nodiscard]] data::PointSet compute_skyline(const data::PointSet& ps, Algorithm algo,
                                             SkylineStats* stats = nullptr);

}  // namespace mrsky::skyline
