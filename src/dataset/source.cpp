#include "src/dataset/source.hpp"

#include <algorithm>
#include <span>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/io.hpp"

namespace mrsky::data {

namespace {

/// splitmix64: the repo's standard cheap deterministic hash (same family the
/// pipeline's salting uses), here deriving per-block sample offsets.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---- DatasetSource defaults ------------------------------------------------

PointSet DatasetSource::sample(std::size_t target, std::uint64_t seed,
                               common::ThreadPool* pool) const {
  const std::size_t total = size();
  PointSet out(dim());
  if (total == 0) return out;
  if (target >= total) return materialize();

  // Proportional per-block quotas via the telescoping floor trick:
  // quota_b = floor(seen_after * t / n) - floor(seen_before * t / n), which
  // sums to exactly t and never exceeds a block's row count.
  std::vector<std::size_t> block_rows(block_count(), 0);
  std::vector<std::size_t> quota(block_count(), 0);
  std::size_t seen = 0;
  for (std::size_t b = 0; b < block_count(); ++b) {
    block_rows[b] = block_stats(b).rows;
    const std::size_t before = seen * target / total;
    seen += block_rows[b];
    quota[b] = seen * target / total - before;
  }
  std::vector<PointSet> picks(block_count(), PointSet(dim()));
  common::for_each_index(block_count(), pool, [&](std::size_t b) {
    const std::size_t take = quota[b];
    if (take == 0) return;
    PointSet scratch(dim());
    read_block(b, scratch);
    const std::size_t rows = block_rows[b];
    MRSKY_ASSERT(scratch.size() == rows, "block_stats rows disagree with read_block");
    // Evenly spaced offsets, shifted by a seed+block hash so different seeds
    // see different rows; stride >= 1 keeps picks distinct and in range.
    const std::size_t stride = rows / take;
    const std::size_t shift = stride > 1 ? splitmix64(seed ^ (b * 0x9e3779b97f4a7c15ULL)) %
                                               stride
                                         : 0;
    picks[b].reserve(take);
    for (std::size_t r = 0; r < take; ++r) {
      const std::size_t pos = std::min(r * stride + shift, rows - 1);
      picks[b].push_back(scratch.point(pos), scratch.id(pos));
    }
    release_block(b);
  });
  out.reserve(target);
  for (const PointSet& p : picks) out.append_rows(p.raw(), p.ids());
  return out;
}

PointSet DatasetSource::materialize() const {
  PointSet out(dim());
  out.reserve(size());
  for (std::size_t b = 0; b < block_count(); ++b) {
    read_block(b, out);
    release_block(b);
  }
  return out;
}

// ---- PointSetSource --------------------------------------------------------

namespace {
/// Virtual block size for in-memory sources: block-oriented consumers see
/// uniform slices, nothing is copied until they ask.
constexpr std::size_t kResidentBlockRows = 4096;
}  // namespace

PointSetSource::PointSetSource(const PointSet& ps) : view_(&ps) {}

PointSetSource::PointSetSource(PointSet&& ps) : owned_(std::move(ps)) {}

std::size_t PointSetSource::block_count() const {
  return (set().size() + kResidentBlockRows - 1) / kResidentBlockRows;
}

BlockStats PointSetSource::block_stats(std::size_t b) const {
  MRSKY_REQUIRE(b < block_count(), "block index out of range");
  BlockStats stats;
  stats.rows = std::min(kResidentBlockRows, set().size() - b * kResidentBlockRows);
  stats.bytes = stats.rows * (set().dim() * sizeof(double) + sizeof(PointId));
  stats.has_corners = false;  // never computed: resident runs must not prune
  return stats;
}

void PointSetSource::read_block(std::size_t b, PointSet& out) const {
  MRSKY_REQUIRE(b < block_count(), "block index out of range");
  const PointSet& ps = set();
  const std::size_t first = b * kResidentBlockRows;
  const std::size_t rows = std::min(kResidentBlockRows, ps.size() - first);
  out.append_rows(ps.raw().subspan(first * ps.dim(), rows * ps.dim()),
                  ps.ids().subspan(first, rows));
}

std::string PointSetSource::describe() const {
  return "memory: " + std::to_string(set().size()) + " x " +
         std::to_string(set().dim()) + "d";
}

// ---- BlockStoreSource ------------------------------------------------------

BlockStoreSource::BlockStoreSource(const std::string& path)
    : store_(std::make_shared<const BlockStore>(path)) {}

BlockStoreSource::BlockStoreSource(std::shared_ptr<const BlockStore> store)
    : store_(std::move(store)) {
  MRSKY_REQUIRE(store_ != nullptr, "null block store");
}

BlockStoreSource::~BlockStoreSource() = default;

std::size_t BlockStoreSource::dim() const { return store_->dim(); }
std::size_t BlockStoreSource::size() const { return store_->rows(); }
std::size_t BlockStoreSource::block_count() const { return store_->block_count(); }

BlockStats BlockStoreSource::block_stats(std::size_t b) const {
  BlockStats stats;
  stats.rows = store_->rows_in_block(b);
  stats.bytes = store_->block_payload_bytes(b);
  stats.has_corners = true;
  const auto mn = store_->block_min(b);
  const auto mx = store_->block_max(b);
  stats.min_corner.assign(mn.begin(), mn.end());
  stats.max_corner.assign(mx.begin(), mx.end());
  return stats;
}

void BlockStoreSource::read_block(std::size_t b, PointSet& out) const {
  store_->append_block_to(b, out);
}

void BlockStoreSource::release_block(std::size_t b) const { store_->release(b); }

PointSet BlockStoreSource::materialize() const { return store_->materialize(); }

std::string BlockStoreSource::describe() const {
  return "block store " + store_->path() + ": " + std::to_string(store_->rows()) + " x " +
         std::to_string(store_->dim()) + "d in " + std::to_string(store_->block_count()) +
         " blocks";
}

// ---- Block pruning ---------------------------------------------------------

BlockPrune prune_blocks(const DatasetSource& source, const PointSet& dominators) {
  MRSKY_REQUIRE(dominators.dim() == source.dim(), "dominators must match the source's dim");
  const std::size_t dim = source.dim();
  BlockPrune result;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const BlockStats stats = source.block_stats(b);
    bool drop = false;
    if (stats.has_corners) {
      for (std::size_t s = 0; !drop && s < dominators.size(); ++s) {
        const std::span<const double> p = dominators.point(s);
        bool dominates = true;
        for (std::size_t a = 0; dominates && a < dim; ++a) {
          dominates = p[a] < stats.min_corner[a];
        }
        drop = dominates;
      }
    }
    if (drop) {
      ++result.blocks_pruned;
      result.bytes_pruned += stats.bytes;
    } else {
      result.kept.push_back(b);
      result.bytes_read += stats.bytes;
    }
  }
  return result;
}

// ---- Whole-file reads and writes ------------------------------------------

bool is_block_store_path(const std::string& path) {
  const std::string suffix = ".mrb";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

PointSet read_points(const std::string& path, ParseReport* report) {
  if (is_block_store_path(path)) return BlockStore(path).materialize(report);
  CsvReadOptions options;
  options.lenient = report != nullptr;
  return read_csv_file(path, options, report);
}

void write_points(const std::string& path, const PointSet& ps) {
  if (is_block_store_path(path)) {
    write_block_store(path, ps);
  } else {
    write_csv_file(path, ps);
  }
}

}  // namespace mrsky::data
