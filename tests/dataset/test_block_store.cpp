// The `.mrb` block store: round-trip fidelity, footer statistics, lazy
// checksum verification, typed corruption errors, the DatasetSource seam
// every consumer programs against (DESIGN.md decision 16), and the
// whole-file read_points/write_points pair that picks a file's format.
#include "src/dataset/block_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/source.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::data {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + "/" + name; }

/// Rows of `ps` in ascending-id order, for comparing skylines canonically.
PointSet by_id(const PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void flip_byte_at(const std::string& path, std::streamoff offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(offset);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
}

TEST(BlockStore, RoundTripExactBits) {
  const PointSet original = generate(Distribution::kAnticorrelated, 1000, 5, 42);
  const std::string path = temp_path("bs_roundtrip.mrb");
  write_block_store(path, original, /*block_rows=*/128);
  const BlockStore store(path);
  EXPECT_EQ(store.dim(), 5u);
  EXPECT_EQ(store.rows(), 1000u);
  EXPECT_EQ(store.block_rows(), 128u);
  EXPECT_EQ(store.block_count(), 8u);  // 7 full + 1 partial
  EXPECT_EQ(store.materialize(), original);  // bitwise: binary format loses nothing
}

TEST(BlockStore, WriterOutputIndependentOfAppendBatching) {
  const PointSet ps = generate(Distribution::kCorrelated, 300, 4, 7);
  const std::string row_wise = temp_path("bs_rowwise.mrb");
  const std::string bulk = temp_path("bs_bulk.mrb");
  {
    BlockStoreWriter writer(row_wise, 4, 37);  // odd capacity on purpose
    for (std::size_t i = 0; i < ps.size(); ++i) writer.append(ps.id(i), ps.point(i));
    writer.close();
    EXPECT_EQ(writer.rows_written(), 300u);
    EXPECT_EQ(writer.blocks_written(), 9u);  // ceil(300 / 37)
  }
  {
    BlockStoreWriter writer(bulk, 4, 37);
    writer.append(ps);
    writer.close();
  }
  EXPECT_EQ(read_bytes(row_wise), read_bytes(bulk));
}

TEST(BlockStore, EmptySetRoundTrips) {
  const std::string path = temp_path("bs_empty.mrb");
  write_block_store(path, PointSet(3));
  const BlockStore store(path);
  EXPECT_EQ(store.dim(), 3u);
  EXPECT_EQ(store.rows(), 0u);
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_TRUE(store.materialize().empty());
}

TEST(BlockStore, FooterCornersAreComponentwiseMinMax) {
  const PointSet ps = generate(Distribution::kIndependent, 500, 3, 11);
  const std::string path = temp_path("bs_corners.mrb");
  write_block_store(path, ps, 64);
  const BlockStore store(path);
  std::size_t row = 0;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    PointSet block(3);
    store.append_block_to(b, block);
    ASSERT_EQ(block.size(), store.rows_in_block(b));
    const auto min = block.attribute_min();
    const auto max = block.attribute_max();
    const auto stored_min = store.block_min(b);
    const auto stored_max = store.block_max(b);
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(stored_min[a], min[a]) << "block " << b << " attr " << a;
      EXPECT_EQ(stored_max[a], max[a]) << "block " << b << " attr " << a;
    }
    // Blocks partition the file in writer order, ids preserved.
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(block.id(i), ps.id(row + i));
    }
    row += block.size();
  }
  EXPECT_EQ(row, ps.size());
}

TEST(BlockStore, BlockRefGathersTheOriginalRows) {
  const PointSet ps = generate(Distribution::kIndependent, 100, 4, 13);
  const std::string path = temp_path("bs_ref.mrb");
  write_block_store(path, ps, 60);  // partial second block, partial last tile
  const BlockStore store(path);
  std::vector<double> row(4);
  std::size_t global = 0;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    const BlockStore::BlockRef ref = store.block(b);
    ASSERT_EQ(ref.dim, 4u);
    for (std::size_t r = 0; r < ref.rows; ++r, ++global) {
      ref.copy_row(r, row.data());
      EXPECT_EQ(ref.ids[r], ps.id(global));
      for (std::size_t a = 0; a < 4; ++a) EXPECT_EQ(row[a], ps.at(global, a));
    }
    // Dead lanes of the last tile are masked out.
    const std::size_t last = ref.tile_count() - 1;
    const std::size_t live = ref.rows - last * blockfmt::kTileLanes;
    EXPECT_EQ(ref.valid_mask(last), (std::uint32_t{1} << live) - 1);
    store.release(b);
  }
  EXPECT_EQ(global, ps.size());
}

TEST(BlockStore, BlockSkylineRowsMatchesNaiveSkyline) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 400, 4, 17);
  const std::string path = temp_path("bs_blocksky.mrb");
  write_block_store(path, ps, 128);
  const BlockStore store(path);
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    PointSet block(4);
    store.append_block_to(b, block);
    const auto expected = sorted_ids(skyline::naive_skyline(block));
    std::vector<PointId> actual;
    for (std::size_t r : store.block_skyline_rows(b)) actual.push_back(block.id(r));
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "block " << b;
  }
}

TEST(BlockStore, MissingFileThrows) {
  EXPECT_THROW(BlockStore("/no/such/file.mrb"), mrsky::RuntimeError);
}

TEST(BlockStore, BadMagicRejected) {
  const std::string path = temp_path("bs_badmagic.mrb");
  std::ofstream file(path, std::ios::binary);
  file << "NOTABLOCKSTORE------------------------------------------";
  file.close();
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, VersionMismatchRejected) {
  const std::string path = temp_path("bs_badversion.mrb");
  write_block_store(path, generate(Distribution::kIndependent, 50, 2, 19), 32);
  flip_byte_at(path, 4);  // u32 version lives right after the magic
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, TruncationDetectedAtOpen) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 23);
  const std::string src = temp_path("bs_full.mrb");
  const std::string dst = temp_path("bs_truncated.mrb");
  write_block_store(src, ps, 100);
  const std::vector<char> bytes = read_bytes(src);
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  out.close();
  EXPECT_THROW(BlockStore{dst}, mrsky::RuntimeError);
}

TEST(BlockStore, FooterCorruptionDetectedAtOpen) {
  const std::string path = temp_path("bs_badfooter.mrb");
  write_block_store(path, generate(Distribution::kIndependent, 200, 2, 29), 100);
  // The footer sits between the payload and the fixed-size trailer; flip a
  // byte inside one of its index entries.
  const auto size = static_cast<std::streamoff>(read_bytes(path).size());
  flip_byte_at(path, size - static_cast<std::streamoff>(blockfmt::kTrailerBytes) - 24);
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, PayloadCorruptionIsLazyAndTyped) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 31);
  const std::string path = temp_path("bs_badpayload.mrb");
  write_block_store(path, ps, 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  // Open succeeds (the footer is intact) and footer-only statistics never
  // touch the payload...
  const BlockStore store(path);
  EXPECT_EQ(store.block_count(), 2u);
  EXPECT_EQ(store.rows_in_block(0), 100u);
  EXPECT_FALSE(store.block_min(0).empty());
  // ...but the first page access to block 0 detects the flip.
  EXPECT_THROW((void)store.block(0), mrsky::RuntimeError);
  EXPECT_THROW(store.verify_block(0), mrsky::RuntimeError);
  EXPECT_THROW((void)store.materialize(), mrsky::RuntimeError);
  // Block 1 is untouched and fully readable.
  EXPECT_NO_THROW(store.verify_block(1));
  PointSet second(2);
  store.append_block_to(1, second);
  EXPECT_EQ(second.size(), 100u);
  EXPECT_EQ(second.id(0), ps.id(100));
}

TEST(BlockStore, LenientMaterializeDropsCorruptBlockWhole) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 37);
  const std::string path = temp_path("bs_lenient.mrb");
  write_block_store(path, ps, 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  const BlockStore store(path);
  ParseReport report;
  const PointSet loaded = store.materialize(&report);
  ASSERT_EQ(loaded.size(), 100u);
  EXPECT_EQ(loaded.id(0), ps.id(100));  // survivors are the second block
  EXPECT_EQ(report.rows_read, 100u);
  EXPECT_EQ(report.rows_skipped, 100u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].row, 0u);  // issue rows are block indices
  EXPECT_NE(report.issues[0].reason.find("checksum"), std::string::npos);
}

TEST(BlockStore, ZorderPermutationIsADeterministicPermutation) {
  const PointSet ps = generate(Distribution::kClustered, 500, 4, 41);
  const std::vector<std::size_t> perm = zorder_permutation(ps);
  EXPECT_EQ(perm, zorder_permutation(ps));
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Reordering rows permutes, never alters, the stored set.
  const std::string path = temp_path("bs_zorder.mrb");
  write_block_store(path, ps.select(perm), 64);
  const PointSet loaded = BlockStore(path).materialize();
  EXPECT_EQ(sorted_ids(loaded), sorted_ids(ps));
}

// ---------------------------------------------------------------------------
// DatasetSource: the uniform interface over resident sets and .mrb files.
// ---------------------------------------------------------------------------

TEST(DatasetSource, PointSetSourceIsResidentAndBlocksCoverEverything) {
  const PointSet ps = generate(Distribution::kIndependent, 250, 3, 43);
  const PointSetSource source(ps);
  EXPECT_EQ(source.dim(), 3u);
  EXPECT_EQ(source.size(), 250u);
  ASSERT_EQ(source.resident(), &ps);  // zero-copy: the legacy fast path
  PointSet reassembled(3);
  std::size_t stat_rows = 0;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const BlockStats stats = source.block_stats(b);
    EXPECT_FALSE(stats.has_corners);  // virtual blocks never prune
    stat_rows += stats.rows;
    source.read_block(b, reassembled);
  }
  EXPECT_EQ(stat_rows, ps.size());
  EXPECT_EQ(reassembled, ps);
  EXPECT_EQ(source.materialize(), ps);
  // Without corners nothing can be pruned, whatever the dominators.
  EXPECT_EQ(prune_blocks(source, ps).kept.size(), source.block_count());
}

TEST(DatasetSource, BlockStoreSourceExposesFooterCorners) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 300, 4, 47);
  const std::string path = temp_path("src_store.mrb");
  write_block_store(path, ps, 64);
  const BlockStoreSource source(path);
  EXPECT_EQ(source.resident(), nullptr);
  EXPECT_EQ(source.block_count(), source.store().block_count());
  std::uint64_t bytes = 0;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const BlockStats stats = source.block_stats(b);
    ASSERT_TRUE(stats.has_corners);
    EXPECT_EQ(stats.rows, source.store().rows_in_block(b));
    const auto min = source.store().block_min(b);
    EXPECT_TRUE(std::equal(min.begin(), min.end(), stats.min_corner.begin()));
    bytes += stats.bytes;
    source.release_block(b);
  }
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(source.materialize(), ps);
}

TEST(DatasetSource, PruneBlocksNeverDropsTiesOrDuplicates) {
  // Two rows per block. B's min corner (1, 3) ties A's point (1, 2) in attribute 0
  // and is larger in attribute 1; C holds an exact copy of A's skyline point
  // (2, 1); D's min corner (5, 5) is strictly dominated. Only D may go: a
  // non-strict rule would drop B and, worse, C's duplicate skyline member.
  PointSet ps(2);
  ps.push_back(std::vector<double>{1, 2}, 0);  // A
  ps.push_back(std::vector<double>{2, 1}, 1);
  ps.push_back(std::vector<double>{1, 3}, 2);  // B
  ps.push_back(std::vector<double>{3, 3}, 3);
  ps.push_back(std::vector<double>{2, 1}, 4);  // C
  ps.push_back(std::vector<double>{4, 4}, 5);
  ps.push_back(std::vector<double>{5, 5}, 6);  // D
  ps.push_back(std::vector<double>{6, 6}, 7);
  const std::string path = temp_path("src_prune_ties.mrb");
  write_block_store(path, ps, 2);
  const BlockStoreSource source(path);
  ASSERT_EQ(source.block_count(), 4u);

  const PointSet sky = skyline::bnl_skyline(ps);
  ASSERT_EQ(sorted_ids(sky), (std::vector<PointId>{0, 1, 4}));
  const BlockPrune prune = prune_blocks(source, sky);
  EXPECT_EQ(prune.kept, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(prune.blocks_pruned, 1u);
  EXPECT_EQ(prune.bytes_pruned, source.block_stats(3).bytes);

  // The streamed run prunes D and still reports both copies of (2, 1),
  // bit for bit what the resident run reports.
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 2;
  const auto resident = core::run_mr_skyline(ps, config);
  const auto streamed = core::run_mr_skyline(source, config);
  EXPECT_EQ(streamed.partition_job.blocks_pruned, 1u);
  EXPECT_EQ(sorted_ids(streamed.skyline), (std::vector<PointId>{0, 1, 4}));
  EXPECT_EQ(by_id(streamed.skyline), by_id(resident.skyline));
}

TEST(DatasetSource, SampleIsDeterministicBoundedAndReleased) {
  const PointSet ps = generate(Distribution::kIndependent, 1000, 3, 53);
  const std::string path = temp_path("src_sample.mrb");
  write_block_store(path, ps, 64);
  const BlockStoreSource source(path);
  const PointSet sample = source.sample(100, 0x5a3e);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_EQ(sample, source.sample(100, 0x5a3e));  // pure function of (target, seed)
  // Every sampled row is a real row of the dataset, bits intact.
  const auto ids = sorted_ids(ps);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), sample.id(i)));
  }
  // target >= size returns everything.
  EXPECT_EQ(source.sample(5000, 1).size(), ps.size());
}

TEST(DatasetSource, PooledSampleEqualsSerial) {
  // 1000 rows in blocks of 64: the last block holds 40, and quotas differ
  // between blocks, so the concatenation order is visible.
  const PointSet ps = generate(Distribution::kAnticorrelated, 1000, 3, 59);
  const std::string path = temp_path("src_sample_pooled.mrb");
  write_block_store(path, ps, 64);
  const BlockStoreSource source(path);
  common::ThreadPool pool(4);
  for (const std::size_t target : {std::size_t{7}, std::size_t{100}, std::size_t{999}}) {
    const PointSet serial = source.sample(target, 0x5a3e);
    EXPECT_EQ(serial.size(), target);
    EXPECT_EQ(source.sample(target, 0x5a3e, &pool), serial) << "target " << target;
  }
}

// ---------------------------------------------------------------------------
// read_points / write_points: whole-file I/O whose format follows the name.
// ---------------------------------------------------------------------------

TEST(PointFiles, RoundTripExactBitsAndIdsInEveryFormat) {
  PointSet ps = generate(Distribution::kAnticorrelated, 120, 3, 61);
  ps.push_back(std::vector<double>{0.1, 1.0 / 3.0, 1e-300}, 9001);  // id gap, tiny value
  for (const std::string name : {"points.mrb", "points.csv"}) {
    const std::string path = temp_path("pf_" + name);
    write_points(path, ps);
    EXPECT_EQ(read_points(path), ps) << name;  // ids and coordinate bits
  }
  // The name picks the format: a .mrb is a real block store, not CSV text.
  EXPECT_TRUE(is_block_store_path(temp_path("pf_points.mrb")));
  EXPECT_FALSE(is_block_store_path(temp_path("pf_points.csv")));
  EXPECT_EQ(BlockStore(temp_path("pf_points.mrb")).materialize(), ps);
  EXPECT_EQ(read_csv_file(temp_path("pf_points.csv")), ps);
}

TEST(PointFiles, LenientMrbReadDropsCorruptBlockAndReportsIt) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 67);
  const std::string path = temp_path("pf_corrupt.mrb");
  write_block_store(path, ps, 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  EXPECT_THROW((void)read_points(path), mrsky::RuntimeError);  // strict by default
  ParseReport report;
  const PointSet loaded = read_points(path, &report);
  ASSERT_EQ(loaded.size(), 100u);
  EXPECT_EQ(loaded.id(0), ps.id(100));  // survivors are the second block
  EXPECT_EQ(report.rows_skipped, 100u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].row, 0u);  // the dropped block's index
}

TEST(PointFiles, LenientCsvReadDropsMalformedRowsAndReportsThem) {
  const std::string csv = temp_path("pf_bad.csv");
  {
    std::ofstream out(csv);
    out << "id,a,b\n0,1.0,2.0\n1,not_a_number,3.0\n2,4.0,5.0\n";
  }
  EXPECT_THROW((void)read_points(csv), mrsky::InvalidArgument);  // strict by default
  ParseReport report;
  const PointSet loaded = read_points(csv, &report);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.id(1), 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
}

}  // namespace
}  // namespace mrsky::data
