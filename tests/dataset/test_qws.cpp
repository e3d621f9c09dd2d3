#include "src/dataset/qws.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/stats.hpp"
#include "src/dataset/source.hpp"

namespace mrsky::data {
namespace {

TEST(QwsSchema, TenAttributesAvailable) {
  const auto schema = qws_schema(10);
  ASSERT_EQ(schema.size(), 10u);
  EXPECT_EQ(schema[0].name, "ResponseTime");
  EXPECT_EQ(schema[9].name, "Price");
}

TEST(QwsSchema, PrefixSelection) {
  const auto schema = qws_schema(3);
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema[2].name, "Throughput");
}

TEST(QwsSchema, RejectsOutOfRangeDim) {
  EXPECT_THROW(qws_schema(0), InvalidArgument);
  EXPECT_THROW(qws_schema(11), InvalidArgument);
}

TEST(QwsSchema, RangesAreWellFormed) {
  for (const auto& attr : qws_schema(10)) {
    EXPECT_LT(attr.min, attr.max) << attr.name;
  }
}

TEST(QwsSchema, OrientationFlagsMatchSemantics) {
  const auto schema = qws_schema(10);
  EXPECT_FALSE(schema[0].higher_is_better);  // ResponseTime: lower is better
  EXPECT_TRUE(schema[1].higher_is_better);   // Availability
  EXPECT_FALSE(schema[7].higher_is_better);  // Latency
  EXPECT_FALSE(schema[9].higher_is_better);  // Price
}

TEST(QwsLikeGenerator, RawValuesStayInSchemaRanges) {
  QwsLikeGenerator gen(10, 42);
  const PointSet raw = gen.generate_raw(2000);
  ASSERT_EQ(raw.dim(), 10u);
  const auto& schema = gen.schema();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::size_t a = 0; a < raw.dim(); ++a) {
      EXPECT_GE(raw.at(i, a), schema[a].min) << schema[a].name;
      EXPECT_LE(raw.at(i, a), schema[a].max) << schema[a].name;
    }
  }
}

TEST(QwsLikeGenerator, DeterministicUnderSeed) {
  QwsLikeGenerator a(5, 7);
  QwsLikeGenerator b(5, 7);
  EXPECT_EQ(a.generate_raw(100), b.generate_raw(100));
}

TEST(QwsLikeGenerator, SeedsChangeData) {
  QwsLikeGenerator a(5, 7);
  QwsLikeGenerator b(5, 8);
  EXPECT_NE(a.generate_raw(100), b.generate_raw(100));
}

TEST(QwsLikeGenerator, OrientedFlipsBenefitAttributes) {
  QwsLikeGenerator gen(2, 3);  // ResponseTime (cost), Availability (benefit)
  const PointSet raw = gen.generate_raw(50);
  const PointSet oriented = QwsLikeGenerator::orient(raw, gen.schema());
  const double avail_max = gen.schema()[1].max;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_DOUBLE_EQ(oriented.at(i, 0), raw.at(i, 0));               // cost kept
    EXPECT_DOUBLE_EQ(oriented.at(i, 1), avail_max - raw.at(i, 1));   // benefit flipped
  }
}

TEST(QwsLikeGenerator, OrientedValuesNonNegative) {
  QwsLikeGenerator gen(10, 11);
  const PointSet oriented = gen.generate_oriented(1000);
  for (std::size_t i = 0; i < oriented.size(); ++i) {
    for (std::size_t a = 0; a < oriented.dim(); ++a) {
      EXPECT_GE(oriented.at(i, a), 0.0);
    }
  }
}

TEST(QwsLikeGenerator, OrientPreservesIds) {
  QwsLikeGenerator gen(3, 5);
  const PointSet raw = gen.generate_raw(20);
  const PointSet oriented = QwsLikeGenerator::orient(raw, gen.schema());
  for (std::size_t i = 0; i < raw.size(); ++i) EXPECT_EQ(oriented.id(i), raw.id(i));
}

TEST(QwsLikeGenerator, OrientRejectsSchemaMismatch) {
  QwsLikeGenerator gen(3, 5);
  const PointSet raw = gen.generate_raw(5);
  EXPECT_THROW(QwsLikeGenerator::orient(raw, qws_schema(2)), InvalidArgument);
}

// The real-QWS load path: an `id,<attribute...>` CSV in qws_schema order,
// read with read_points and oriented against the schema.
TEST(QwsLoad, CsvRoundTripThenOrientMatchesGeneratedOriented) {
  const std::string path = testing::TempDir() + "/qws_load_roundtrip.csv";
  write_points(path, QwsLikeGenerator(9, 29).generate_raw(500));
  const PointSet loaded = QwsLikeGenerator::orient(read_points(path), qws_schema(9));
  EXPECT_EQ(loaded, QwsLikeGenerator(9, 29).generate_oriented(500));  // ids and bits
}

TEST(QwsLoad, OutOfRangeValueThrowsNamingTheAttribute) {
  const auto schema = qws_schema(3);  // ResponseTime (cost), Availability, Throughput
  auto load = [&](const std::string& name, const std::string& row) {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path) << "id,ResponseTime,Availability,Throughput\n"
                        << "0,100,99,10\n"
                        << row << "\n";
    return QwsLikeGenerator::orient(read_points(path), schema);
  };
  EXPECT_EQ(load("qws_load_ok.csv", "1,37,7,43.1").size(), 2u);  // bounds are inclusive
  auto expect_rejected = [&](const std::string& name, const std::string& row,
                             const std::string& attribute) {
    try {
      (void)load(name, row);
      ADD_FAILURE() << "no throw for " << attribute;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + attribute + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("row 1 (id 7)"), std::string::npos) << what;
    }
  };
  expect_rejected("qws_load_benefit_high.csv", "7,100,100.5,10", "Availability");  // > max
  expect_rejected("qws_load_cost_low.csv", "7,36.9,99,10", "ResponseTime");       // < min
}

TEST(QwsLikeGenerator, QualityCorrelationLinksBenefitAttributes) {
  // Availability and Successability are both benefit attributes; the latent
  // quality factor should correlate them, and more strongly at higher rho.
  auto correlation_at = [](double rho) {
    QwsLikeGenerator::Options options;
    options.quality_correlation = rho;
    QwsLikeGenerator gen(4, 19, options);
    const PointSet raw = gen.generate_raw(5000);
    std::vector<double> avail, succ;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      avail.push_back(raw.at(i, 1));
      succ.push_back(raw.at(i, 3));
    }
    return common::pearson_correlation(avail, succ);
  };
  const double weak = correlation_at(0.0);
  const double strong = correlation_at(0.8);
  EXPECT_GT(strong, 0.05);
  EXPECT_GT(strong, weak + 0.05);
}

TEST(QwsLikeGenerator, ZeroCorrelationIsIndependentIsh) {
  QwsLikeGenerator::Options options;
  options.quality_correlation = 0.0;
  QwsLikeGenerator gen(4, 19, options);
  const PointSet raw = gen.generate_raw(5000);
  std::vector<double> avail, succ;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    avail.push_back(raw.at(i, 1));
    succ.push_back(raw.at(i, 3));
  }
  EXPECT_NEAR(common::pearson_correlation(avail, succ), 0.0, 0.05);
}

TEST(QwsLikeGenerator, RejectsBadCorrelation) {
  QwsLikeGenerator::Options options;
  options.quality_correlation = 1.5;
  EXPECT_THROW(QwsLikeGenerator(3, 1, options), InvalidArgument);
}

TEST(QwsLikeGenerator, LongTailAttributesAreSkewed) {
  QwsLikeGenerator gen(1, 23);  // ResponseTime only
  const PointSet raw = gen.generate_raw(5000);
  common::RunningStats s;
  for (std::size_t i = 0; i < raw.size(); ++i) s.add(raw.at(i, 0));
  const auto& attr = gen.schema()[0];
  const double midpoint = (attr.min + attr.max) / 2.0;
  // Long-tail-low: mean well below the midpoint of the range.
  EXPECT_LT(s.mean(), midpoint);
}

}  // namespace
}  // namespace mrsky::data
