#include <cstdlib>
#include <optional>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/env_config.h"
#include "util/rng.h"
#include "util/table.h"

namespace odf {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(17), 17u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  Rng rng(10);
  const double lambda = 4.2;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, 0.1);
}

TEST(RngTest, PoissonLargeLambdaNormalApprox) {
  Rng rng(11);
  const double lambda = 100.0;
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, 1.5);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(12);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ZipfWeightsDecreasing) {
  auto w = Rng::ZipfWeights(10, 1.2);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng a(5);
  Rng b = a.Split();
  // Streams should diverge immediately (probabilistically certain).
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(EnvConfigTest, FallbacksAndParsing) {
  ::unsetenv("ODF_TEST_VAR");
  EXPECT_EQ(GetEnvInt("ODF_TEST_VAR", 42), 42);
  EXPECT_EQ(GetEnvString("ODF_TEST_VAR", "x"), "x");
  EXPECT_FALSE(GetEnvBool("ODF_TEST_VAR", false));

  ::setenv("ODF_TEST_VAR", "17", 1);
  EXPECT_EQ(GetEnvInt("ODF_TEST_VAR", 42), 17);
  ::setenv("ODF_TEST_VAR", "true", 1);
  EXPECT_TRUE(GetEnvBool("ODF_TEST_VAR", false));
  ::setenv("ODF_TEST_VAR", "bogus", 1);
  EXPECT_EQ(GetEnvInt("ODF_TEST_VAR", 42), 42);
  ::setenv("ODF_TEST_VAR", "4x", 1);
  EXPECT_EQ(GetEnvInt("ODF_TEST_VAR", 42), 42);
  ::unsetenv("ODF_TEST_VAR");
}

TEST(EnvConfigTest, ParseInt64TakesOnlyAWholeInRangeInteger) {
  EXPECT_EQ(ParseInt64("17"), 17);
  EXPECT_EQ(ParseInt64("-3"), -3);
  EXPECT_EQ(ParseInt64("4294967297"), int64_t{4294967297});
  for (const char* bad : {"", "4x", "1e9", "3.5", "banana", "7 ",
                          "99999999999999999999"}) {
    EXPECT_EQ(ParseInt64(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(TableTest, CsvEscapingAndLayout) {
  Table t({"name", "value"});
  t.AddRow({"plain", Table::Num(1.5, 2)});
  t.AddRow({"with,comma", "with\"quote"});
  EXPECT_EQ(t.NumRows(), 2u);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1.50\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",\"with\"\"quote\"\n"),
            std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 4), "3.0000");
}

TEST(CheckTest, PassingChecksDoNotAbort) {
  ODF_CHECK(true) << "never shown";
  ODF_CHECK_EQ(1, 1);
  ODF_CHECK_LT(1, 2);
  ODF_CHECK_GE(2.0, 2.0);
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ ODF_CHECK(false) << "boom"; }, "CHECK");
  EXPECT_DEATH({ ODF_CHECK_EQ(1, 2); }, "CHECK");
}

}  // namespace
}  // namespace odf
