// Tests for the shared utilities: RNG, fixed-point helpers, table printer,
// bench JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bench_json.hpp"
#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace simt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  unsigned same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0u);
}

TEST(Rng, NextBelowIsInRange) {
  Xoshiro256 rng(9);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Xoshiro256 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(12);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(FixedPoint, RoundTripQ16) {
  for (const double v : {0.0, 1.0, -1.0, 0.5, -0.25, 1234.5678}) {
    EXPECT_NEAR(from_fixed(to_fixed(v, 16), 16), v, 1.0 / (1 << 15));
  }
}

TEST(FixedPoint, RoundsToNearest) {
  EXPECT_EQ(to_fixed(0.5, 0), 1);
  EXPECT_EQ(to_fixed(-0.5, 0), -1);
  EXPECT_EQ(to_fixed(0.49, 0), 0);
}

TEST(FixedPoint, SaturatesAtInt32Range) {
  EXPECT_EQ(to_fixed(1e15, 16), 2147483647);
  EXPECT_EQ(to_fixed(-1e15, 16), INT32_MIN);
}

TEST(FixedPoint, FixedMulMatchesDouble) {
  const std::int32_t a = to_fixed(3.25, 16);
  const std::int32_t b = to_fixed(-2.5, 16);
  EXPECT_NEAR(from_fixed(fixed_mul(a, b, 16), 16), -8.125, 1e-3);
}

TEST(Table, AlignsColumnsAndSeparators) {
  Table t({"Module", "ALMs"});
  t.add_row({"GPGPU", "7038"});
  t.add_row({"SP", "371"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Module"), std::string::npos);
  EXPECT_NE(s.find("| GPGPU"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  // All lines equal length (alignment).
  std::size_t len = std::string::npos;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    const auto line_len = nl - pos;
    if (len == std::string::npos) {
      len = line_len;
    }
    EXPECT_EQ(line_len, len);
    pos = nl + 1;
  }
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_mhz(956.4), "956 MHz");
  EXPECT_EQ(fmt_ratio(1.5), "1.50x");
  EXPECT_EQ(fmt_int(24534), "24534");
}

TEST(Error, CarriesMessage) {
  try {
    throw Error("something specific");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "something specific");
  }
}

TEST(BenchReport, NegativeIntegersStaySigned) {
  BenchReport report("signs");
  report.metric("neg", -3LL).metric("pos", 7LL);
  report.metric("big", std::uint64_t{1} << 63);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"neg\": -3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pos\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"big\": 9223372036854775808"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace simt
