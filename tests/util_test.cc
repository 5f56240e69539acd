#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"

namespace datacell {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kTypeMismatch,
        StatusCode::kParseError, StatusCode::kBindError, StatusCode::kIOError,
        StatusCode::kInternal, StatusCode::kUnsupported,
        StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  ASSIGN_OR_RETURN(int half, HalveEven(x));
  ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = QuarterEven(6);  // 6/2 = 3, odd
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingle) {
  auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(pieces, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("where", "wher"));
}

TEST(StringsTest, ParseInt64) {
  auto r = ParseInt64("-123");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, -123);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringsTest, ParseDouble) {
  auto r = ParseDouble("2.5e3");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 2500.0);
  EXPECT_FALSE(ParseDouble("nanx").ok());
}

// The from_chars fast paths must keep strtoll/strtod acceptance exactly:
// every literal is checked against the libc reference on a heap copy.
const std::vector<std::string>& NumericLiterals() {
  static const std::vector<std::string> kLiterals = {
      "+5", " 5", "5 ", "\t5", "-0", "0", "007", "-007", "-", "+", "",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "1e400", "-1e400", "1e-400", "inf", "-inf",
      "infinity", "INF", "nan", "-nan", "nan(7)", "0x1p3", "0x10", "12x",
      "1.5x", "1e", "1.", ".5", "2.5e3", "4.9406564584124654e-324",
      "2.2250738585072009e-308", "2.2250738585072014e-308",
      std::string("5\0", 2), std::string(150, '0') + "42",
      std::string(150, ' ') + "42"};
  return kLiterals;
}

TEST(StringsTest, ParseInt64MatchesStrtoll) {
  for (const std::string& s : NumericLiterals()) {
    errno = 0;
    char* end = nullptr;
    const long long want = std::strtoll(s.c_str(), &end, 10);
    const bool want_ok =
        !s.empty() && errno != ERANGE && end == s.c_str() + s.size();
    Result<int64_t> got = ParseInt64(s);
    ASSERT_EQ(got.ok(), want_ok) << "'" << s << "'";
    if (want_ok) {
      EXPECT_EQ(*got, want) << "'" << s << "'";
    }
  }
}

TEST(StringsTest, ParseDoubleMatchesStrtod) {
  for (const std::string& s : NumericLiterals()) {
    errno = 0;
    char* end = nullptr;
    const double want = std::strtod(s.c_str(), &end);
    const bool want_ok =
        !s.empty() && errno != ERANGE && end == s.c_str() + s.size();
    Result<double> got = ParseDouble(s);
    ASSERT_EQ(got.ok(), want_ok) << "'" << s << "'";
    if (want_ok) {
      // Bit-identical, so NaN signs and -0.0 count too.
      EXPECT_EQ(std::memcmp(&*got, &want, sizeof(double)), 0) << "'" << s << "'";
    }
  }
}

TEST(StringsTest, Printf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "ok"), "7-ok");
}

TEST(ClockTest, SimulatedAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SleepFor(25);  // virtual sleep
  EXPECT_EQ(clock.Now(), 175);
  clock.SetTime(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, SystemMonotone) {
  SystemClock* clock = SystemClock::Get();
  Micros a = clock->Now();
  Micros b = clock->Now();
  EXPECT_LE(a, b);
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

}  // namespace
}  // namespace datacell
