#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "stats/rng.h"

namespace infoflow {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2")->AsNumber(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
  EXPECT_DOUBLE_EQ(ParseJson("  7  ")->AsNumber(), 7.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\nd\te")")->AsString(), "a\"b\\c\nd\te");
  EXPECT_EQ(ParseJson(R"("A")")->AsString(), "A");
}

TEST(JsonParse, NestedContainers) {
  auto v = ParseJson(R"({"id":"q1","sources":[0,3],"nested":{"x":true}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("id")->AsString(), "q1");
  const auto& sources = v->Find("sources")->AsArray();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_DOUBLE_EQ(sources[1].AsNumber(), 3.0);
  EXPECT_TRUE(v->Find("nested")->Find("x")->AsBool());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(ParseJson("[]")->AsArray().empty());
  EXPECT_TRUE(ParseJson("{}")->AsObject().empty());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("[1] trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("{1: 2}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1.2.3").ok());
  EXPECT_EQ(ParseJson("[x]").status().code(), StatusCode::kParseError);
}

TEST(JsonParse, RejectsAbsurdNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonDump, RoundTripsStructuredValues) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"c":"x\"y"},"d":-0.125})";
  auto v = ParseJson(text);
  ASSERT_TRUE(v.ok());
  // Dump is key-sorted + compact, and the original was written that way.
  EXPECT_EQ(v->Dump(), text);
  // A second parse of the dump is identical again.
  EXPECT_EQ(ParseJson(v->Dump())->Dump(), text);
}

TEST(JsonDump, NumbersRoundTrip) {
  for (const double x : {0.0, 1.0, -7.0, 0.1, 1e-9, 12345.6789, 1e15}) {
    const JsonValue v(x);
    auto back = ParseJson(v.Dump());
    ASSERT_TRUE(back.ok()) << v.Dump();
    EXPECT_DOUBLE_EQ(back->AsNumber(), x) << v.Dump();
  }
}

TEST(JsonDump, LargeMagnitudeDoublesRoundTripExactly) {
  // Every value must survive Dump → strtod bit-exactly: whole-number
  // doubles (accumulated counters) print as plain integers up to 2^53,
  // and anything larger or fractional gets up-to-17-significant-digit
  // output. Regression for streamed metrics snapshots, where totals grow
  // without bound.
  const double big[] = {
      9007199254740992.0,   // 2^53: last exactly-representable integer
      9007199254740991.0,   // 2^53 - 1
      -9007199254740992.0,
      9007199254740994.0,   // 2^53 + 2: past the integer fast path
      1.8446744073709552e19,  // 2^64
      1e300,
      -1e300,
      4e18,                 // uint64-scale counter territory (inexact range)
      123456789012345678.0,
      0.1 + 0.2,            // classic shortest-representation case
      1.7976931348623157e308,  // DBL_MAX
  };
  for (const double x : big) {
    const JsonValue v(x);
    auto back = ParseJson(v.Dump());
    ASSERT_TRUE(back.ok()) << v.Dump();
    EXPECT_EQ(back->AsNumber(), x) << v.Dump();  // bit-exact, not NEAR
  }
  // Integer-valued doubles inside the exact range print with no fraction
  // or exponent (wire compatibility for counters).
  EXPECT_EQ(JsonValue(9007199254740991.0).Dump(), "9007199254740991");
  EXPECT_EQ(JsonValue(4e15).Dump(), "4000000000000000");
}

TEST(JsonDump, BuilderStyleConstruction) {
  JsonValue obj{JsonValue::Object{}};
  obj.MutableObject()["ok"] = JsonValue(true);
  obj.MutableObject()["list"] = JsonValue{JsonValue::Array{}};
  obj.MutableObject()["list"].MutableArray().push_back(JsonValue(3));
  EXPECT_EQ(obj.Dump(), R"({"list":[3],"ok":true})");
}

// ------------------------------------------------- number-format oracle

/// The number writer's previous implementation, kept as the oracle: the
/// integer fast path, then the smallest `%.{p}g` precision that strtod
/// parses back to the same double, trying every p from 1 to 16.
std::string OracleNumber(double v) {
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) <= kMaxExactInteger) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  if (!std::isfinite(v)) return "null";
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char trial[32];
    std::snprintf(trial, sizeof(trial), "%.*g", precision, v);
    if (std::strtod(trial, nullptr) == v) return trial;
  }
  return buf;
}

/// Counts mismatches against the oracle and reports the first few.
class NumberDiff {
 public:
  void Check(double v) {
    ++checked_;
    const std::string got = JsonValue(v).Dump();
    const std::string want = OracleNumber(v);
    if (got != want && ++mismatches_ <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << std::dec << ": got " << got << ", oracle " << want;
    }
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

// 1M random bit patterns in four shards, so ctest can run them in parallel
// (the oracle's printf of huge exponents is slow).
class JsonNumberBits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonNumberBits, RandomBitPatternsMatchOracle) {
  Rng rng(GetParam());
  NumberDiff diff;
  for (int i = 0; i < 250000; ++i) {
    diff.Check(std::bit_cast<double>(rng.NextU64()));
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberBits,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(JsonNumberFormat, UniformDrawsAndRatiosMatchOracle) {
  Rng rng(7);
  NumberDiff diff;
  for (int i = 0; i < 500000; ++i) diff.Check(rng.NextDouble());
  // Row-count ratios: the estimates the daemon serves are k / n.
  for (int k = 0; k <= 4096; ++k) {
    diff.Check(k / 4096.0);
    diff.Check(k / 4095.0);
    diff.Check(k / 1000.0);
    diff.Check(-k / 3.0);
  }
  for (int n = 1; n <= 300; ++n) {
    for (int k = 0; k <= n; ++k) diff.Check(static_cast<double>(k) / n);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(JsonNumberFormat, EdgeValuesMatchOracle) {
  NumberDiff diff;
  // Both neighbours of every power of two, normal and subnormal.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double x : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      diff.Check(x);
      diff.Check(-x);
    }
  }
  // Subnormals, the smallest normal, and the largest finite double.
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double x :
       {tiny, 2 * tiny, 3 * tiny, 12345 * tiny, DBL_MIN / 3, DBL_MIN,
        std::nextafter(DBL_MIN, 0.0), DBL_MAX, std::nextafter(DBL_MAX, 0.0)}) {
    diff.Check(x);
    diff.Check(-x);
  }
  // The integer fast path's edge: 2^53 prints as digits, 2^53 + 2 (the next
  // double) goes through %g. 2^53 - 1 and 2^53 + 1 (which rounds to 2^53)
  // sit on either side.
  const double two53 = 9007199254740992.0;
  for (const double x : {two53 - 1, two53, two53 + 1, two53 + 2, two53 + 4}) {
    diff.Check(x);
    diff.Check(-x);
  }
  // %g switches to exponent form below 1e-4 and at 10^precision.
  for (const double x : {1e-5, 1e-4, 1.5e-5, 1.5e-4, 9.999e-5, 1e16, 1e17,
                         1.5e16, 1.5e17, 1e22, 1e23, 0.1, 0.3, 0.1 + 0.2}) {
    diff.Check(x);
    diff.Check(std::nextafter(x, 0.0));
    diff.Check(std::nextafter(x, HUGE_VAL));
    diff.Check(-x);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(JsonNumberFormat, SignedZeroAndNonFinite) {
  EXPECT_EQ(JsonValue(-0.0).Dump(), "-0");
  EXPECT_EQ(JsonValue(-0.0).Dump(), OracleNumber(-0.0));
  EXPECT_EQ(JsonValue(0.0).Dump(), "0");
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(), HUGE_VAL,
                         -HUGE_VAL}) {
    EXPECT_EQ(JsonValue(x).Dump(), "null");
    EXPECT_EQ(OracleNumber(x), "null");
  }
}

TEST(JsonNumberFormat, AppendPrimitivesMatchDump) {
  std::string out = "x";
  AppendJsonNumber(out, 0.25);
  AppendJsonString(out, std::string("a\"\\\x01\x1f\n", 6));
  EXPECT_EQ(out, "x0.25" + JsonValue(std::string("a\"\\\x01\x1f\n", 6)).Dump());
  EXPECT_EQ(JsonValue(std::string("\x01\x1f", 2)).Dump(), R"("\u0001\u001f")");
}

}  // namespace
}  // namespace infoflow
