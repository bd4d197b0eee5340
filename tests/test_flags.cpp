// CLI flag-value validation: every malformed value must throw a ParseError
// that names the flag (the CLI turns that into a clear message and a
// non-zero exit) instead of leaking a bare std::stoul/std::stod exception
// or silently accepting garbage.
#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "util/flags.hpp"

namespace moteur {
namespace {

template <typename Fn>
std::string parse_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ParseError";
  return {};
}

TEST(Flags, PositiveCountAcceptsPlainIntegers) {
  EXPECT_EQ(parse_positive_count("1", "--retries"), 1u);
  EXPECT_EQ(parse_positive_count("64", "--shards"), 64u);
  EXPECT_EQ(parse_positive_count(" 7 ", "--runs"), 7u);  // surrounding ws trimmed
}

TEST(Flags, PositiveCountRejectsZeroNegativeAndGarbage) {
  for (const char* bad : {"0", "-1", "+3", "3.5", "abc", "", "12x"}) {
    const std::string what =
        parse_error_of([&] { parse_positive_count(bad, "--retries"); });
    EXPECT_NE(what.find("--retries"), std::string::npos) << bad;
    EXPECT_NE(what.find(bad), std::string::npos) << bad;
  }
}

TEST(Flags, ProbabilityAcceptsTheClosedUnitInterval) {
  EXPECT_DOUBLE_EQ(parse_probability("0", "--se-loss"), 0.0);
  EXPECT_DOUBLE_EQ(parse_probability("0.25", "--se-loss"), 0.25);
  EXPECT_DOUBLE_EQ(parse_probability("1", "--se-loss"), 1.0);
}

TEST(Flags, ProbabilityRejectsOutOfRangeAndGarbage) {
  for (const char* bad : {"-0.1", "1.5", "nope", "", "0.5x", "nan", "inf", "-inf"}) {
    const std::string what =
        parse_error_of([&] { parse_probability(bad, "--se-corrupt"); });
    EXPECT_NE(what.find("--se-corrupt"), std::string::npos) << bad;
  }
}

TEST(Flags, SecondsParsersEnforceTheirBounds) {
  EXPECT_DOUBLE_EQ(parse_positive_seconds("2.5", "--telemetry-interval"), 2.5);
  EXPECT_DOUBLE_EQ(parse_nonnegative_seconds("0", "--start"), 0.0);
  for (const char* bad : {"0", "-3", "x", "", "nan", "inf", "-inf"}) {
    const std::string what = parse_error_of(
        [&] { parse_positive_seconds(bad, "--telemetry-interval"); });
    EXPECT_NE(what.find("--telemetry-interval"), std::string::npos) << bad;
  }
  for (const char* bad : {"-1", "y", "", "nan", "inf", "-inf"}) {
    EXPECT_THROW(parse_nonnegative_seconds(bad, "--start"), ParseError) << bad;
  }
}

TEST(Flags, RealsAndFractionsRejectNonFiniteAndOutOfRange) {
  EXPECT_DOUBLE_EQ(parse_nonnegative_real("4e-7", "--retry-timeout"), 4e-7);
  EXPECT_DOUBLE_EQ(parse_fraction("1", "--overhead-fraction"), 1.0);
  for (const char* bad : {"-1", "z", "", "nan", "inf", "-inf", "NaN", "INFINITY"}) {
    const std::string what =
        parse_error_of([&] { parse_nonnegative_real(bad, "--retry-timeout"); });
    EXPECT_NE(what.find("--retry-timeout"), std::string::npos) << bad;
    EXPECT_NE(what.find(bad), std::string::npos) << bad;
  }
  for (const char* bad : {"0", "1.5", "-0.5", "nan", "inf", "-inf"}) {
    EXPECT_THROW(parse_fraction(bad, "--overhead-fraction"), ParseError) << bad;
  }
}

TEST(Flags, BooleansAreTrueOrFalse) {
  EXPECT_TRUE(parse_bool("true", "cache"));
  EXPECT_TRUE(parse_bool("1", "cache"));
  EXPECT_FALSE(parse_bool("false", "cache"));
  EXPECT_FALSE(parse_bool(" 0 ", "cache"));
  for (const char* bad : {"yes", "TRUE", "", "2"}) {
    const std::string what = parse_error_of([&] { parse_bool(bad, "cache"); });
    EXPECT_NE(what.find("cache"), std::string::npos) << bad;
  }
}

TEST(Flags, SeOutagesParseSingleAndMultipleWindows) {
  const auto one = parse_se_outages("se-north:3600:1800", "--se-outage");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].storage_element, "se-north");
  EXPECT_DOUBLE_EQ(one[0].start_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(one[0].duration_seconds, 1800.0);

  const auto two = parse_se_outages("se0:0:600,se-b:100.5:1", "--se-outage");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].storage_element, "se0");
  EXPECT_DOUBLE_EQ(two[0].start_seconds, 0.0);
  EXPECT_EQ(two[1].storage_element, "se-b");
  EXPECT_DOUBLE_EQ(two[1].start_seconds, 100.5);
}

TEST(Flags, SeOutagesRejectMalformedSpecs) {
  for (const char* bad : {"", "se0", "se0:1", "se0:1:2:3", ":1:2", "se0:-1:2",
                          "se0:0:0", "se0:0:-5", "se0:x:2", "se0:0:y",
                          "se0:0:600,,se1:0:600"}) {
    const std::string what =
        parse_error_of([&] { parse_se_outages(bad, "--se-outage"); });
    EXPECT_NE(what.find("--se-outage"), std::string::npos) << bad;
  }
}

}  // namespace
}  // namespace moteur
