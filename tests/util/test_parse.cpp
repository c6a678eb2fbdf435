#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace sysgo::util {
namespace {

TEST(Parse, IntAcceptsPlainIntegers) {
  EXPECT_EQ(parse_int("0", "x"), 0);
  EXPECT_EQ(parse_int("-17", "x"), -17);
  EXPECT_EQ(parse_int("2147483647", "x"), std::numeric_limits<int>::max());
  EXPECT_EQ(parse_i64("9223372036854775807", "x"),
            std::numeric_limits<long long>::max());
  EXPECT_EQ(parse_u64("18446744073709551615", "x"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, IntRejectsGarbageAndNamesTheSource) {
  // std::atoi would return 0 for all of these; std::stoi would accept "4x".
  for (const char* bad : {"", "x", "4x", "1.5", " 5", "5 ", "--3", "0x10"}) {
    try {
      (void)parse_int(bad, "--threads");
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
    }
  }
}

TEST(Parse, IntRejectsOverflow) {
  EXPECT_THROW((void)parse_int("2147483648", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_int("-2147483649", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_i64("9223372036854775808", "x"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_u64("18446744073709551616", "x"),
               std::invalid_argument);
}

TEST(Parse, U64RejectsNegative) {
  try {
    (void)parse_u64("-1", "--seed");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos);
  }
}

TEST(Parse, DoubleAcceptsUsualFormsRejectsTrailingGarbage) {
  EXPECT_DOUBLE_EQ(parse_double("1.5", "x"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3", "x"), -2000.0);
  EXPECT_DOUBLE_EQ(parse_double("0.25", "x"), 0.25);
  for (const char* bad : {"", "x", "1.5x", "1.2.3", " 1", "nan", "inf",
                          "-inf", "NaN", "infinity"})
    EXPECT_THROW((void)parse_double(bad, "x"), std::invalid_argument) << bad;
  try {
    (void)parse_double("nan", "--threshold");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threshold"), std::string::npos)
        << e.what();
  }
  // The record-codec form keeps the infinities a sweep record can hold.
  EXPECT_EQ(parse_any_double("-inf", "x"),
            -std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)parse_any_double("1.5x", "x"), std::invalid_argument);
}

TEST(Parse, RangedParseReportsTheRange) {
  EXPECT_EQ(parse_int_in("5", "--threads", {1, 256}), 5);
  try {
    (void)parse_int_in("0", "--threads", {1, 256});
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 256]"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_int_in("257", "--threads", {1, 256}),
               std::invalid_argument);
}

TEST(Parse, ValidatorTableRejectsZeroNegativeAndGarbage) {
  // The single source of truth for CLI numeric-flag validation: every
  // count-like flag rejects zero/negative values at parse time.
  const char* kPositiveFlags[] = {"--threads", "--round-threads",
                                  "--solver-threads", "--restarts",
                                  "--max-rounds", "--max-states"};
  for (const char* flag : kPositiveFlags) {
    const auto range = cli_flag_range(flag);
    ASSERT_TRUE(range.has_value()) << flag;
    EXPECT_GE(range->lo, 1) << flag;
    EXPECT_THROW((void)parse_i64_in("0", flag, *range), std::invalid_argument)
        << flag;
    EXPECT_THROW((void)parse_i64_in("-3", flag, *range), std::invalid_argument)
        << flag;
    EXPECT_THROW((void)parse_i64_in("junk", flag, *range),
                 std::invalid_argument)
        << flag;
    EXPECT_EQ(parse_i64_in(std::to_string(range->lo), flag, *range), range->lo)
        << flag;
  }
  // Zero-admitting flags still reject negatives and garbage.
  const char* kNonNegativeFlags[] = {"--synth-threads", "--iterations"};
  for (const char* flag : kNonNegativeFlags) {
    const auto range = cli_flag_range(flag);
    ASSERT_TRUE(range.has_value()) << flag;
    EXPECT_EQ(range->lo, 0) << flag;
    EXPECT_THROW((void)parse_i64_in("-1", flag, *range), std::invalid_argument)
        << flag;
    EXPECT_EQ(parse_i64_in("0", flag, *range), 0) << flag;
  }
  EXPECT_FALSE(cli_flag_range("--families").has_value());
  EXPECT_FALSE(cli_flag_range("--not-a-flag").has_value());
}

TEST(Parse, ShardSpecAcceptsOneBasedPartitions) {
  EXPECT_EQ(parse_shard("1/1"), (ShardSpec{1, 1}));
  EXPECT_EQ(parse_shard("1/4"), (ShardSpec{1, 4}));
  EXPECT_EQ(parse_shard("4/4"), (ShardSpec{4, 4}));
}

TEST(Parse, ShardSpecRejectsZeroNegativeAndMalformed) {
  for (const char* bad :
       {"0/2", "3/2", "-1/2", "1/0", "1/-2", "2", "a/b", "1/2/3", "", "/2"})
    EXPECT_THROW((void)parse_shard(bad), std::invalid_argument) << bad;
}

}  // namespace
}  // namespace sysgo::util
