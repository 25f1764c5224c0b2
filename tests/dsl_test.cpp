// The shared text front end of the faults and jobs DSLs and the tools'
// flags (src/dsl/lexer.*): the tokenizer, its one error format and the
// range-checked readers.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dsl/lexer.hpp"

namespace {

TEST(DslLexer, CommentRunsFromTheFirstHash) {
  const dsl::Line line("faults", 3, "  at 1ms kill spine#x  # more");
  ASSERT_EQ(line.tokens().size(), 4u);
  EXPECT_EQ(line.tokens()[0].col, 3);
  EXPECT_EQ(line.tokens()[3].text, "spine");
  EXPECT_EQ(line.tokens()[3].col, 15);
  const auto lines = dsl::lines("jobs", "# only comments\n\n  \t\nx # y\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].number(), 4);
}

TEST(DslLexer, ErrorsNameTheLineColumnAndText) {
  const dsl::Line line("jobs", 7, "tenant 300 allreduce # big");
  try {
    line.integer(line.tokens()[1], 1, 255, "tenant id");
    FAIL() << "300 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "jobs DSL line 7 col 8: tenant id must be in 1..255, got 300 "
                 "in \"tenant 300 allreduce # big\"");
  }
  const auto kv = dsl::key_value(dsl::Token{"sms=96M", 20});
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->key, "sms");
  EXPECT_EQ(kv->value.text, "96M");
  EXPECT_EQ(kv->value.col, 24);
}

TEST(DslReaders, IntegersAreWholeAndInRange) {
  EXPECT_EQ(dsl::read_integer("18446744073709551615", 0, UINT64_MAX, "n"),
            UINT64_MAX);
  EXPECT_EQ(dsl::read_integer("010", 0, 99, "n"), 10u);
  for (const char* bad : {"18446744073709551616", "+3", "-1", "2.5", "1e3",
                          "0x10", "", " 1"}) {
    EXPECT_THROW(dsl::read_integer(bad, 0, UINT64_MAX, "n"),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(dsl::read_integer("256", 0, 255, "n"), std::invalid_argument);
  // Base 0 keeps strtoull's spellings for flag values: hex and octal.
  EXPECT_EQ(dsl::read_integer("0x9e3779b97f4a7c15", 0, UINT64_MAX, "n", 0),
            0x9e3779b97f4a7c15u);
  EXPECT_EQ(dsl::read_integer("010", 0, 99, "n", 0), 8u);
  EXPECT_THROW(dsl::read_integer("0x", 0, 99, "n", 0), std::invalid_argument);
}

TEST(DslReaders, FractionsAndByteCounts) {
  EXPECT_DOUBLE_EQ(dsl::read_fraction("0.25", "p"), 0.25);
  EXPECT_EQ(dsl::read_fraction("0", "p"), 0.0);
  EXPECT_THROW(dsl::read_fraction("0", "load", /*zero_ok=*/false),
               std::invalid_argument);
  for (const char* bad : {"1.0001", "-0.5", "nan", "inf", "x", ""}) {
    EXPECT_THROW(dsl::read_fraction(bad, "p"), std::invalid_argument) << bad;
  }
  EXPECT_EQ(dsl::read_bytes("96M", "sms"), 96ull << 20);
  EXPECT_EQ(dsl::read_bytes("3k", "sms"), 3072u);
  EXPECT_EQ(dsl::read_bytes("17179869183G", "sms"), 17179869183ull << 30);
  for (const char* bad : {"17179869184G", "18446744073709551616", "G", "1T"}) {
    EXPECT_THROW(dsl::read_bytes(bad, "sms"), std::invalid_argument) << bad;
  }
}

TEST(DslReaders, DurationsAreFiniteAndFitInt64Nanoseconds) {
  EXPECT_EQ(dsl::parse_duration("1.5us").ns(), 1500);
  EXPECT_EQ(dsl::parse_duration("0.25us").ns(), 250);
  EXPECT_EQ(dsl::parse_duration("9223372036854775807ns").ns(), INT64_MAX);
  EXPECT_EQ(dsl::parse_duration("9223372036s").ns(), 9223372036000000000);
  for (const char* bad : {"9223372036854775808ns", "9223372037s",
                          "99999999999s", "1e400ms", "nanms", "infs", "-1ms",
                          "5", "5parsec"}) {
    EXPECT_THROW(dsl::parse_duration(bad), std::invalid_argument) << bad;
  }
  // format_duration's spelling reads back exactly, to INT64_MAX.
  for (const std::int64_t ns : {std::int64_t(0), std::int64_t(1500),
                                std::int64_t(2'000'000), INT64_MAX}) {
    const std::string text = dsl::format_duration(sim::Duration(ns));
    EXPECT_EQ(dsl::parse_duration(text).ns(), ns) << text;
  }
  EXPECT_EQ(dsl::format_duration(sim::Duration::millis(2)), "2ms");
}

}  // namespace
