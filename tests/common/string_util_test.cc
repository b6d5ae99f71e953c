#include "common/string_util.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace mars {
namespace {

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.33114, 4), "0.3311");
  EXPECT_EQ(FormatFixed(1.0, 2), "1.00");
  EXPECT_EQ(FormatFixed(-2.5, 1), "-2.5");
}

TEST(StringUtilTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.2753), "+27.53%");
  EXPECT_EQ(FormatPercent(-0.05), "-5.00%");
  EXPECT_EQ(FormatPercent(0.0), "+0.00%");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("user,item", "user"));
  EXPECT_FALSE(StartsWith("us", "user"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, GetEnvOrDefault) {
  unsetenv("MARS_TEST_ENV_VAR");
  EXPECT_EQ(GetEnvOr("MARS_TEST_ENV_VAR", "fallback"), "fallback");
  setenv("MARS_TEST_ENV_VAR", "value", 1);
  EXPECT_EQ(GetEnvOr("MARS_TEST_ENV_VAR", "fallback"), "value");
  unsetenv("MARS_TEST_ENV_VAR");
}

TEST(StringUtilTest, EnvFlagSet) {
  unsetenv("MARS_TEST_FLAG");
  EXPECT_FALSE(EnvFlagSet("MARS_TEST_FLAG"));
  setenv("MARS_TEST_FLAG", "1", 1);
  EXPECT_TRUE(EnvFlagSet("MARS_TEST_FLAG"));
  setenv("MARS_TEST_FLAG", "true", 1);
  EXPECT_TRUE(EnvFlagSet("MARS_TEST_FLAG"));
  setenv("MARS_TEST_FLAG", "0", 1);
  EXPECT_FALSE(EnvFlagSet("MARS_TEST_FLAG"));
  unsetenv("MARS_TEST_FLAG");
}

}  // namespace
}  // namespace mars
