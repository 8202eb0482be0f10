#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace {

using namespace elsa::util;

TEST(Strings, SplitDropsEmpty) {
  const auto t = split("  a  bb   c ", " ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split("", " ").empty());
  EXPECT_TRUE(split("   ", " ").empty());
}

TEST(Strings, SplitMultipleDelims) {
  const auto t = split("a\tb c", " \t");
  ASSERT_EQ(t.size(), 3u);
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"solo"}, "-"), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("FAILURE ciodb", "FAILURE"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
}

TEST(Strings, LooksNumericPositives) {
  EXPECT_TRUE(looks_numeric("12345"));
  EXPECT_TRUE(looks_numeric("0xdeadbeef"));
  EXPECT_TRUE(looks_numeric("10.0.3.77"));
  EXPECT_TRUE(looks_numeric("3:136"));
  EXPECT_TRUE(looks_numeric("-42"));
}

TEST(Strings, LooksNumericNegatives) {
  EXPECT_FALSE(looks_numeric("kernel"));
  EXPECT_FALSE(looks_numeric(""));
  EXPECT_FALSE(looks_numeric("restarted."));
  EXPECT_FALSE(looks_numeric("r00-m0"));  // hmm: r,m letters vs digits
}

// looks_numeric classifies bytes by ASCII range. Pin it against the
// <cctype> classification of the C locale (the program never calls
// setlocale) for every byte value, once and twice, alone or after a
// digit prefix or a hex prefix.
TEST(Strings, LooksNumericAgreesWithCtypeOnEveryByte) {
  const auto reference = [](std::string_view token) {
    if (token.empty()) return false;
    const bool hex = starts_with(token, "0x") || starts_with(token, "0X");
    if (hex) token.remove_prefix(2);
    if (token.empty()) return false;
    std::size_t digits = 0, hex_letters = 0, others = 0;
    for (const unsigned char c : token) {
      if (std::isdigit(c) || c == '.' || c == ':' || c == '-')
        ++digits;
      else if (std::isxdigit(c))
        ++hex_letters;
      else
        ++others;
    }
    if (hex) return others == 0;
    return digits != 0 && others * 3 <= digits + hex_letters;
  };
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (std::string token : {"", "1", "12", "0x", "0X", "0x1"}) {
      token.push_back(c);
      EXPECT_EQ(looks_numeric(token), reference(token)) << "byte " << b;
      token.push_back(c);
      EXPECT_EQ(looks_numeric(token), reference(token)) << "byte " << b;
    }
  }
}

TEST(Strings, HumanDuration) {
  EXPECT_EQ(human_duration(5.0), "5s");
  EXPECT_EQ(human_duration(90.0), "1.5m");
  EXPECT_EQ(human_duration(5400.0), "1.5h");
}

}  // namespace
