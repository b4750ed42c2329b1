#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace streamlab {
namespace {

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(3.14159, 0), "3");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, AsciiBarProportionalAndClamped) {
  EXPECT_EQ(ascii_bar(0.0, 10), "..........");
  EXPECT_EQ(ascii_bar(0.5, 10), "#####.....");
  EXPECT_EQ(ascii_bar(1.0, 10), "##########");
  EXPECT_EQ(ascii_bar(2.0, 10), "##########");   // clamped
  EXPECT_EQ(ascii_bar(-1.0, 10), "..........");  // clamped
}

}  // namespace
}  // namespace streamlab
