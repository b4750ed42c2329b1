#include "filter/lexer.hpp"

#include <gtest/gtest.h>

namespace streamlab::filter {
namespace {

TEST(Lexer, EmptyInputYieldsEnd) {
  const auto tokens = tokenize("");
  ASSERT_TRUE(tokens.has_value());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kEnd);
}

TEST(Lexer, IdentifiersWithDots) {
  const auto tokens = tokenize("ip.frag_offset udp.dstport");
  ASSERT_TRUE(tokens.has_value());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "ip.frag_offset");
  EXPECT_EQ((*tokens)[1].text, "udp.dstport");
}

TEST(Lexer, NumbersDecimalAndHex) {
  const auto tokens = tokenize("1514 0x5dc 0");
  ASSERT_TRUE(tokens.has_value());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[0].number, 1514);
  EXPECT_EQ((*tokens)[1].number, 0x5dc);
  EXPECT_EQ((*tokens)[2].number, 0);
}

TEST(Lexer, Ipv4LiteralRecognised) {
  const auto tokens = tokenize("192.168.100.10");
  ASSERT_TRUE(tokens.has_value());
  ASSERT_EQ(tokens->size(), 2u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIpv4);
  EXPECT_EQ((*tokens)[0].number, 0xC0A8640A);
}

TEST(Lexer, AllOperators) {
  const auto tokens = tokenize("== != < <= > >= && || ! ( )");
  ASSERT_TRUE(tokens.has_value());
  const TokenKind expected[] = {TokenKind::kEq, TokenKind::kNe, TokenKind::kLt,
                                TokenKind::kLe, TokenKind::kGt, TokenKind::kGe,
                                TokenKind::kAnd, TokenKind::kOr, TokenKind::kNot,
                                TokenKind::kLParen, TokenKind::kRParen, TokenKind::kEnd};
  ASSERT_EQ(tokens->size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ((*tokens)[i].kind, expected[i]) << i;
}

TEST(Lexer, WordOperators) {
  const auto tokens = tokenize("a and b or not c eq 1 ne 2");
  ASSERT_TRUE(tokens.has_value());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kAnd);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kOr);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kNot);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kEq);
  EXPECT_EQ((*tokens)[8].kind, TokenKind::kNe);
}

TEST(Lexer, NotVersusNotEquals) {
  const auto tokens = tokenize("!x != y");
  ASSERT_TRUE(tokens.has_value());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kNot);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNe);
}

TEST(Lexer, PositionsReported) {
  const auto tokens = tokenize("ab == 12");
  ASSERT_TRUE(tokens.has_value());
  EXPECT_EQ((*tokens)[0].position, 0u);
  EXPECT_EQ((*tokens)[1].position, 3u);
  EXPECT_EQ((*tokens)[2].position, 6u);
}

TEST(Lexer, RejectsSingleAmpersandPipeEquals) {
  EXPECT_FALSE(tokenize("a & b").has_value());
  EXPECT_FALSE(tokenize("a | b").has_value());
  EXPECT_FALSE(tokenize("a = b").has_value());
}

TEST(Lexer, RejectsUnknownCharacter) {
  const auto r = tokenize("a @ b");
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("'@'"), std::string::npos);
  EXPECT_NE(r.error().find("offset 2"), std::string::npos);
}

TEST(Lexer, RejectsMalformedNumber) {
  EXPECT_FALSE(tokenize("12ab34.cd").has_value());
}

// A malformed IPv4 literal is a lexer error that names the literal's offset,
// never an address built from an out-of-range, missing or overflowing octet.
TEST(Lexer, RejectsMalformedIpv4Literals) {
  const struct {
    const char* input;
    std::size_t offset;
  } cases[] = {
      {"ip.src == 192.168.96.1034", 10},  // octet past 255
      {"ip.src == 192.168.100.", 10},     // missing last octet
      {"ip.src == 1..2.3", 10},           // empty octet
      {"1.2.3.99999999999999999999", 0},  // octet overflows 64 bits
      {"ip.dst == 10.0.0.2 || ip.src == 256.0.0.1", 32},
  };
  for (const auto& c : cases) {
    const auto tokens = tokenize(c.input);
    ASSERT_FALSE(tokens.has_value()) << c.input;
    EXPECT_NE(tokens.error().find("at offset " + std::to_string(c.offset)), std::string::npos)
        << c.input << ": " << tokens.error();
  }
}

TEST(Lexer, WhitespaceInsensitive) {
  const auto a = tokenize("a==1&&b");
  const auto b = tokenize("  a  ==  1  &&  b  ");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) EXPECT_EQ((*a)[i].kind, (*b)[i].kind);
}

}  // namespace
}  // namespace streamlab::filter
