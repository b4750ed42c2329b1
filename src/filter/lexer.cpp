#include "filter/lexer.hpp"

#include <cctype>
#include <charconv>

#include "net/address.hpp"

namespace streamlab::filter {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_';
}

}  // namespace

Expected<std::vector<Token>> tokenize(std::string_view input) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const auto push = [&](TokenKind kind, std::size_t pos, std::string text = {},
                        std::int64_t num = 0) {
    tokens.push_back(Token{kind, std::move(text), num, pos});
  };

  while (i < input.size()) {
    const char c = input[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    switch (c) {
      case '(': push(TokenKind::kLParen, start); ++i; continue;
      case ')': push(TokenKind::kRParen, start); ++i; continue;
      case '!':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenKind::kNe, start);
          i += 2;
        } else {
          push(TokenKind::kNot, start);
          ++i;
        }
        continue;
      case '=':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenKind::kEq, start);
          i += 2;
          continue;
        }
        return Unexpected("expected '==' at offset " + std::to_string(start));
      case '<':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenKind::kLe, start);
          i += 2;
        } else {
          push(TokenKind::kLt, start);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenKind::kGe, start);
          i += 2;
        } else {
          push(TokenKind::kGt, start);
          ++i;
        }
        continue;
      case '&':
        if (i + 1 < input.size() && input[i + 1] == '&') {
          push(TokenKind::kAnd, start);
          i += 2;
          continue;
        }
        return Unexpected("expected '&&' at offset " + std::to_string(start));
      case '|':
        if (i + 1 < input.size() && input[i + 1] == '|') {
          push(TokenKind::kOr, start);
          i += 2;
          continue;
        }
        return Unexpected("expected '||' at offset " + std::to_string(start));
      default:
        break;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t end = i;
      while (end < input.size() && is_ident_char(input[end])) ++end;
      const std::string_view word = input.substr(i, end - i);
      // A number holds no dot, so a dotted word is an IPv4 literal or an error.
      if (word.find('.') != std::string_view::npos) {
        const auto addr = Ipv4Address::parse(word);
        if (!addr)
          return Unexpected("bad IPv4 literal '" + std::string(word) + "' at offset " +
                            std::to_string(start) + ": " + addr.error());
        push(TokenKind::kIpv4, start, std::string(word), addr->value());
        i = end;
        continue;
      }
      std::int64_t value = 0;
      int base = 10;
      std::string_view digits = word;
      if (word.size() > 2 && word[0] == '0' && (word[1] == 'x' || word[1] == 'X')) {
        base = 16;
        digits = word.substr(2);
      }
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value, base);
      if (ec != std::errc{} || ptr != digits.data() + digits.size())
        return Unexpected("bad number '" + std::string(word) + "' at offset " +
                          std::to_string(start));
      push(TokenKind::kNumber, start, std::string(word), value);
      i = end;
      continue;
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = i;
      while (end < input.size() && is_ident_char(input[end])) ++end;
      const std::string word(input.substr(i, end - i));
      if (word == "and")
        push(TokenKind::kAnd, start);
      else if (word == "or")
        push(TokenKind::kOr, start);
      else if (word == "not")
        push(TokenKind::kNot, start);
      else if (word == "eq")
        push(TokenKind::kEq, start);
      else if (word == "ne")
        push(TokenKind::kNe, start);
      else
        push(TokenKind::kIdentifier, start, word);
      i = end;
      continue;
    }

    return Unexpected("unexpected character '" + std::string(1, c) + "' at offset " +
                      std::to_string(start));
  }
  push(TokenKind::kEnd, input.size());
  return tokens;
}

std::string to_string(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kIpv4: return "IPv4 literal";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kAnd: return "'&&'";
    case TokenKind::kOr: return "'||'";
    case TokenKind::kNot: return "'!'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kEnd: return "end of input";
  }
  return "?";
}

}  // namespace streamlab::filter
