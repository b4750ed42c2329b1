// Property/fuzz tests for the filter language: random well-formed
// expressions survive the parse -> print -> parse fixpoint; arbitrary byte
// soup never crashes the pipeline.
#include <gtest/gtest.h>

#include "filter/evaluator.hpp"
#include "filter/parser.hpp"
#include "util/rng.hpp"

namespace streamlab::filter {
namespace {

/// Generates a random well-formed filter expression.
class ExprGen {
 public:
  explicit ExprGen(Rng& rng) : rng_(rng) {}

  std::string expr(int depth = 0) {
    const double pick = rng_.uniform();
    if (depth > 3 || pick < 0.35) return comparison();
    if (pick < 0.50) return field();
    if (pick < 0.65) return "!" + wrap(expr(depth + 1));
    const std::string op = rng_.chance(0.5) ? " && " : " || ";
    return wrap(expr(depth + 1)) + op + wrap(expr(depth + 1));
  }

 private:
  std::string wrap(const std::string& e) { return "(" + e + ")"; }

  std::string field() {
    static const char* kFields[] = {"ip.src",       "ip.dst",      "ip.frag_offset",
                                    "ip.ttl",       "udp.srcport", "udp.dstport",
                                    "frame.len",    "udp",         "tcp.seq",
                                    "icmp.type",    "ip.fragment", "eth"};
    return kFields[rng_.uniform_int(0, std::size(kFields) - 1)];
  }

  std::string comparison() {
    static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    const std::string op = kOps[rng_.uniform_int(0, 5)];
    std::string rhs;
    if (rng_.chance(0.2)) {
      rhs = std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255)) + "." +
            std::to_string(rng_.uniform_int(0, 255));
    } else if (rng_.chance(0.2)) {
      rhs = field();
    } else {
      rhs = std::to_string(rng_.uniform_int(0, 65535));
    }
    return field() + " " + op + " " + rhs;
  }

  Rng& rng_;
};

TEST(FilterFuzz, ParsePrintParseFixpoint) {
  Rng rng(2024);
  ExprGen gen(rng);
  for (int i = 0; i < 500; ++i) {
    const std::string source = gen.expr();
    const auto first = parse(source);
    ASSERT_TRUE(first.has_value()) << source << ": " << first.error();
    const std::string printed = (*first)->to_string();
    const auto second = parse(printed);
    ASSERT_TRUE(second.has_value()) << printed;
    EXPECT_EQ((*second)->to_string(), printed) << source;
  }
}

TEST(FilterFuzz, GeneratedFiltersCompileAndEvaluate) {
  Rng rng(77);
  ExprGen gen(rng);
  // A minimal dissected packet to evaluate against.
  DissectedPacket pkt;
  pkt.add_layer(Layer::kEth);
  pkt.add_layer(Layer::kIp);
  pkt.add_layer(Layer::kUdp);
  pkt.set(FieldId::kIpSrc, 0x0A000002);
  pkt.set(FieldId::kIpFragOffset, 0);
  pkt.set(FieldId::kUdpSrcPort, 7070);
  pkt.set(FieldId::kFrameLen, 542);

  for (int i = 0; i < 500; ++i) {
    const auto f = DisplayFilter::compile(gen.expr());
    ASSERT_TRUE(f.has_value());
    (void)f->matches(pkt);  // must not crash, result is arbitrary
  }
}

TEST(FilterFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const auto len = rng.uniform_int(0, 60);
    for (int c = 0; c < len; ++c)
      soup.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    (void)parse(soup);  // either Expected value or error; never UB
  }
}

TEST(FilterFuzz, DeeplyNestedParensParse) {
  std::string deep = "udp";
  for (int i = 0; i < 200; ++i) deep = "(" + deep + ")";
  const auto e = parse(deep);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ((*e)->to_string(), "udp");
}

}  // namespace
}  // namespace streamlab::filter
