// AST for display-filter expressions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "dissect/fields.hpp"

namespace streamlab::filter {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Operand of a comparison: a field reference or a literal number/address.
struct Operand {
  enum class Kind { kField, kLiteral } kind = Kind::kLiteral;
  std::string field;         // for kField
  std::int64_t literal = 0;  // for kLiteral
  std::string spelling;      // original text, for diagnostics / printing
  // for kField, set by DisplayFilter::compile: the registry fields the name
  // stands for (udp.port is udp.srcport and udp.dstport; none when unknown)
  std::array<FieldId, 2> ids{};
  std::uint8_t id_count = 0;
};

struct Expr {
  enum class Kind {
    kPresence,  // bare field/protocol name: true when present
    kCompare,   // lhs op rhs
    kLogic,     // lhs && rhs / lhs || rhs
    kNot,
  } kind = Kind::kPresence;

  // kPresence, and the layer and field bits that make it true (set by
  // DisplayFilter::compile)
  std::string field;
  std::uint8_t layer_mask = 0;
  std::uint64_t field_mask = 0;
  // kCompare
  Operand lhs, rhs;
  CompareOp cmp = CompareOp::kEq;
  // kLogic / kNot
  LogicOp logic = LogicOp::kAnd;
  ExprPtr left, right;  // kNot uses left only

  /// Canonical textual rendering (stable across parse -> print -> parse).
  std::string to_string() const;
};

}  // namespace streamlab::filter
