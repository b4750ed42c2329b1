// Display-filter evaluation over dissected packets.
#pragma once

#include <string>
#include <vector>

#include "dissect/dissector.hpp"
#include "filter/ast.hpp"
#include "util/expected.hpp"

namespace streamlab::filter {

/// A compiled display filter. Compile once, match many packets: compiling
/// resolves every field and layer name to its registry id, so matching reads
/// packet slots and masks with no name lookup.
class DisplayFilter {
 public:
  /// Compiles an expression; reports lexer/parser errors with positions.
  static Expected<DisplayFilter> compile(std::string_view expression);

  bool matches(const DissectedPacket& packet) const;

  /// Applies to a whole dissected trace.
  std::vector<const DissectedPacket*> select(
      const std::vector<DissectedPacket>& packets) const;

  const std::string& expression() const { return expression_; }

 private:
  DisplayFilter(std::string expression, ExprPtr root)
      : expression_(std::move(expression)), root_(std::move(root)) {}

  std::string expression_;
  // Shared so DisplayFilter stays copyable (the AST is immutable after compile).
  std::shared_ptr<const Expr> root_;
};

}  // namespace streamlab::filter
