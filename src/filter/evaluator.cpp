#include "filter/evaluator.hpp"

#include "filter/parser.hpp"

namespace streamlab::filter {
namespace {

/// Names that stand for two registry fields: `udp.port` / `tcp.port` /
/// `ip.addr` match either direction, like Wireshark.
struct Alias {
  std::string_view name;
  std::array<FieldId, 2> ids;
};
constexpr Alias kAliases[] = {
    {"udp.port", {FieldId::kUdpSrcPort, FieldId::kUdpDstPort}},
    {"tcp.port", {FieldId::kTcpSrcPort, FieldId::kTcpDstPort}},
    {"ip.addr", {FieldId::kIpSrc, FieldId::kIpDst}},
};

/// Writes the registry fields a name stands for into `ids` and returns how
/// many there are; a name outside the registry stands for none.
std::uint8_t expand_field(std::string_view name, std::array<FieldId, 2>& ids) {
  for (const Alias& alias : kAliases) {
    if (alias.name == name) {
      ids = alias.ids;
      return 2;
    }
  }
  if (const auto id = find_field(name)) {
    ids[0] = *id;
    return 1;
  }
  return 0;
}

/// Resolves every name in the tree to registry ids and layer bits, once.
void resolve_names(Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kPresence: {
      if (const auto layer = find_layer(e.field))
        e.layer_mask = static_cast<std::uint8_t>(1u << static_cast<unsigned>(*layer));
      std::array<FieldId, 2> ids{};
      const std::uint8_t count = expand_field(e.field, ids);
      for (std::uint8_t i = 0; i < count; ++i)
        e.field_mask |= std::uint64_t{1} << index_of(ids[i]);
      break;
    }
    case Expr::Kind::kCompare:
      for (Operand* op : {&e.lhs, &e.rhs})
        if (op->kind == Operand::Kind::kField)
          op->id_count = expand_field(op->field, op->ids);
      break;
    case Expr::Kind::kLogic:
      resolve_names(*e.right);
      [[fallthrough]];
    case Expr::Kind::kNot:
      resolve_names(*e.left);
      break;
  }
}

bool apply_compare(CompareOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return a >= b;
  }
  return false;
}

/// The values an operand takes in a packet: a literal, or each of its fields
/// the packet has.
struct Values {
  std::array<std::int64_t, 2> v{};
  std::uint8_t n = 0;
};

Values values_of(const Operand& op, const DissectedPacket& pkt) {
  Values out;
  if (op.kind == Operand::Kind::kLiteral) {
    out.v[out.n++] = op.literal;
    return out;
  }
  for (std::uint8_t i = 0; i < op.id_count; ++i)
    if (pkt.has(op.ids[i])) out.v[out.n++] = pkt.number(op.ids[i]);
  return out;
}

bool eval(const Expr& e, const DissectedPacket& pkt) {
  switch (e.kind) {
    case Expr::Kind::kPresence:
      return (pkt.layer_mask() & e.layer_mask) != 0 ||
             (pkt.field_mask() & e.field_mask) != 0;
    case Expr::Kind::kCompare: {
      // Wireshark semantics: a comparison on a multi-valued field is true
      // when ANY combination satisfies it; false when a field is absent.
      const Values lhs = values_of(e.lhs, pkt);
      const Values rhs = values_of(e.rhs, pkt);
      for (std::uint8_t a = 0; a < lhs.n; ++a)
        for (std::uint8_t b = 0; b < rhs.n; ++b)
          if (apply_compare(e.cmp, lhs.v[a], rhs.v[b])) return true;
      return false;
    }
    case Expr::Kind::kLogic:
      if (e.logic == LogicOp::kAnd) return eval(*e.left, pkt) && eval(*e.right, pkt);
      return eval(*e.left, pkt) || eval(*e.right, pkt);
    case Expr::Kind::kNot:
      return !eval(*e.left, pkt);
  }
  return false;
}

}  // namespace

Expected<DisplayFilter> DisplayFilter::compile(std::string_view expression) {
  auto ast = parse(expression);
  if (!ast) return Unexpected(ast.error());
  resolve_names(**ast);
  return DisplayFilter(std::string(expression), std::move(*ast));
}

bool DisplayFilter::matches(const DissectedPacket& packet) const {
  return root_ && eval(*root_, packet);
}

std::vector<const DissectedPacket*> DisplayFilter::select(
    const std::vector<DissectedPacket>& packets) const {
  std::vector<const DissectedPacket*> out;
  out.reserve(packets.size());
  for (const auto& p : packets)
    if (matches(p)) out.push_back(&p);
  return out;
}

}  // namespace streamlab::filter
