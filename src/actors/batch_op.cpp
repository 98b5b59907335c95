#include "actors/batch_op.hpp"

#include "support/error.hpp"

namespace hcg {

int arity(BatchOp op) {
  if (op == BatchOp::kSel) return 3;
  switch (op) {
    case BatchOp::kAdd:
    case BatchOp::kSub:
    case BatchOp::kMul:
    case BatchOp::kDiv:
    case BatchOp::kMin:
    case BatchOp::kMax:
    case BatchOp::kAbd:
    case BatchOp::kAnd:
    case BatchOp::kOr:
    case BatchOp::kXor:
      return 2;
    default:
      return 1;
  }
}

bool has_immediate(BatchOp op) {
  return op == BatchOp::kShl || op == BatchOp::kShr;
}

bool has_scalar_operand(BatchOp op) {
  return op == BatchOp::kMulC || op == BatchOp::kAddC;
}

std::string_view op_name(BatchOp op) {
  switch (op) {
    case BatchOp::kAdd: return "Add";
    case BatchOp::kSub: return "Sub";
    case BatchOp::kMul: return "Mul";
    case BatchOp::kDiv: return "Div";
    case BatchOp::kMin: return "Min";
    case BatchOp::kMax: return "Max";
    case BatchOp::kAbd: return "Abd";
    case BatchOp::kAnd: return "And";
    case BatchOp::kOr: return "Or";
    case BatchOp::kXor: return "Xor";
    case BatchOp::kNot: return "Not";
    case BatchOp::kAbs: return "Abs";
    case BatchOp::kRecp: return "Recp";
    case BatchOp::kSqrt: return "Sqrt";
    case BatchOp::kShl: return "Shl";
    case BatchOp::kShr: return "Shr";
    case BatchOp::kMulC: return "MulC";
    case BatchOp::kAddC: return "AddC";
    case BatchOp::kCast: return "Cast";
    case BatchOp::kSel: return "Sel";
  }
  throw InternalError("op_name: bad BatchOp");
}

BatchOp parse_batch_op(std::string_view name) {
  static constexpr BatchOp kAll[] = {
      BatchOp::kAdd,  BatchOp::kSub,  BatchOp::kMul,  BatchOp::kDiv,
      BatchOp::kMin,  BatchOp::kMax,  BatchOp::kAbd,  BatchOp::kAnd,
      BatchOp::kOr,   BatchOp::kXor,  BatchOp::kNot,  BatchOp::kAbs,
      BatchOp::kRecp, BatchOp::kSqrt, BatchOp::kShl,  BatchOp::kShr,
      BatchOp::kMulC, BatchOp::kAddC, BatchOp::kCast, BatchOp::kSel};
  for (BatchOp op : kAll) {
    if (op_name(op) == name) return op;
  }
  throw ParseError("unknown batch op '" + std::string(name) + "'");
}

BatchOp batch_op_for_actor_type(std::string_view actor_type) {
  if (actor_type == "BitAnd") return BatchOp::kAnd;
  if (actor_type == "BitOr") return BatchOp::kOr;
  if (actor_type == "BitXor") return BatchOp::kXor;
  if (actor_type == "BitNot") return BatchOp::kNot;
  if (actor_type == "Gain") return BatchOp::kMulC;
  if (actor_type == "Bias") return BatchOp::kAddC;
  if (actor_type == "Switch") return BatchOp::kSel;
  try {
    return parse_batch_op(actor_type);
  } catch (const ParseError&) {
    throw ModelError("actor type '" + std::string(actor_type) +
                     "' is not a batch computing actor type");
  }
}

bool op_supports_type(BatchOp op, DataType type) {
  if (is_complex(type)) return false;
  switch (op) {
    case BatchOp::kAdd:
    case BatchOp::kSub:
    case BatchOp::kMul:
    case BatchOp::kMin:
    case BatchOp::kMax:
    case BatchOp::kMulC:
    case BatchOp::kAddC:
    case BatchOp::kCast:
    case BatchOp::kSel:
      return true;
    case BatchOp::kDiv:
    case BatchOp::kRecp:
    case BatchOp::kSqrt:
      return is_float(type);
    case BatchOp::kAbd:
      // max(a,b) - min(a,b) is well defined for unsigned types too.
      return !is_complex(type);
    case BatchOp::kAnd:
    case BatchOp::kOr:
    case BatchOp::kXor:
    case BatchOp::kNot:
    case BatchOp::kShl:
    case BatchOp::kShr:
      return is_integer(type);
    case BatchOp::kAbs:
      return is_float(type) || is_signed_int(type);
  }
  return false;
}

bool is_commutative(BatchOp op) {
  switch (op) {
    case BatchOp::kAdd:
    case BatchOp::kMul:
    case BatchOp::kMin:
    case BatchOp::kMax:
    case BatchOp::kAbd:
    case BatchOp::kAnd:
    case BatchOp::kOr:
    case BatchOp::kXor:
      return true;
    default:
      return false;
  }
}

}  // namespace hcg
