// The element-wise operations of batch computing actors (paper Table 1(b))
// plus the scalar-operand variants (Gain, Bias) and type conversion (Cast).
//
// These ops are shared by three consumers:
//   * the actor reference semantics (oracle execution),
//   * the batch dataflow graph of Algorithm 2,
//   * the SIMD instruction pattern graphs of the .isa tables.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "model/datatype.hpp"

namespace hcg {

enum class BatchOp : std::uint8_t {
  // binary, two array operands
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMin,
  kMax,
  kAbd,  // absolute difference |a-b|
  kAnd,
  kOr,
  kXor,
  // unary, one array operand
  kNot,
  kAbs,
  kRecp,  // reciprocal 1/x (float only)
  kSqrt,  // square root (float only)
  // unary with an immediate operand
  kShl,
  kShr,
  // unary with a scalar constant operand
  kMulC,  // Gain: x * c
  kAddC,  // Bias: x + c
  // type conversion
  kCast,
  // ternary element-wise select (Simulink Switch): ctrl > 0 ? a : b
  kSel,
};

/// Number of array operands the op consumes (1, 2 or 3).
int arity(BatchOp op);

/// True if the op carries an immediate parameter (shift amount).
bool has_immediate(BatchOp op);

/// True if the op carries a scalar constant operand (Gain / Bias).
bool has_scalar_operand(BatchOp op);

/// Name used in .isa pattern graphs and diagnostics ("Add", "Shr", "MulC").
std::string_view op_name(BatchOp op);

/// Inverse of op_name(); throws hcg::ParseError on unknown names.
BatchOp parse_batch_op(std::string_view name);

/// Maps a batch actor type string ("Add", "Gain", "Cast", ...) to its op.
/// Throws hcg::ModelError for non-batch actor types.
BatchOp batch_op_for_actor_type(std::string_view actor_type);

/// True if the op is defined for the element type (e.g. kShl needs an
/// integer, kSqrt needs a float, kAbs needs a signed type).
bool op_supports_type(BatchOp op, DataType type);

/// Whether a+b etc. is commutative — pattern matching uses this to try
/// operand swaps.
bool is_commutative(BatchOp op);

}  // namespace hcg
