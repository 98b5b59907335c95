// SIMD instruction descriptions (paper §3.3).
//
// Each instruction carries a small *pattern graph* (an expression tree of
// batch ops) plus a C code template.  Architecture support is pure data: a
// VectorIsa is parsed from a text table (built-in or external .isa file),
// and porting HCG to a new architecture means writing a new table.
#pragma once

#include <cctype>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "actors/batch_op.hpp"
#include "graph/regions.hpp"
#include "model/datatype.hpp"

namespace hcg::isa {

/// One operand position in a pattern expression.
struct PatternArg {
  enum class Kind : std::uint8_t {
    kChild,       // nested op (index into Instruction::nodes)
    kInput,       // input slot I1..I9 (index = slot number, 1-based)
    kScalar,      // scalar-constant slot C
    kFixedImm,    // literal immediate that must equal `imm` (e.g. #1)
    kAnyImm,      // immediate slot IMM (bound at match time)
  };
  Kind kind = Kind::kInput;
  int index = 0;       // child node index or input slot number
  long long imm = 0;   // kFixedImm payload
};

/// One op node of the pattern tree.
struct PatternNode {
  BatchOp op = BatchOp::kAdd;
  std::vector<PatternArg> args;
};

/// A SIMD instruction: pattern + code template.
///
/// Code templates use bare placeholder tokens substituted at word
/// boundaries: I1..I9 (vector operands), O (result), C (scalar constant),
/// IMM (immediate), and — in scalable tables — G (the loop-governing
/// predicate).  Exactly the convention of the paper's example
///   Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = vaddq_s32(I1, I2);
struct Instruction {
  std::string name;
  DataType type = DataType::kInt32;  // element type of operands and result
  int lanes = 4;
  std::vector<PatternNode> nodes;  // nodes[0] is the root
  int input_slots = 0;             // number of distinct I slots
  std::string code;

  int node_count() const { return static_cast<int>(nodes.size()); }
  int depth() const;
  /// Sum of op costs — the "computational cost" ordering key.
  int cost() const;
  /// The op computed by the root node.
  BatchOp root_op() const { return nodes.front().op; }
};

/// Per-element-type structural code: vector C type, load/store/dup.
struct VType {
  DataType type = DataType::kInt32;
  int lanes = 4;
  std::string c_name;  // e.g. "int32x4_t"
};

struct IoCode {
  DataType type = DataType::kInt32;
  std::string code;  // load: uses P, O; store: uses P, V; dup: uses C, O
};

/// A type conversion instruction (vcvt family).
struct CvtCode {
  DataType from = DataType::kFloat32;
  DataType to = DataType::kInt32;
  std::string code;  // uses I, O
};

/// Predicate machinery for one element type of a *scalable* ISA
/// (docs/ISA_FORMAT.md).  A scalable table vectorizes a region as a single
/// vector-length-agnostic predicated loop instead of a fixed-lane vector
/// loop plus a scalar remainder; every element type it covers needs all
/// three pieces, assembled from the `ptype`, `whilelt` and `vl` directives.
struct PredCode {
  DataType type = DataType::kInt32;
  std::string c_name;   // predicate C type, e.g. "svbool_t"
  /// Builds the loop-governing predicate.  Tokens: O (predicate result),
  /// I (induction variable), N (trip count) — e.g.
  ///   O = svwhilelt_b32(I, N);
  std::string whilelt;
  /// Runtime lane-count expression the induction variable steps by, e.g.
  /// "svcntw()".  Must be loop-invariant.
  std::string vl_expr;
};

/// A complete architecture description.
class VectorIsa : public OpSupport {
 public:
  std::string name;           // "neon", "sse", "avx2", ...
  int width_bits = 128;       // vector register width
  std::string header;         // C header the generated code includes
  std::string compile_flags;  // extra flags the toolchain passes (may be "")
  bool simulated = false;     // NEON-sim: include shim instead of arm_neon.h
  /// Scalable (SVE-style) table: lane count is a runtime quantity, regions
  /// lower to one predicated loop covering [0, n) with no scalar remainder,
  /// and load/store/ins templates take a governing predicate token G.  The
  /// declared `width` is the *minimum* (simulator) register width; `lanes`
  /// per vtype describe that granule, which sizing heuristics may use but
  /// codegen never bakes into the loop structure.
  bool scalable = false;
  std::vector<VType> vtypes;
  std::vector<IoCode> loads;
  std::vector<IoCode> stores;
  std::vector<IoCode> dups;
  std::vector<CvtCode> cvts;
  std::vector<PredCode> preds;  // scalable only: predicate per element type
  std::vector<Instruction> instructions;

  // ---- queries ------------------------------------------------------------
  const VType* find_vtype(DataType type) const;
  const IoCode* find_load(DataType type) const;
  const IoCode* find_store(DataType type) const;
  const IoCode* find_dup(DataType type) const;
  const CvtCode* find_cvt(DataType from, DataType to) const;
  const PredCode* find_pred(DataType type) const;

  /// Lane count for an element type; 0 if the type is unsupported.  For
  /// scalable ISAs this is the minimum (granule) lane count — callers that
  /// plan loop structure must go through predicated() instead of assuming
  /// the count is exact.
  int lanes(DataType type) const;

  /// Capability query: this table implements `type` as a single predicated
  /// vector-length-agnostic loop (scalable + complete predicate machinery).
  bool predicated(DataType type) const;

  /// Region planning's view of this table (graph/regions.hpp): the width
  /// plus per-type lane and predication queries.  The returned object
  /// borrows `this` and must not outlive it.
  VectorCapability capability() const;

  /// Instructions whose root computes `op` on `type`, largest pattern first.
  std::vector<const Instruction*> candidates(BatchOp op, DataType type) const;

  /// Upper bounds used by Algorithm 2's subgraph extension.
  int max_pattern_nodes() const;
  int max_pattern_depth() const;

  /// OpSupport: a single-node instruction (or cvt) exists for the op/type.
  bool supports(BatchOp op, DataType in, DataType out) const override;

  /// Structural completeness check; throws hcg::ParseError naming the gap
  /// (e.g. an instruction whose element type has no vtype/load/store).
  void validate() const;
};

/// Formats a scalar constant as a C literal of the given element type.
std::string scalar_literal(DataType type, double value);

/// Word-boundary placeholder substitution for code templates: each whole
/// word of `code` that names a token becomes that token's value, and the
/// rest is appended as it stands.  `Value` is std::string, or any type that
/// appends string_views and values with `+=` (cgir::Pieces, so the values
/// stay references).
template <class Value = std::string>
Value substitute_tokens(
    std::string_view code,
    const std::vector<std::pair<std::string, Value>>& replacements) {
  auto is_word = [](unsigned char c) { return std::isalnum(c) || c == '_'; };
  Value out;
  std::size_t i = 0;
  while (i < code.size()) {
    const std::size_t start = i;
    const bool word = is_word(code[i]);
    while (i < code.size() && is_word(code[i]) == word) ++i;
    const std::string_view run = code.substr(start, i - start);
    auto it = replacements.begin();
    while (it != replacements.end() && !(word && it->first == run)) ++it;
    if (it != replacements.end()) {
      out += it->second;
    } else {
      out += run;
    }
  }
  return out;
}

}  // namespace hcg::isa
