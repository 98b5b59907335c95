// Algorithm 2: code synthesis for batch computing actors.
//
// Maps a batch region's dataflow graph onto SIMD instructions by iterative
// largest-subgraph-first matching from the topmost-leftmost node, and returns
// the region's cgir loops: the main vector loop plus the scalar remainder
// that handles lengths not divisible by the vector width.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cgir/cgir.hpp"
#include "graph/regions.hpp"
#include "isa/instruction.hpp"
#include "model/model.hpp"

namespace hcg::synth {

/// Resolves the C array variable that holds the signal produced on
/// (actor, output port).  Provided by the surrounding code generator.
using BufferNameFn = std::function<std::string(ActorId, int port)>;

struct BatchOptions {
  /// Minimum region node count before SIMD synthesis is attempted (the
  /// threshold discussed in paper §4.3; 0 = always vectorize).
  int min_nodes_for_simd = 0;
};

struct BatchSynthResult {
  /// True when SIMD code was produced; false means the caller must fall
  /// back to conventionalTranslate (BatchCount < 1, Algorithm 2 lines 3-4,
  /// or the §4.3 threshold).
  bool used_simd = false;
  /// The region's finished loops, annotated for the cgir passes: the scalar
  /// remainder over [0, offset) when one exists (lines 24-26 put it "at the
  /// front"), then the vector loop over [offset, length), or a
  /// single-iteration block when there is one batch.  The first loop
  /// carries the batch-region banner.  Empty when used_simd is false.
  std::vector<cgir::Stmt> loops;
  /// Instruction names selected, in emission order — white-box test surface.
  std::vector<std::string> instructions_used;
  int batch_size = 0;
  int batch_count = 0;
  int offset = 0;
  /// Scalable ISAs: `loops` is one predicated loop over the whole
  /// [0, length) domain that strides by the runtime lane-count expression;
  /// offset is 0, and batch_size/batch_count describe the minimum-granule
  /// geometry.
  bool predicated = false;
};

/// The C expression for one scalar application, with `a` and `b` the operand
/// expressions (b is the shift amount / scalar constant where applicable)
/// and `c` the third operand of ternary ops (the Switch control signal).
/// Used by the scalar remainder loops and the conventional code generators.
cgir::Pieces scalar_c_expr(BatchOp op, DataType type, const cgir::Pieces& a,
                           const cgir::Pieces& b, const cgir::Pieces& c = {});

/// Synthesizes one batch region against an instruction table.  `buffer_name`
/// maps region externals and outputs to C arrays.  Throws
/// hcg::SynthesisError if a node cannot be mapped (which region construction
/// should have prevented).
BatchSynthResult synthesize_batch(const Model& model, const BatchRegion& region,
                                  const isa::VectorIsa& isa,
                                  const BufferNameFn& buffer_name,
                                  const BatchOptions& options = {});

}  // namespace hcg::synth
