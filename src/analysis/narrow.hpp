// Range-driven lane narrowing: a model-to-model rewrite ahead of codegen.
//
// An integer batch region whose proven value ranges (analysis/range.hpp)
// all fit a narrower element type is re-typed to it, so Algorithm 2 gets
// two or four times the SIMD lanes.  The rewrite splices Cast actors around
// the region (or retypes a Constant only the region reads) and re-resolves
// the model; the region's own actors inherit the narrow type.  The inserted
// mixed-width Casts fall out of regions by the HCG404 rule, so the regions
// found afterwards are the narrow chains.  docs/ANALYSIS.md describes the
// remarks.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/range.hpp"
#include "graph/regions.hpp"
#include "isa/instruction.hpp"
#include "model/model.hpp"

namespace hcg::analysis {

struct NarrowingResult {
  /// The batch regions of the rewritten model, as find_batch_regions()
  /// returns them.
  std::vector<BatchRegion> regions;
  /// The range analysis of the rewritten model.
  RangeAnalysis ranges;
  /// One HCG411 remark per narrowed region in rewrite order, then HCG412 or
  /// HCG413 for each region left at its type, in region order.
  DiagnosticEngine remarks;
  int regions_narrowed = 0;   // HCG411 count
  int narrowing_blocked = 0;  // HCG412 count
};

/// Narrows the batch regions of a resolved `model` in place and re-resolves
/// it.  One region is rewritten per round, after which regions and ranges
/// are found again: a rewrite can join regions that were apart before it.
/// `min_nodes_for_simd` is Algorithm 2's threshold (synth::BatchOptions); a
/// region below it is never narrowed.
NarrowingResult narrow_lanes(Model& model, const isa::VectorIsa& isa,
                             int min_nodes_for_simd);

}  // namespace hcg::analysis
