// CGIR verifier: structural and semantic invariants of a TranslationUnit.
//
// The cgir pass pipeline rewrites the codegen IR in place; each pass relies
// on invariants the previous one must preserve.  The verifier checks them
// independently after every pass (codegen/emit.cpp installs it through
// cgir::PassOptions::after_pass), so a pass that breaks the IR is caught at
// the pass that broke it, with an HCG3xx diagnostic naming it — instead of
// surfacing later as a miscompiled model or a C compile error.
//
// Invariants checked (one stable code each, see docs/ANALYSIS.md):
//   HCG301  every elementwise BufferAccess stays inside its buffer's extent
//           given the enclosing loop's trip count
//   HCG302  no two statements in one loop body define the same local (with
//           one sanctioned exception: the pending-handoff load loop fusion
//           creates and copy forwarding is guaranteed to erase)
//   HCG303  vector loops step through their domain exactly (no partial
//           iteration) and every offset vector loop has a scalar remainder
//           loop covering [0, offset) before it
//   HCG304  a store's value variable is defined earlier in the same body
//   HCG305  every accessed buffer is declared or is a step-scope local
//   HCG306  const buffers are never written
//   HCG307  buffer declarations are unique
//   HCG308  arena slot members' live ranges are pairwise disjoint
#pragma once

#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "cgir/cgir.hpp"
#include "cgir/passes.hpp"

namespace hcg::analysis {

/// Verifies the whole unit; returns every violation found (empty = valid).
std::vector<Diagnostic> verify_unit(const cgir::TranslationUnit& tu);

/// Verifies the arena-reuse pass's slot assignment: within each slot, member
/// live ranges must be pairwise disjoint (HCG308).
std::vector<Diagnostic> verify_arena_bindings(
    const std::vector<cgir::ArenaBinding>& bindings);

/// Convenience for the pass pipeline: runs both checks and throws
/// hcg::CodegenError naming `stage` (the pass that just ran) on the first
/// violation.  Returns the number of checks that ran clean (0 on throw).
std::size_t require_valid_unit(const cgir::TranslationUnit& tu,
                               const cgir::PassStats& stats,
                               std::string_view stage);

/// True when the HCG_VERIFY environment variable is set to anything but
/// empty or "0": codegen then verifies after every pass as if
/// EmitConfig::verify_cgir were set.
bool verify_env_enabled();

}  // namespace hcg::analysis
