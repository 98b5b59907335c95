// Interval value-range analysis over the resolved actor graph.
//
// An abstract interpretation with the classic interval domain: every
// (actor, output port) signal is mapped to a conservative per-element
// [min, max] over its runtime values.  The lattice is intervals over the
// extended reals ordered by inclusion; "top" for a signal is the full range
// of its element type (±inf for floats).  UnitDelay feedback is handled as
// a fixpoint over synchronous steps with widening: state starts at the
// initial value [0, 0], grows by joining the fed interval each round, and
// is widened to top after a few unstable rounds so the iteration always
// terminates.  docs/ANALYSIS.md documents the domain and every per-actor
// transfer function.
//
// Soundness contract (checked continuously by the differential fuzzing
// harness, docs/FUZZING.md): every value the VM interpreter oracle observes
// on a signal lies inside the predicted interval.  To that end all float
// bounds are rounded outward with a relative-epsilon band (the oracle
// computes in f32/f64, the analysis in double), integer bounds beyond 2^53
// are rounded outward by one ulp, and f32 bounds that exceed FLT_MAX
// saturate to ±inf (an overflowing float op produces ±inf at runtime).
//
// Consumers:
//   * `hcgc lint` — the HCG6xx numeric-safety diagnostics (possible signed
//     overflow, possible division by zero, lossy narrowing cast, dead
//     Switch branch, constant-foldable subgraph);
//   * range-driven lane narrowing (src/analysis/narrow.hpp) — a batch
//     region whose proven ranges fit a narrower element type is re-planned
//     at the narrow width, doubling (or quadrupling) SIMD lanes;
//   * the fuzz harness — the soundness cross-check above.
#pragma once

#include <map>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "model/model.hpp"

namespace hcg::analysis {

/// One element of the interval lattice: a closed range [lo, hi] of the
/// per-element values a signal can take.  Bounds are doubles; integer
/// signals use exact endpoints up to 2^53 and outward-rounded ones beyond.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool contains(double value) const { return value >= lo && value <= hi; }
  bool singleton() const { return lo == hi; }
  /// Inclusion in the interval order (this ⊆ other).
  bool inside(const Interval& other) const {
    return lo >= other.lo && hi <= other.hi;
  }
  bool operator==(const Interval&) const = default;

  /// "[lo, hi]" with shortest-round-trip formatting.
  std::string to_string() const;
};

/// Lattice join (interval hull).
Interval join(const Interval& a, const Interval& b);

/// The full representable range of an element type: exact integer bounds
/// (outward-rounded where a double cannot hold them), ±inf for floats and
/// complex components.
Interval type_interval(DataType type);

/// True when every value in `iv` is representable in `type` — the query the
/// lane-narrowing pass and the Cast transfer function ask.  Conservative:
/// uses inward-rounded type bounds, so a borderline 64-bit range may be
/// rejected but never wrongly accepted.
bool interval_fits(const Interval& iv, DataType type);

/// True when `iv` is strictly narrower than its type's full range with both
/// endpoints finite — the "do we actually know something?" gate every
/// HCG6xx warning applies, so a model with undeclared (top) or only
/// half-bounded input ranges stays warning-free.
bool interval_bounded(const Interval& iv, DataType type);

/// The analysis result: per-signal intervals plus summary statistics for
/// the hcg-report-v1 `range_analysis` section.
struct RangeAnalysis {
  /// Interval per (actor id, output port) of the resolved model.
  std::map<std::pair<ActorId, int>, Interval> intervals;

  int actors_analyzed = 0;   // actors the propagation visited
  int bounded_outputs = 0;   // output signals proven narrower than their type
  int widened_delays = 0;    // UnitDelay states widened to top (unstable)

  /// Interval of (actor, port); nullptr when the signal was not analyzed
  /// (complex-typed signals of unreachable actors, for example).
  const Interval* find(ActorId actor, int port) const;
};

/// Propagates intervals over a *resolved* model (throws hcg::Error when it
/// is not resolved or has no firing order).  When `diags` is non-null the
/// HCG6xx numeric-safety diagnostics are emitted into it:
///
///   HCG601  possible-signed-overflow   (warning, bounded operands only)
///   HCG602  possible-division-by-zero  (warning, bounded divisor only)
///   HCG603  lossy-narrowing-cast       (warning, bounded input only)
///   HCG604  dead-switch-branch         (remark)
///   HCG605  constant-foldable          (remark)
RangeAnalysis analyze_ranges(const Model& resolved, DiagnosticEngine* diags);

}  // namespace hcg::analysis
