// Algorithm 1: code synthesis for intensive computing actors.
//
// Selects the optimal implementation for an actor's concrete input scale by
// adaptively pre-calculating: every candidate that can handle the data type
// and size is run on randomly generated test input of exactly that size, and
// the cheapest wins.  Results are memoized in a SelectionHistory.
//
// SelectionMemo adds in-run memoization on top: duplicate (type, dtype,
// shapes) keys in one generation share one measurement.
#pragma once

#include <map>
#include <string>

#include "kernels/library.hpp"
#include "model/model.hpp"
#include "synth/history.hpp"

namespace hcg::synth {

/// One candidate dropped by degraded-mode pre-calculation.  `reason` is one
/// of "compile" | "crash" | "timeout" | "exception" (docs/ROBUSTNESS.md);
/// the same strings key the synth.precalc.candidate_failures.* metrics and
/// the report's degraded section.
struct CandidateFailure {
  std::string impl;
  std::string reason;
  std::string detail;
};

struct IntensiveSelection {
  const kernels::KernelImpl* impl = nullptr;
  bool from_history = false;
  /// True when this result was shared from an earlier selection of the
  /// same key in this run instead of being measured again.
  bool deduped = false;
  /// impl id -> measured seconds (empty on a history hit).
  std::map<std::string, double> measured_costs;
  /// Candidates dropped instead of measured (degraded mode).  Non-empty
  /// means the run was lossy; the selection is still usable.
  std::vector<CandidateFailure> failures;
  /// True when *no* candidate survived measurement and the selection fell
  /// back to the reference (general) implementation.  Degraded selections
  /// are not stored into the history, so a healthy later run re-measures.
  bool degraded = false;
};

/// Generates the random test input tensors for an actor's input specs
/// (generateTestInput, Algorithm 1 line 10).  MatInv inputs are made
/// diagonally dominant so every candidate sees an invertible matrix.
std::vector<Tensor> generate_test_inputs(const Actor& actor,
                                         std::uint64_t seed);

/// Runs Algorithm 1 for a resolved intensive actor: looks the key up in
/// `history` first, and stores a fresh (non-degraded) selection there.  A
/// caller that must not persist a selection passes a fresh history.  Throws
/// hcg::SynthesisError if the actor type has no implementations.
///
/// Degraded mode: a candidate that throws during warm-up/measurement — or
/// is forced down by an armed `precalc.measure` fault — is dropped with a
/// warning and recorded in IntensiveSelection::failures instead of aborting
/// the generation; the general implementation is the guaranteed fallback
/// when every candidate fails.
IntensiveSelection select_implementation(const Actor& actor,
                                         SelectionHistory& history);

/// In-run memoization over select_implementation.
///
/// The first request for a (actor type, dtype, shapes) key runs the full
/// pre-calculation; later requests for the same key get its result, marked
/// `deduped`.  One instance spans one code-generation run, so duplicate
/// actors in a model never re-measure even with a fresh history.  A
/// selection that throws is not memoized.
class SelectionMemo {
 public:
  IntensiveSelection select(const Actor& actor, SelectionHistory& history);

  /// Requests that were answered from an earlier measurement.
  std::uint64_t dedup_hits() const { return dedup_hits_; }

 private:
  std::map<std::string, IntensiveSelection> done_;
  std::uint64_t dedup_hits_ = 0;
};

}  // namespace hcg::synth
