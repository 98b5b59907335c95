// Algorithm 1: code synthesis for intensive computing actors.
//
// Selects the optimal implementation for an actor's concrete input scale by
// adaptively pre-calculating: every candidate that can handle the data type
// and size is run on randomly generated test input of exactly that size, and
// the cheapest wins.  The candidates race (race_candidates): one warm-up call
// each screens out clear losers, the rest are timed in rotating rounds.  A
// kernel's first race in a process is preceded by one untimed call.
// Results are memoized in a SelectionHistory.
//
// SelectionMemo adds in-run memoization on top: duplicate (type, dtype,
// shapes) keys in one generation share one measurement.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kernels/library.hpp"
#include "model/model.hpp"
#include "synth/history.hpp"

namespace hcg::synth {

/// Timed rounds per surviving candidate; its best sample is its cost.
inline constexpr int kRepetitions = 3;
/// Per-candidate measurement budget: a survivor whose timed samples have
/// used this much wall clock leaves the rounds early (at least one sample
/// always runs).  Long kernel runs are noise-robust, so extra samples would
/// only stretch code generation.
inline constexpr double kMeasureBudgetSeconds = 2e-3;
/// A candidate whose warm-up took more than this multiple of the fastest
/// warm-up's thread-CPU time is screened out: it is never timed again.
/// CPU time, not wall time, so a preempted warm-up cannot screen the winner.
inline constexpr double kScreenRatio = 4.0;
/// A survivor with at least two timed samples whose best exceeds this
/// multiple of the leader's best leaves the rounds.
inline constexpr double kDropRatio = 1.5;
/// Each timed sample batches ceil(kMinSampleSeconds / warm-up wall time)
/// calls, at most kMaxCallsPerSample, so a ~80 ns kernel is timed over
/// microseconds rather than over one clock read.
inline constexpr double kMinSampleSeconds = 2e-6;
inline constexpr int kMaxCallsPerSample = 64;

/// Wall and thread-CPU seconds of one batch of kernel calls.
struct CallTiming {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// One candidate's part in race_candidates.
struct RaceLane {
  bool failed = false;    // measure reported a failure: out of the race
  bool screened = false;  // warm-up CPU time > kScreenRatio x the fastest
  bool dropped = false;   // best > kDropRatio x the leader's, >= 2 samples
  int calls_per_sample = 1;
  int samples = 0;  // timed samples; 0 when screened
  /// Seconds per call: the best timed sample, or the warm-up's wall time
  /// when screened.
  double best_seconds = std::numeric_limits<double>::infinity();
};

struct RaceResult {
  std::vector<RaceLane> lanes;  // one per candidate, in candidate order
  /// Fastest lane that was neither screened, dropped nor failed (the first
  /// on an exact tie); -1 when every lane failed.
  int winner = -1;
};

/// Runs `calls` back-to-back calls of candidate `index` and returns their
/// total wall and thread-CPU time, or nullopt when the candidate failed.
using RaceMeasure =
    std::function<std::optional<CallTiming>(std::size_t index, int calls)>;

/// Algorithm 1's measurement policy (lines 11-17), apart from any clock or
/// kernel: (1) one warm-up call per candidate, screening by CPU time;
/// (2) up to kRepetitions rotating rounds (A B C, B C A, ...) of batched
/// samples over the survivors, within kMeasureBudgetSeconds each, dropping
/// clear losers; (3) the fastest remaining survivor wins.
RaceResult race_candidates(std::size_t candidates, const RaceMeasure& measure);

/// One candidate dropped by degraded-mode pre-calculation.  `reason` is one
/// of "compile" | "crash" | "timeout" | "exception" (docs/ROBUSTNESS.md);
/// the same strings appear in the report's degraded section.
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
  /// impl id -> measured seconds per call (empty on a history hit).
  /// Screened and dropped candidates keep their best observation here but
  /// are never picked.
  std::map<std::string, double> measured_costs;
  /// impl id -> timed samples behind measured_costs; 0 means the candidate
  /// was screened out on its warm-up call.
  std::map<std::string, int> timed_samples;
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
