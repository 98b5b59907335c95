// Machine-readable codegen report: a structured record of *why* one
// generation run produced the code it did — per-phase timings, Algorithm 1's
// per-actor implementation choices with the measured candidate times behind
// them, and Algorithm 2's per-region SIMD matching results.
//
// emit_model() fills the codegen-side fields into GeneratedCode::report;
// drivers (hcgc, the toolchain harness, benches) layer their own phases and
// the toolchain/history sections on top, then serialize with to_json().
// The schema is documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hcg::obs {

struct ReportPhase {
  std::string name;
  double ms = 0.0;
};

struct ReportCandidate {
  std::string impl;
  double ms = 0.0;        // best measured time per call
  int samples = 0;        // timed samples behind `ms`
  bool screened = false;  // true: `ms` is one cold warm-up call, never timed
};

/// One Algorithm 1 decision.
struct ReportIntensive {
  std::string actor;
  std::string actor_type;
  std::string dtype;
  std::string impl;          // chosen implementation id
  bool from_history = false;  // true: history hit, no pre-calculation ran
  bool selected = false;      // false: generic impl, Algorithm 1 skipped
  std::vector<ReportCandidate> candidates;  // measured times (selection runs)
};

/// One Algorithm 2 batch region.
struct ReportRegion {
  std::vector<std::string> actors;
  int nodes = 0;
  bool used_simd = false;
  int batch_size = 0;        // vector lanes (granule if predicated)
  int batch_count = 0;       // full vector iterations (granule trips if pred.)
  int scalar_remainder = 0;  // elements handled by the scalar epilogue/prologue
  bool predicated = false;   // one VLA predicated loop, no remainder split
  std::vector<std::string> instructions;  // SIMD instructions, emission order
};

/// One candidate dropped by degraded-mode pre-calculation.
struct ReportFailedCandidate {
  std::string impl;
  std::string reason;  // "compile" | "crash" | "timeout" | "exception"
};

/// One lossy Algorithm 1 decision: candidates failed, the run carried on.
/// `reference_fallback` marks the worst case — nothing was measured and the
/// general implementation was taken on faith.
struct ReportFallback {
  std::string actor;
  std::string stage;  // currently always "precalc"
  std::string impl;   // the implementation the run proceeded with
  bool reference_fallback = false;
  std::vector<ReportFailedCandidate> failures;
};

/// One diagnostic from the static-analysis layer (lint findings attached by
/// hcgc, or verifier findings surfaced in degraded runs), mirrored here so
/// the report is a complete machine-readable record of the run.
struct ReportDiagnostic {
  std::string code;      // stable "HCGnnn" code (docs/ANALYSIS.md)
  std::string severity;  // "note" | "remark" | "warning" | "error"
  std::string location;
  std::string message;
};

/// One profiled site of the generated step function (`hcgc profile`): a
/// region loop or an intensive kernel call, with the measured totals from
/// the hcg-profile-v1 dump and — when Algorithm 1 measured this site during
/// pre-calculation — the predicted cost it selected on and the resulting
/// prediction error.
struct ReportProfileSite {
  std::string id;      // "L0", "I0", ... (instrumentation order)
  std::string kind;    // "vector" | "scalar" | "intensive"
  std::string label;   // "batch_region(5 actors, neon)" or "actor:impl"
  std::uint64_t ns = 0;     // total time over all reps
  std::uint64_t calls = 0;  // step() invocations observed
  std::uint64_t iters = 0;  // loop trips (== calls for intensive sites)
  double mean_ns_per_call = 0.0;
  /// Algorithm 1's measured candidate time for the chosen implementation,
  /// scaled to one call; < 0 when no prediction exists for this site
  /// (region loops, history hits, generic implementations).
  double predicted_ns = -1.0;
  /// |measured - predicted| / predicted * 100; < 0 when no prediction.
  double abs_err_pct = -1.0;
};

struct Report {
  std::string model;
  std::string tool;
  std::string isa;
  int actor_count = 0;

  std::vector<ReportPhase> phases;
  std::vector<ReportIntensive> intensive;
  std::vector<ReportRegion> regions;

  /// Degraded-mode record (docs/ROBUSTNESS.md): every actor whose
  /// pre-calculation lost candidates.  Empty on a clean run; non-empty means
  /// the output is valid but some selections were lossy.
  std::vector<ReportFallback> degraded;

  // Codegen totals.
  std::size_t emit_bytes = 0;
  std::size_t static_buffer_bytes = 0;
  int fused_regions = 0;

  // cgir optimization pipeline: the -O level the run used and what the
  // passes did.  The trailing comments name each field's path in the
  // report JSON (to_json()).
  int opt_level = 0;
  int loops_predicated = 0;            // codegen.loops.predicated
  int loops_fused = 0;                 // codegen.fusion.loops_fused
  int copies_elided = 0;               // codegen.fusion.copies_elided
  std::size_t arena_bytes_saved = 0;   // codegen.arena.bytes_saved

  // -O2 passes.  All zero below -O2.
  int cross_scale_fused = 0;   // codegen.fusion.cross_scale_fused
  int loops_tiled = 0;         // always 0 (no tiling pass); perfbench reads it
  int strips_localized = 0;    // codegen.layout.strips_localized

  /// cgir verifier checkpoints that ran clean, in order ("lower" plus one
  /// entry per pass that ran).  Empty when verification was off for the run.
  std::vector<std::string> verified_passes;

  /// Static-analysis findings attached to this run: hcgc lint's, and the
  /// narrowing (HCG411-HCG413) and -O2 (HCG408) remarks codegen records.
  std::vector<ReportDiagnostic> diagnostics;

  // Interval value-range analysis summary (src/analysis/range.hpp; filled
  // by `hcgc lint` and by lane narrowing, src/analysis/narrow.hpp).  range_ran false
  // means the analysis never ran and the serialized report has no
  // "range_analysis" section.
  bool range_ran = false;
  int range_actors_analyzed = 0;   // actors the propagation visited
  int range_bounded_outputs = 0;   // signals proven narrower than their type
  int range_widened_delays = 0;    // UnitDelay states widened to top
  int regions_narrowed = 0;        // batch regions re-planned narrower (HCG411)
  int narrowing_blocked = 0;       // blocked only by unprovable range (HCG412)

  // Selection-history statistics (filled by the driver when a history is in
  // play; hits+misses == 0 means no history was consulted).
  std::uint64_t history_hits = 0;
  std::uint64_t history_misses = 0;
  std::size_t history_entries = 0;

  // Toolchain (filled when the generated code was actually compiled).
  double compile_ms = -1.0;  // < 0: not compiled
  std::string compile_command;

  // Runtime profile (`hcgc profile`; docs/PROFILING.md).  Empty unless the
  // generated code was instrumented, executed, and its hcg-profile-v1 dump
  // ingested; profile_reps == 0 means no profile ran (the serialized report
  // then has no "runtime_profile" section at all — the degraded shape).
  std::vector<ReportProfileSite> runtime_profile;
  int profile_reps = 0;
  std::string profile_clock;  // "monotonic_ns"

  /// Fraction of region nodes that ended up in SIMD code, 0..1.
  double simd_coverage() const;

  /// Serializes the report (schema hcg-report-v1).
  std::string to_json() const;
};

}  // namespace hcg::obs
