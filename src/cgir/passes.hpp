// Optimization passes over the codegen IR.
//
// run_passes() walks one ordered pass list, and the -O level alone picks
// which passes run: each pass runs from its lowest level up.
//
//   pass                     from  effect
//   fuse_loops               -O1   region loop fusion
//   fuse_cross_scale         -O2   producer-consumer fusion across scales
//   forward_copies           -O1   copy forwarding
//   eliminate_dead_buffers   -O1   dead-copy elimination
//   reuse_arena              -O0   arena reuse (the only buffer allocator)
//   localize_strips          -O2   strip-body lane localization
//
//   * Loop fusion — adjacent region loops with the same iteration domain
//     merge into one loop when every buffer they share is accessed
//     elementwise (so per-iteration body order preserves semantics).
//     Statements sitting between two fusion candidates either stay behind
//     the merged loop (when independent of the later loop) or hoist above
//     it (when independent of the earlier loop and everything that stays).
//   * Cross-scale fusion — a conventional scalar loop over [0, n) that could
//     not join a batch region strip-mines into the shape of an adjacent
//     vector loop over the same width (outer loop strides by the vector
//     step, a strip_mined inner lane loop covers the gap), then the
//     same-shape fuser merges the pair.  A strip-mine that fails to fuse is
//     rolled back.
//   * Copy forwarding — inside fused vector loops, a load of a buffer that
//     an earlier line in the same body stored becomes a rename of the
//     stored vector variable; inside scalar remainder loops, `buf[i]`
//     reads of a just-stored element become the stored scalar variable.
//   * Dead-copy elimination — handoff buffers left with stores but no
//     remaining reads are deleted together with their declarations.
//   * Arena reuse — intermediate signal buffers whose live ranges (first
//     write to last access, at whole-statement granularity) do not overlap
//     rebind onto shared arena slots, shrinking static footprint.  It is the
//     whole pipeline at -O0, where it serves the baseline tools.  Only
//     BufferDecl::arena_eligible buffers take part (the DFSynth-like
//     baseline marks none, so it keeps one buffer per signal).  A
//     rebound slot is declared where its first member was, so the
//     declaration order is the lowering's order with the later members
//     removed.
//   * Lane localization — each strip-mined lane loop whose body indexes
//     arrays purely elementwise computes through fixed-size local lane
//     buffers, moved with full-width memcpy block copies.  The lane loop
//     then runs over distinct locals (no runtime alias checks, so
//     conservative host-compiler cost models still vectorize it) and never
//     interleaves scalar byte stores with the surrounding vector
//     loads/stores (which would defeat store-to-load forwarding).
//
// Every pass is followed by the after_pass checkpoint (the verifier, when
// installed).  All passes are deterministic: they iterate the tree in order,
// and no address, hash order, or time decides a result.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cgir/cgir.hpp"

namespace hcg::cgir {

struct PassStats;

/// Called after each pass with the pass's name and the rewritten unit.
/// codegen installs the cgir verifier here (analysis/verifier.hpp), so a
/// pass that breaks an invariant is caught naming the pass that broke it.
/// The hook may throw; run_passes lets the exception propagate.
using PassHook =
    std::function<void(std::string_view pass, const TranslationUnit& tu,
                       const PassStats& stats)>;

struct PassOptions {
  /// The -O level: runs every pass of the pipeline whose lowest level is at
  /// most this.
  int opt_level = 1;
  PassHook after_pass;  // optional per-pass checkpoint (verifier)
};

/// One buffer the arena-reuse pass renamed onto a shared slot, with the live
/// range (statement indices over the flattened step body) that justified the
/// rebinding.  Kept in PassStats so the verifier can re-check disjointness:
/// after renaming, overlaps are invisible in the IR itself.
struct ArenaBinding {
  std::string slot;    // arena slot buffer name the member was renamed to
  std::string buffer;  // original buffer name
  int first_write = -1;
  int last_access = -1;
};

/// Wall time of one pass's `run` (not its checkpoint), for the report.
struct PassTime {
  std::string_view name;  // a pipeline pass name (static storage)
  double ms = 0.0;
};

/// What the pipeline did, for the obs report.
struct PassStats {
  int loops_fused = 0;          // number of merge events (N loops -> N-1)
  int copies_elided = 0;        // forwarded loads / dead stores removed
  int buffers_eliminated = 0;   // handoff buffers deleted outright
  int buffers_rebound = 0;      // buffers renamed onto arena slots
  std::size_t arena_bytes_saved = 0;
  // ---- -O2 ------------------------------------------------------------
  int cross_scale_fused = 0;    // strip-mined loops merged into vector loops
  int strips_localized = 0;     // strip bodies rewritten onto lane buffers
  std::vector<ArenaBinding> arena_bindings;  // one entry per rebound buffer
  std::vector<PassTime> pass_times;  // one entry per pass that ran, in order
};

/// Runs the passes `options` selects over `tu` in place, in pipeline order,
/// and reports their effect.
PassStats run_passes(TranslationUnit& tu, const PassOptions& options);

/// True when `name` is a pass of the pipeline: the names the after_pass hook
/// reports, which `hcgc --dump-cgir-after` accepts.
bool is_pass_name(std::string_view name);

// ---------------------------------------------------------------------------
// Profiling instrumentation (hcgc --profile-gen, docs/PROFILING.md)
// ---------------------------------------------------------------------------

/// One instrumented site of the step function: a region loop (vector body,
/// scalar remainder, or a fused loop) or an intensive kernel call.
struct ProfileSite {
  std::string id;     // "L0", "L1", ... for loops; "I0", ... for calls
  std::string kind;   // "vector" | "scalar" | "intensive"
  std::string label;  // "batch_region(5 actors, neon)" or "actor:impl"
  long long iters_per_call = 1;  // loop trips per step() call (1 for calls)
};

struct ProfileOptions {
  std::string model_name;  // embedded into the hcg-profile-v1 dump
};

/// Wraps every top-level loop of the step body and every statement carrying
/// an "intensive:" prof_tag in per-site nanosecond counters, and appends the
/// profiling runtime (counter arrays, hcg_prof_now_ns(), hcg_prof_dump())
/// to the unit's header.  Everything is guarded by the HCG_PROF preprocessor
/// macro: compiled without -DHCG_PROF the instrumented source is behaviorally
/// identical to the un-instrumented one (the macros expand to nothing).
/// hcg_prof_dump(path) writes an "hcg-profile-v1" JSON file keyed by site id.
/// Returns the site table in emission order.  Run this AFTER run_passes —
/// it instruments the final loop structure, and the verifier checkpoints
/// never see the injected statements.
std::vector<ProfileSite> instrument_profiling(TranslationUnit& tu,
                                              const ProfileOptions& options);

}  // namespace hcg::cgir
