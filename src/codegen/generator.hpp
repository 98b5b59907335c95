// Code generation: the common emitter all three tools share, plus the
// configuration knobs that differentiate them.
//
// Every generator produces a self-contained C translation unit with the ABI
//   void <model>_init(void);
//   void <model>_step(const void* const* inputs, void* const* outputs);
// where inputs/outputs carry one pointer per Inport/Outport in declaration
// order.  Complex (c64) signals are interleaved float arrays.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgir/passes.hpp"
#include "isa/instruction.hpp"
#include "model/model.hpp"
#include "obs/report.hpp"
#include "synth/batch.hpp"
#include "synth/history.hpp"
#include "synth/intensive.hpp"

namespace hcg::codegen {

/// How element-wise (batch) actors are translated.
enum class BatchMode : std::uint8_t {
  kScalarLoops,      // one scalar loop per actor (DFSynth style)
  kUnrollThenLoops,  // unrolled statements below a threshold, else loops
                     // (Simulink Coder style, paper Figure 2)
  kScattered,        // one *vectorized* loop per actor, load/store each pass
                     // (Simulink Coder on Intel, paper §4.2 / Figure 5(b))
  kRegions,          // Algorithm 2: fused SIMD over whole regions (HCG)
};

struct EmitConfig {
  std::string tool_name = "hcg";
  BatchMode batch_mode = BatchMode::kRegions;
  /// Instruction table for kScattered / kRegions; may be null otherwise.
  const isa::VectorIsa* isa = nullptr;
  /// Fold single-consumer scalar expressions into their consumer
  /// (Simulink Coder's "expression folding").
  bool fold_scalar_expressions = false;
  /// Reuse signal buffers whose live ranges do not overlap
  /// (Simulink Coder's "output variable reuse"; HCG inherits it): the cgir
  /// arena pass rebinds them onto shared slots at every opt level.
  bool reuse_buffers = false;
  /// Optimization level for the cgir pass pipeline run over the lowered
  /// translation unit; it alone picks the passes (cgir/passes.hpp).
  /// 0 = no restructuring (only the arena pass, which rebinds nothing
  ///     unless reuse_buffers is set);
  /// 1 = region loop fusion + copy forwarding, then the arena pass;
  /// 2 = additionally cross-scale producer-consumer fusion (strip-mining)
  /// and strip-body lane localization.
  int opt_level = 0;
  /// When non-empty, capture a "cgir-v1" dump of the unit as it stood
  /// right after the named pass ("lower", "fuse_loops", "fuse_cross_scale",
  /// "forward_copies", "eliminate_dead_buffers", "reuse_arena",
  /// "localize_strips") into
  /// GeneratedCode::cgir_dump_after (the `hcgc --dump-cgir-after=<pass>`
  /// surface).  "final" captures the unit exactly as printed, after any
  /// profiling instrumentation (the `hcgc --dump-cgir` surface).
  std::string dump_cgir_after;
  /// Run the cgir verifier (analysis/verifier.hpp) over the lowered unit and
  /// again after every pass; an invariant violation throws CodegenError
  /// naming the pass that broke it.  Also enabled process-wide by the
  /// HCG_VERIFY environment variable (any value except "" / "0"), which is
  /// how the test suite keeps it always-on.
  bool verify_cgir = false;
  /// Instrument the final unit with per-region profiling counters (the
  /// `hcgc --profile-gen` surface; see docs/PROFILING.md).  The counters are
  /// guarded by the HCG_PROF preprocessor macro, so without -DHCG_PROF the
  /// compiled behavior is unchanged — but the emitted *text* differs, which
  /// is why this is off by default.  Instrumentation runs after the passes
  /// and after the last verifier checkpoint.
  bool profile_gen = false;
  /// Algorithm 1 implementation selection; false = generic implementations.
  bool select_intensive = false;
  synth::SelectionHistory* history = nullptr;  // used when select_intensive
  synth::BatchOptions batch_options;
};

struct GeneratedCode {
  std::string source;
  std::string model_name;
  std::string init_symbol;
  std::string step_symbol;
  std::string tool_name;
  /// Compiler flags the ISA needs (e.g. "-mavx2 -mfma"); space separated.
  std::string compile_flags;
  /// True when the source includes hcg_neon_sim.h (needs -I<data dir>).
  bool needs_neon_sim = false;

  // ---- reproducibility metadata (white-box test & bench surface) ----------
  /// SIMD instruction names emitted, in order.
  std::vector<std::string> simd_instructions;
  /// Intensive actor name -> selected implementation id.
  std::map<std::string, std::string> intensive_choices;
  /// Total bytes of static signal/state buffers (memory-parity experiment).
  std::size_t static_buffer_bytes = 0;
  /// Number of batch regions fused by Algorithm 2.
  int fused_regions = 0;
  /// "cgir-v1" snapshot captured right after the pass named by
  /// EmitConfig::dump_cgir_after (cgir::parse_dump() round-trips it); empty
  /// when that option is unset or the named pass never ran at the chosen
  /// opt level.
  std::string cgir_dump_after;
  /// Profiling sites instrumented into the unit (empty unless
  /// EmitConfig::profile_gen); index order matches the HCG_PROF counters
  /// and the `hcg-profile-v1` dump.
  std::vector<cgir::ProfileSite> profile_sites;

  /// Structured account of this generation run: per-phase timings, every
  /// Algorithm 1 choice with its measured candidate times, and every
  /// Algorithm 2 region with its matched instructions.  Serialized by
  /// `hcgc --report`; see docs/OBSERVABILITY.md for the schema.
  obs::Report report;
};

/// Emits C code for a model (resolved internally) under a configuration.
GeneratedCode emit_model(const Model& model, const EmitConfig& config);

/// Abstract tool interface.
class Generator {
 public:
  virtual ~Generator() = default;
  virtual std::string name() const = 0;
  virtual GeneratedCode generate(const Model& model) = 0;
};

/// The HCG generator (this paper): Algorithm 1 + Algorithm 2 against the
/// given instruction table.  The history is shared across calls.
/// `opt_level` selects the cgir pass pipeline (default -O1).  In all three
/// factories `dump_cgir_after` is EmitConfig::dump_cgir_after: the
/// checkpoint to snapshot, or empty.
std::unique_ptr<Generator> make_hcg_generator(const isa::VectorIsa& isa,
                                              synth::SelectionHistory* history = nullptr,
                                              synth::BatchOptions batch_options = {},
                                              int opt_level = 1,
                                              bool profile_gen = false,
                                              std::string dump_cgir_after = {});

/// Simulink-Coder-like baseline: expression folding, variable reuse,
/// unrolled scalar statements (Figure 2), generic intensive functions.
/// `scattered_isa` enables the per-actor scattered-SIMD mode of §4.2.
std::unique_ptr<Generator> make_simulink_generator(
    const isa::VectorIsa* scattered_isa = nullptr, int opt_level = 0,
    std::string dump_cgir_after = {});

/// DFSynth-like baseline: per-actor loop code, generic intensive functions.
std::unique_ptr<Generator> make_dfsynth_generator(
    int opt_level = 0, std::string dump_cgir_after = {});

}  // namespace hcg::codegen
