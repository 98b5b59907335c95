// The repository benchmark's measurement core: statistics, the failure
// ledger, the result printer, compiled generator cells checked against the
// VM oracle, the interleaved step timer and the codegen sampler.
//
// Every number is taken from outside the code generator, by timing calls
// into its public functions (load_model, Generator::generate,
// toolchain::CompiledModel, Interpreter::step, toolchain::run_profile) and
// reading what they already return (GeneratedCode::report, obs::Registry).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/generator.hpp"
#include "model/model.hpp"
#include "model/tensor.hpp"
#include "synth/history.hpp"
#include "toolchain/compiled_model.hpp"

namespace perfbench {

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that still has
/// at least ten of `n` samples above it; 0 when none has.
double tail_percentile(std::size_t n);

/// Median over rounds of num[i] / den[i], skipping NaN (failed) samples: the
/// two samples of one round are taken moments apart, so a slow episode of
/// the host cancels.  NaN when no round has both samples.
double paired_ratio(const std::vector<double>& num,
                    const std::vector<double>& den);

// ---- failure accounting ----------------------------------------------------

/// Counts every attempted operation (a cell build, a timed generate) and
/// every failure, printing the reason for each failure on stderr.  An output
/// that disagrees with the oracle also clears `correct`.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  bool correct = true;

  void ok() { ++attempted; }
  void fail(std::string_view what, std::string_view why);
  void wrong(std::string_view what, std::string_view why);
  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  }
};

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // sample count / tail percentile, printed only
};

/// The metrics one run reports.  print() writes one human-readable line per
/// metric (and per metric that does not apply), then the result object as
/// the last line of stdout.
class Results {
 public:
  void add(std::string name, double value, std::string unit,
           std::string detail = {});
  void not_applicable(std::string name, std::string reason);
  void print(const Ledger& ledger) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> skipped_;
};

// ---- compiled cells --------------------------------------------------------

/// The generator configurations a step model is compiled under.  Every cell
/// is gcc -O2 on the generated C.
enum class CellKind {
  kHcgO2,      // HCG -O2 on neon_sim (the headline cell)
  kHcgO1,      // HCG -O1 on neon_sim
  kHcgAvx2,    // HCG -O2 on the host's avx2 table
  kSimulink,   // Simulink-Coder-like baseline
  kDfsynth,    // DFSynth-like baseline
  kHcgO2Prof,  // HCG -O2 neon_sim with --profile-gen, built with -DHCG_PROF
};

std::string_view cell_name(CellKind kind);

/// The Simulink- and DFSynth-like cells make no selection, so they are built
/// once per case; HCG cells are built once per selection draw.
bool is_baseline(CellKind kind);

struct Cell {
  CellKind kind = CellKind::kHcgO2;
  int draw = 0;  // which independent Algorithm 1 selection the cell uses
  hcg::codegen::GeneratedCode code;
  std::unique_ptr<hcg::toolchain::CompiledModel> bin;
  int batch = 1;  // steps per timed sample
  std::vector<double> samples_ns;  // ns per step, one entry per sample
  /// ns per reference_step() call, timed just before each sample.
  std::vector<double> ref_ns;
};

/// One step model: resolved, bound to seeded inputs, with the oracle's
/// expected outputs and the cells that built and agreed with the oracle.
struct Case {
  Case(hcg::Model resolved_model, int draws)
      : model(std::move(resolved_model)), histories(draws) {}

  hcg::Model model;
  std::vector<hcg::Tensor> inputs;
  std::vector<hcg::Tensor> outputs;
  std::vector<const void*> in_ptrs;
  std::vector<void*> out_ptrs;
  std::vector<std::vector<hcg::Tensor>> expected;  // per oracle step
  /// One history per selection draw, shared by that draw's HCG cells.
  std::vector<hcg::synth::SelectionHistory> histories;
  std::vector<Cell> cells;

  const Cell* find(CellKind kind, int draw) const;
};

/// Time spent in one set-up pass, by layer.
struct SetupCost {
  double codegen_ms = 0.0;
  double cc_ms = 0.0;
  double oracle_ms = 0.0;
};

/// Resolves `model`, binds seeded inputs and runs the interpreter oracle;
/// `draws` independent selection histories.  Throws on a model the pipeline
/// cannot resolve.
std::unique_ptr<Case> make_case(hcg::Model model, std::uint64_t seed,
                                int draws, SetupCost& cost);

struct CellRequest {
  Case* c;
  CellKind kind;
  int draw = 0;
};

/// Builds the requested cells: generates them in order on this thread (so
/// Algorithm 1 measures on a quiet host), runs the C compiles on up to `jobs`
/// threads, then checks each binary against its case's oracle.  Cells that
/// build and agree are appended to their case; every failure is recorded in
/// `ledger`, never thrown.
void build_cells(const std::vector<CellRequest>& requests, int jobs,
                 Ledger& ledger, SetupCost& cost);

/// True when the host can run the avx2 cell.
bool host_has_avx2();

/// Times every cell of every case, interleaved: each round visits all cases
/// (starting one case, and within it one cell, later than the round before),
/// takes one reference sample per case and then one sample of `cell.batch`
/// steps per cell, so slow drifts of the host hit every cell and the
/// reference alike.  Every cell has one sample per round.
class StepTimer {
 public:
  /// Calibrates each cell's batch, and the reference's, so one sample lasts
  /// about `sample_s`.
  StepTimer(std::vector<std::unique_ptr<Case>>& cases, double sample_s);

  /// Times rounds for about `budget_s` (at least one).
  void run_block(double budget_s);

 private:
  double reference_sample_ns() const;

  std::vector<Case*> cases_;
  int ref_batch_ = 1;
  std::size_t round_ = 0;
};

// ---- codegen sampling --------------------------------------------------------

/// What the timed codegen loop saw.  Per-model timings are kept per sample;
/// phase sums cover the cold samples, so
///   load + sum(phases) + unattributed == load + generate wall
/// holds exactly for them.
struct CodegenStats {
  std::vector<std::vector<double>> cold_ms;  // [model][pass], NaN: failed
  std::vector<std::vector<double>> warm_ms;
  /// One reference_codegen() call, timed just before the cold generate.
  std::vector<std::vector<double>> ref_ms;
  int cold_samples = 0;
  double load_ms = 0.0;
  double generate_ms = 0.0;
  std::map<std::string, double> phase_ms;  // report phase name -> sum
  // Algorithm 1, per full pass over the models (the first cold pass).
  double precalc_runs = 0.0;
  double dedup_hits = 0.0;
  double candidate_ms = 0.0;
  // Warm passes: history lookups and hits.
  double warm_lookups = 0.0;
  double warm_hits = 0.0;
  // Deterministic facts of the first cold pass's outputs, summed over models.
  double code_bytes = 0.0;
  double static_buffer_bytes = 0.0;
  double fused_regions = 0.0;
  double simd_instructions = 0.0;
  double region_nodes = 0.0;
  double simd_region_nodes = 0.0;
  double regions_narrowed = 0.0;
  double loops_fused = 0.0;
  double copies_elided = 0.0;
  double cross_scale_fused = 0.0;
  double loops_tiled = 0.0;
  double strips_localized = 0.0;
  double arena_bytes_saved = 0.0;
};

/// Times load_model + HCG -O2 neon_sim generate over the serialized models,
/// model by model in passes: a reference sample, then cold (fresh
/// SelectionHistory), then warm (the history that cold run filled, so
/// Algorithm 1 only reads it).
class CodegenSampler {
 public:
  explicit CodegenSampler(const std::vector<std::string>& xml_models);

  /// Runs passes for about `budget_s` (at least one).
  void run_block(double budget_s, Ledger& ledger);
  const CodegenStats& stats() const { return stats_; }

 private:
  void run_pass(Ledger& ledger);

  const std::vector<std::string>& xml_models_;
  CodegenStats stats_;
  int passes_ = 0;
};

}  // namespace perfbench
