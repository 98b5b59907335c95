// Bench regression orchestrator (docs/PROFILING.md): runs the standing
// benchmark suites, writes one hcg-bench-v1 BENCH_<suite>.json per suite,
// and — in --check mode — compares the fresh numbers against a committed
// baseline directory, exiting 9 when a metric regressed.
//
//   bench_runner --record --out bench/baseline        # refresh the baseline
//   bench_runner --check --baseline bench/baseline    # the CI perf gate
//
// Gate semantics (the whole point of the kind field):
//   - "count" metrics are deterministic codegen facts (fused regions, SIMD
//     instruction counts, buffer bytes, dedup hits).  ANY drift from the
//     baseline fails the check, in either direction — a count that changed
//     means codegen behavior changed and the baseline must be re-recorded
//     deliberately.
//   - "time"/"ratio" metrics are noisy.  They gate with a relative
//     threshold (--threshold, default 40%), and only when the current cpu
//     count matches the baseline's environment fingerprint; on a mismatched
//     machine they are skipped with a warning (--strict gates anyway).
//   - a metric present in the baseline but missing from the current run is
//     a warning, not a regression (a compiler-less container skips the exec
//     suite without failing the gate).
//
// Exit codes: 0 ok, 2 usage error, 9 regression detected.
#include "bench_util.hpp"

#include "isa/builtin.hpp"
#include "synth/history.hpp"

#include <cmath>
#include <functional>

namespace {

using namespace hcg;

constexpr int kExitRegression = 9;

// ---- suites ---------------------------------------------------------------

codegen::GeneratedCode emit_hcg(const Model& model,
                                synth::SelectionHistory* history,
                                int opt_level = 1) {
  auto hcg = codegen::make_hcg_generator(isa::builtin("neon_sim"), history, {},
                                         opt_level);
  return hcg->generate(model);
}

/// Deterministic codegen facts + end-to-end emission time for three models.
std::vector<bench::BenchMetric> suite_codegen() {
  std::vector<bench::BenchMetric> metrics;
  std::vector<Model> models;
  models.push_back(benchmodels::fir_model(1024));
  models.push_back(benchmodels::highpass_model(1024));
  models.push_back(benchmodels::paper_fig4_model());
  for (Model& raw : models) {
    Model model = resolved(std::move(raw));
    const std::string m = model.name();
    // Calibrated best-of-N: a single sub-millisecond emission is far too
    // noisy to gate, so repeat until the time budget is spent and keep the
    // fastest run (the one with the least scheduler interference).
    auto emit_once = [&model]() {
      synth::SelectionHistory history;  // cold: includes Algorithm 1 sweeps
      Stopwatch timer;
      codegen::GeneratedCode code = emit_hcg(model, &history);
      return std::pair<double, codegen::GeneratedCode>(
          timer.elapsed_seconds(), std::move(code));
    };
    auto [emit_seconds, code] = emit_once();
    const int reps = static_cast<int>(
        std::clamp(bench::target_seconds() / std::max(emit_seconds, 1e-9),
                   4.0, 2000.0));
    for (int rep = 0; rep < reps; ++rep) {
      emit_seconds = std::min(emit_seconds, emit_once().first);
    }
    metrics.push_back(bench::time_metric(
        m + ".emit_seconds", bench::measured(m + ".emit_seconds", emit_seconds)));
    metrics.push_back(bench::count_metric(
        m + ".fused_regions", code.fused_regions));
    metrics.push_back(bench::count_metric(
        m + ".simd_instructions",
        static_cast<double>(code.simd_instructions.size())));
    metrics.push_back(bench::count_metric(
        m + ".static_buffer_bytes",
        static_cast<double>(code.static_buffer_bytes), "B"));
  }

  // -O2 pass facts (PR 7), all deterministic counts.  mixed_pipeline has a
  // deliberate scale boundary, so cross-scale fusion must fire; the dfsynth
  // leg is all scalar loops, so the tiling pass must fire.
  {
    Model model = resolved(benchmodels::mixed_pipeline_model(1024));
    synth::SelectionHistory history;
    codegen::GeneratedCode code = emit_hcg(model, &history, 2);
    const obs::Report& r = code.report;
    metrics.push_back(bench::count_metric(
        "mixed_pipeline.o2.cross_scale_fused", r.cross_scale_fused));
    metrics.push_back(bench::count_metric(
        "mixed_pipeline.o2.simd_instructions",
        static_cast<double>(code.simd_instructions.size())));
  }
  {
    Model model = resolved(benchmodels::fir_model(1024));
    codegen::GeneratedCode code =
        codegen::make_dfsynth_generator(2)->generate(model);
    const obs::Report& r = code.report;
    metrics.push_back(bench::count_metric(
        "fir_bench.dfsynth_o2.loops_tiled", r.loops_tiled));
  }

  // Algorithm 1 memo facts: 64 farm actors over 16 distinct keys, so a cold
  // generation measures each key once and answers the other 48 from the
  // in-run memo.  The -O2 pass facts of the same model then come from a
  // second, warm generation: its 59 fusions and its arena layout pin the
  // fusion order at scale.  The Simulink-like baseline's -O0 footprint pins
  // that -O0 shares buffers through the same arena pass.
  {
    Model model = resolved(benchmodels::intensive_farm_model(64, false));
    obs::Counter& precalc =
        obs::Registry::instance().counter("synth.precalc.runs");
    obs::Counter& dedup =
        obs::Registry::instance().counter("synth.pool.dedup_hits");
    const std::uint64_t precalc_before = precalc.value();
    const std::uint64_t dedup_before = dedup.value();
    synth::SelectionHistory history;
    (void)emit_hcg(model, &history);
    metrics.push_back(bench::count_metric(
        "farm64.precalc_runs",
        static_cast<double>(precalc.value() - precalc_before)));
    metrics.push_back(bench::count_metric(
        "farm64.dedup_hits",
        static_cast<double>(dedup.value() - dedup_before)));
    const obs::Report o2 = emit_hcg(model, &history, 2).report;
    metrics.push_back(
        bench::count_metric("farm64.o2.loops_fused", o2.loops_fused));
    metrics.push_back(bench::count_metric(
        "farm64.o2.arena_bytes_saved",
        static_cast<double>(o2.arena_bytes_saved)));
    metrics.push_back(bench::count_metric(
        "farm64.simulink_o0.static_buffer_bytes",
        static_cast<double>(
            codegen::make_simulink_generator()->generate(model)
                .static_buffer_bytes),
        "B"));
  }
  return metrics;
}

/// Compiled step() timing, HCG vs the Simulink-style baseline.  Needs a C
/// compiler; any toolchain failure skips the model with a warning rather
/// than failing the run (missing metrics warn, they don't regress).
std::vector<bench::BenchMetric> suite_exec() {
  std::vector<bench::BenchMetric> metrics;
  std::vector<Model> models;
  models.push_back(benchmodels::fir_model(1024));
  models.push_back(benchmodels::paper_fig4_model());
  for (Model& raw : models) {
    Model model = resolved(std::move(raw));
    const std::string m = model.name();
    try {
      bench::IoBinding io = bench::bind_io(model);
      synth::SelectionHistory history;
      codegen::GeneratedCode hcg_code = emit_hcg(model, &history);
      codegen::GeneratedCode sc_code =
          codegen::make_simulink_generator()->generate(model);

      toolchain::CompiledModel hcg_bin = bench::compile(hcg_code);
      bench::verify_against_oracle(hcg_bin, model, io, 2e-2);
      const double hcg_s =
          bench::time_steps(hcg_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

      toolchain::CompiledModel sc_bin = bench::compile(sc_code);
      bench::verify_against_oracle(sc_bin, model, io, 2e-2);
      const double sc_s =
          bench::time_steps(sc_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

      const double step = bench::measured(m + ".step_seconds", hcg_s);
      metrics.push_back(bench::time_metric(m + ".step_seconds", step));
      metrics.push_back(bench::ratio_metric(m + ".speedup_vs_simulink",
                                            sc_s / std::max(step, 1e-12)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: exec suite skipped '%s': %s\n",
                   m.c_str(), e.what());
    }
  }

  // -O2 vs -O1 on the cross-scale fusion workload: the measured win the
  // tentpole claims, gated against the committed baseline.
  try {
    Model model = resolved(benchmodels::mixed_pipeline_model(4096));
    bench::IoBinding io = bench::bind_io(model);
    synth::SelectionHistory history;
    codegen::GeneratedCode o1_code = emit_hcg(model, &history, 1);
    codegen::GeneratedCode o2_code = emit_hcg(model, &history, 2);

    toolchain::CompiledModel o1_bin = bench::compile(o1_code);
    bench::verify_against_oracle(o1_bin, model, io, 2e-2);
    const double o1_s =
        bench::time_steps(o1_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    toolchain::CompiledModel o2_bin = bench::compile(o2_code);
    bench::verify_against_oracle(o2_bin, model, io, 2e-2);
    const double o2_s =
        bench::time_steps(o2_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    const double step =
        bench::measured("mixed_pipeline.o2_step_seconds", o2_s);
    metrics.push_back(
        bench::time_metric("mixed_pipeline.o2_step_seconds", step));
    metrics.push_back(bench::ratio_metric("mixed_pipeline.o2_speedup_vs_o1",
                                          o1_s / std::max(step, 1e-12)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: exec suite skipped 'mixed_pipeline': %s\n",
                 e.what());
  }

  // Algorithm 1's measured tile choice on a 96x96 MatMul: the selected
  // cache-blocked kernel against the generic row-column fallback the
  // baseline tools use.
  try {
    Model model = resolved(benchmodels::matmul_pipeline_model(96));
    bench::IoBinding io = bench::bind_io(model);
    synth::SelectionHistory history;
    codegen::GeneratedCode hcg_code = emit_hcg(model, &history, 2);
    codegen::GeneratedCode generic_code =
        codegen::make_dfsynth_generator()->generate(model);

    toolchain::CompiledModel hcg_bin = bench::compile(hcg_code);
    bench::verify_against_oracle(hcg_bin, model, io, 2e-2);
    const double hcg_s =
        bench::time_steps(hcg_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    toolchain::CompiledModel generic_bin = bench::compile(generic_code);
    bench::verify_against_oracle(generic_bin, model, io, 2e-2);
    const double generic_s =
        bench::time_steps(generic_bin, io.in_ptrs, io.out_ptrs)
            .seconds_per_step;

    const double step =
        bench::measured("matmul_pipeline.step_seconds", hcg_s);
    metrics.push_back(
        bench::time_metric("matmul_pipeline.step_seconds", step));
    metrics.push_back(bench::ratio_metric(
        "matmul_pipeline.blocked_speedup_vs_generic",
        generic_s / std::max(step, 1e-12)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: exec suite skipped 'matmul_pipeline': %s\n",
                 e.what());
  }
  return metrics;
}

/// Scalable-backend kernel sweep (PR 8): the predicated-tail loop form
/// (--isa sve) against the fixed-width vector+remainder form (neon_sim) on
/// lengths that do and do not divide the lane count.  The count metrics are
/// the tentpole's acceptance facts — every sve region lowers to predicated
/// loops with zero scalar-remainder elements, while the fixed-width table
/// provably leaves a tail on the prime length.  The timing leg compares the
/// two tail strategies on compiled code (both tables are simulated, so this
/// runs on any host with a C compiler).
std::vector<bench::BenchMetric> suite_sve() {
  std::vector<bench::BenchMetric> metrics;
  auto emit_with = [](const Model& model, const char* table) {
    synth::SelectionHistory history;
    auto gen =
        codegen::make_hcg_generator(isa::builtin(table), &history, {}, 1);
    return gen->generate(model);
  };
  auto remainder_elems = [](const obs::Report& report) {
    int total = 0;
    for (const obs::ReportRegion& region : report.regions) {
      total += region.scalar_remainder;
    }
    return total;
  };

  // 1024 divides every lane count; 1021 is prime, so every fixed-width
  // table leaves a scalar tail there and the scalable table must not.
  const int kLengths[] = {1024, 1021};
  for (int n : kLengths) {
    Model model = resolved(benchmodels::fir_model(n));
    const std::string m = "fir" + std::to_string(n);
    codegen::GeneratedCode sve_code = emit_with(model, "sve");
    codegen::GeneratedCode neon_code = emit_with(model, "neon_sim");
    metrics.push_back(bench::count_metric(
        m + ".sve.loops_predicated", sve_code.report.loops_predicated));
    metrics.push_back(bench::count_metric(
        m + ".sve.remainder_elems", remainder_elems(sve_code.report)));
    metrics.push_back(bench::count_metric(
        m + ".neon.remainder_elems", remainder_elems(neon_code.report)));
    metrics.push_back(bench::count_metric(
        m + ".sve.simd_instructions",
        static_cast<double>(sve_code.simd_instructions.size())));
  }

  // Timing leg on the prime length, where the tail strategy actually
  // matters: one predicated loop vs vector body + 1021%lanes scalar steps.
  try {
    Model model = resolved(benchmodels::fir_model(1021));
    bench::IoBinding io = bench::bind_io(model);
    codegen::GeneratedCode sve_code = emit_with(model, "sve");
    codegen::GeneratedCode neon_code = emit_with(model, "neon_sim");

    toolchain::CompiledModel sve_bin = bench::compile(sve_code);
    bench::verify_against_oracle(sve_bin, model, io, 2e-2);
    const double sve_s =
        bench::time_steps(sve_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    toolchain::CompiledModel neon_bin = bench::compile(neon_code);
    bench::verify_against_oracle(neon_bin, model, io, 2e-2);
    const double neon_s =
        bench::time_steps(neon_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    const double step = bench::measured("fir1021.sve_step_seconds", sve_s);
    metrics.push_back(bench::time_metric("fir1021.sve_step_seconds", step));
    metrics.push_back(bench::ratio_metric(
        "fir1021.predicated_vs_remainder", neon_s / std::max(step, 1e-12)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: sve suite skipped timing leg: %s\n",
                 e.what());
  }
  return metrics;
}

/// Range-driven lane narrowing: the rangepipe workload's declared Inport
/// ranges prove every intermediate fits i16, so at -O1 its region re-plans
/// at 8 NEON lanes instead of 4 (deterministic count facts), while the
/// identical graph without range facts must stay at i32.  The timing leg
/// runs both compiled pipelines on the same range-respecting inputs — the
/// measured narrowing win, gated against the committed baseline.
std::vector<bench::BenchMetric> suite_range() {
  std::vector<bench::BenchMetric> metrics;
  Model narrow = resolved(benchmodels::rangepipe_model(4096, true));
  Model wide = resolved(benchmodels::rangepipe_model(4096, false));
  synth::SelectionHistory history;
  codegen::GeneratedCode narrow_code = emit_hcg(narrow, &history);
  codegen::GeneratedCode wide_code = emit_hcg(wide, &history);
  metrics.push_back(bench::count_metric("rangepipe.o1.regions_narrowed",
                                        narrow_code.report.regions_narrowed));
  metrics.push_back(bench::count_metric("rangepipe.o1.narrowing_blocked",
                                        narrow_code.report.narrowing_blocked));
  metrics.push_back(bench::count_metric("rangepipe_wide.o1.regions_narrowed",
                                        wide_code.report.regions_narrowed));
  metrics.push_back(bench::count_metric(
      "rangepipe.o1.simd_instructions",
      static_cast<double>(narrow_code.simd_instructions.size())));

  try {
    bench::IoBinding io = bench::bind_io(narrow);  // honors declared ranges

    toolchain::CompiledModel narrow_bin = bench::compile(narrow_code);
    bench::verify_against_oracle(narrow_bin, narrow, io, 2e-2);
    const double narrow_s =
        bench::time_steps(narrow_bin, io.in_ptrs, io.out_ptrs)
            .seconds_per_step;

    // Same port layout, so the wide binary binds the same inputs.
    toolchain::CompiledModel wide_bin = bench::compile(wide_code);
    bench::verify_against_oracle(wide_bin, wide, io, 2e-2);
    const double wide_s =
        bench::time_steps(wide_bin, io.in_ptrs, io.out_ptrs).seconds_per_step;

    const double step =
        bench::measured("rangepipe.step_seconds", narrow_s);
    metrics.push_back(bench::time_metric("rangepipe.step_seconds", step));
    metrics.push_back(bench::ratio_metric("rangepipe.narrow_speedup_vs_wide",
                                          wide_s / std::max(step, 1e-12)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: range suite skipped timing leg: %s\n",
                 e.what());
  }
  return metrics;
}

struct Suite {
  const char* name;
  /// Instruction table the suite's codegen targets; recorded in the env
  /// fingerprint so baselines from different ISAs never gate each other.
  const char* isa;
  std::function<std::vector<bench::BenchMetric>()> run;
};

const Suite kSuites[] = {
    {"codegen", "neon_sim", suite_codegen},
    {"exec", "neon_sim", suite_exec},
    {"sve", "sve", suite_sve},
    {"range", "neon_sim", suite_range},
};

// ---- baseline comparison --------------------------------------------------

struct CheckStats {
  int compared = 0;
  int regressions = 0;
  int skipped = 0;
  int warnings = 0;
};

const bench::BenchMetric* find_metric(
    const std::vector<bench::BenchMetric>& metrics, std::string_view name) {
  for (const bench::BenchMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Compares the freshly measured `current` metrics against one suite's
/// committed baseline document.
void check_suite(const std::string& suite, const obs::JsonValue& baseline,
                 const std::vector<bench::BenchMetric>& current,
                 const bench::BenchEnv& env, double threshold_pct, bool strict,
                 CheckStats& stats) {
  // Environment fingerprint: noisy metrics only gate when every recorded
  // field matches.  `mismatch` names the first disagreeing field so the
  // skip line says *why* the baseline does not apply here.  Fields the
  // baseline never recorded (older schema) constrain nothing, and fields
  // this run no longer records (an old baseline's "jobs") are ignored.
  const obs::JsonValue* base_env = baseline.find("env");
  std::string mismatch;
  char detail[160] = "";
  if (const obs::JsonValue* v = base_env ? base_env->find("cpus") : nullptr) {
    const auto base_cpus = static_cast<std::uint64_t>(v->number);
    if (base_cpus != env.cpus) {
      mismatch = "cpus";
      std::snprintf(detail, sizeof(detail), "baseline cpus=%llu, here %u",
                    static_cast<unsigned long long>(base_cpus), env.cpus);
    }
  }
  if (mismatch.empty()) {
    if (const obs::JsonValue* v = base_env ? base_env->find("cc") : nullptr) {
      if (v->string != env.cc) {
        mismatch = "cc";
        std::snprintf(detail, sizeof(detail),
                      "baseline cc '%s', here '%s'", v->string.c_str(),
                      env.cc.c_str());
      }
    }
  }
  if (mismatch.empty()) {
    if (const obs::JsonValue* v = base_env ? base_env->find("isa") : nullptr) {
      if (v->string != env.isa) {
        mismatch = "isa";
        std::snprintf(detail, sizeof(detail),
                      "baseline isa '%s', here '%s'", v->string.c_str(),
                      env.isa.c_str());
      }
    }
  }
  const bool env_match = mismatch.empty();

  const obs::JsonValue* base_metrics = baseline.find("metrics");
  if (base_metrics == nullptr || !base_metrics->is_array()) {
    std::fprintf(stderr, "warning: baseline for '%s' has no metrics array\n",
                 suite.c_str());
    ++stats.warnings;
    return;
  }

  for (const obs::JsonValue& entry : base_metrics->array) {
    const obs::JsonValue* name_v = entry.find("name");
    const obs::JsonValue* value_v = entry.find("value");
    const obs::JsonValue* kind_v = entry.find("kind");
    if (name_v == nullptr || value_v == nullptr || kind_v == nullptr) continue;
    const std::string& name = name_v->string;
    const double base = value_v->number;
    const std::string& kind = kind_v->string;
    const obs::JsonValue* hb = entry.find("higher_better");
    const bool higher_better = hb != nullptr && hb->boolean;

    const bench::BenchMetric* cur = find_metric(current, name);
    if (cur == nullptr) {
      std::printf("  MISSING    %-34s (baseline %.6g; not measured)\n",
                  name.c_str(), base);
      ++stats.warnings;
      continue;
    }

    if (kind == "count") {
      ++stats.compared;
      if (std::fabs(cur->value - base) > 1e-9) {
        std::printf("  DRIFT      %-34s %.6g -> %.6g (count must match "
                    "exactly; re-record the baseline if intended)\n",
                    name.c_str(), base, cur->value);
        ++stats.regressions;
      } else {
        std::printf("  OK         %-34s %.6g\n", name.c_str(), cur->value);
      }
      continue;
    }

    // Noisy metric: only gate on a matching environment fingerprint.
    if (!env_match && !strict) {
      std::printf("  SKIP       %-34s (env '%s' differs: %s)\n", name.c_str(),
                  mismatch.c_str(), detail);
      ++stats.skipped;
      continue;
    }

    ++stats.compared;
    const double ratio = threshold_pct / 100.0;
    const bool worse = higher_better ? cur->value < base * (1.0 - ratio)
                                     : cur->value > base * (1.0 + ratio);
    const bool better = higher_better ? cur->value > base * (1.0 + ratio)
                                      : cur->value < base * (1.0 - ratio);
    const char* verdict = worse ? "REGRESSION" : better ? "IMPROVED" : "OK";
    std::printf("  %-10s %-34s %.6g -> %.6g %s (threshold %.0f%%)\n", verdict,
                name.c_str(), base, cur->value, cur->unit.c_str(),
                threshold_pct);
    if (worse) ++stats.regressions;
  }
}

void usage(FILE* out) {
  std::fprintf(out,
               "usage: bench_runner [--record | --check] [options]\n"
               "  --record            run suites, write BENCH_<suite>.json "
               "(default mode)\n"
               "  --check             also compare against --baseline; exit "
               "%d on regression\n"
               "  --baseline DIR      directory with committed "
               "BENCH_<suite>.json files\n"
               "  --out DIR           where to write results (default .)\n"
               "  --suite NAME        run one suite (repeatable; default "
               "all: codegen exec sve range)\n"
               "  --threshold PCT     relative tolerance for time/ratio "
               "metrics (default 40)\n"
               "  --strict            gate noisy metrics even when the cpu "
               "fingerprint differs\n"
               "  --list              print suite names and exit\n",
               kExitRegression);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool strict = false;
  std::string out_dir = ".";
  std::string baseline_dir;
  double threshold_pct = 40.0;
  std::vector<std::string> selected;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--record") {
      check = false;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--baseline") {
      baseline_dir = next("--baseline");
    } else if (arg == "--suite") {
      selected.push_back(next("--suite"));
    } else if (arg == "--threshold") {
      threshold_pct = std::atof(next("--threshold"));
    } else if (arg == "--list") {
      for (const Suite& suite : kSuites) std::printf("%s\n", suite.name);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (check && baseline_dir.empty()) {
    std::fprintf(stderr, "error: --check requires --baseline DIR\n");
    return 2;
  }
  for (const std::string& name : selected) {
    bool known = false;
    for (const Suite& suite : kSuites) known |= name == suite.name;
    if (!known) {
      std::fprintf(stderr, "error: unknown suite '%s' (see --list)\n",
                   name.c_str());
      return 2;
    }
  }

  const bench::BenchEnv env = bench::bench_env();
  std::printf("bench_runner: cpus=%u flags=%s git=%s mode=%s\n", env.cpus,
              env.flags.c_str(), env.git_rev.c_str(),
              check ? "check" : "record");

  CheckStats stats;
  for (const Suite& suite : kSuites) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), suite.name) ==
            selected.end()) {
      continue;
    }
    std::printf("\n== suite %s ==\n", suite.name);
    bench::BenchEnv suite_env = env;
    suite_env.isa = suite.isa;
    const std::vector<bench::BenchMetric> metrics = suite.run();
    const std::string path =
        bench::write_bench_json(out_dir, suite.name, suite_env, metrics);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());

    if (!check) continue;
    const std::string base_path =
        baseline_dir + "/BENCH_" + suite.name + ".json";
    obs::JsonValue baseline;
    try {
      baseline = obs::json_parse(read_file(base_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: no usable baseline at %s: %s\n",
                   base_path.c_str(), e.what());
      ++stats.warnings;
      continue;
    }
    check_suite(suite.name, baseline, metrics, suite_env, threshold_pct,
                strict, stats);
  }

  if (check) {
    std::printf("\n%d compared, %d regressions, %d skipped, %d warnings\n",
                stats.compared, stats.regressions, stats.skipped,
                stats.warnings);
    if (stats.regressions > 0) return kExitRegression;
  }
  return 0;
}
