// Runtime profiling surface (docs/PROFILING.md): --profile-gen
// instrumentation is inert unless enabled, numerically invisible when
// compiled in and degrades cleanly under injected faults; and the
// deterministic codegen counts match their pinned values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <span>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"
#include "synth/history.hpp"
#include "toolchain/compiled_model.hpp"
#include "toolchain/profile_runner.hpp"
#include "vm/interpreter.hpp"

namespace hcg {
namespace {

struct CliResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

/// Runs an executable through the shell with an optional `VAR=val` env
/// prefix (the fault-injection tests arm HCG_FAULTS this way).
CliResult run_exe(const std::string& exe, const std::string& args,
                  const std::string& env_prefix = "") {
  TempDir dir;
  const auto out_path = dir.path() / "out.txt";
  const std::string cmd = (env_prefix.empty() ? "" : env_prefix + " ") + exe +
                          " " + args + " > " + out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::string output;
  try {
    output = read_file(out_path);
  } catch (const Error&) {
  }
  return CliResult{rc == -1 ? -1 : WEXITSTATUS(rc), output};
}

codegen::GeneratedCode generate(const Model& model, bool profile_gen) {
  auto hcg = codegen::make_hcg_generator(isa::builtin("neon_sim"), nullptr,
                                         {}, /*opt_level=*/1, profile_gen);
  return hcg->generate(model);
}

// ---------------------------------------------------------------------------
// Byte identity: the profiling pass must be structurally unreachable when
// --profile-gen is off.

TEST(ProfileGen, OffMeansByteIdenticalOutput) {
  Model model = resolved(benchmodels::paper_fig4_model());
  for (int opt_level : {0, 1}) {
    codegen::EmitConfig config;
    config.tool_name = "hcg";
    config.batch_mode = codegen::BatchMode::kRegions;
    config.isa = &isa::builtin("neon_sim");
    config.select_intensive = true;
    config.opt_level = opt_level;
    config.dump_cgir_after = "final";
    const codegen::GeneratedCode plain = codegen::emit_model(model, config);
    config.profile_gen = false;  // explicit off == default
    const codegen::GeneratedCode off = codegen::emit_model(model, config);
    EXPECT_EQ(plain.source, off.source) << "-O" << opt_level;
    EXPECT_EQ(plain.cgir_dump_after, off.cgir_dump_after) << "-O" << opt_level;
    EXPECT_EQ(off.source.find("HCG_PROF"), std::string::npos);
    EXPECT_TRUE(off.profile_sites.empty());
  }
}

TEST(ProfileGen, OnInstrumentsSitesBehindMacro) {
  // fft_model carries an intensive FFT actor, so both site kinds appear.
  Model model = resolved(benchmodels::fft_model());
  const codegen::GeneratedCode code = generate(model, true);
  ASSERT_FALSE(code.profile_sites.empty());
  EXPECT_NE(code.source.find("#ifdef HCG_PROF"), std::string::npos);
  EXPECT_NE(code.source.find("hcg_prof_dump"), std::string::npos);
  bool has_intensive = false;
  for (const cgir::ProfileSite& site : code.profile_sites) {
    has_intensive |= site.kind == "intensive";
  }
  EXPECT_TRUE(has_intensive);
}

// ---------------------------------------------------------------------------
// Exec oracle: instrumentation must never change what the code computes —
// neither dormant (no -DHCG_PROF) nor active (counters running).

TEST(ProfileGen, InstrumentedCodeMatchesOracle) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler on this host";
  }
  Model model = resolved(benchmodels::paper_fig4_model());
  const std::vector<Tensor> inputs = benchmodels::workload(model);

  Interpreter oracle(model);
  oracle.init();
  const std::vector<Tensor> expected = oracle.step(inputs);

  const codegen::GeneratedCode code = generate(model, true);
  for (const bool define_prof : {false, true}) {
    toolchain::CompileOptions options;
    if (define_prof) options.extra_flags.push_back("-DHCG_PROF");
    toolchain::CompiledModel compiled(code, options);
    compiled.init();
    const std::vector<Tensor> got = compiled.step_tensors(model, inputs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_LE(got[i].max_abs_difference(expected[i]), 2e-2)
          << "-DHCG_PROF=" << define_prof << " output " << i;
    }
  }
}

TEST(ProfileRunner, MeasuresEverySite) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler on this host";
  }
  Model model = resolved(benchmodels::paper_fig4_model());
  const codegen::GeneratedCode code = generate(model, true);
  toolchain::ProfileRunOptions options;
  options.reps = 10;
  // Twice in one process: each run loads a fresh copy of the unit, so its
  // counters start at zero rather than carrying the first run's totals.
  for (int run = 0; run < 2; ++run) {
    const toolchain::ProfileResult result =
        toolchain::run_profile(code, model, options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.reps, 10);
    EXPECT_EQ(result.clock, "monotonic_ns");
    ASSERT_EQ(result.sites.size(), code.profile_sites.size());
    for (std::size_t i = 0; i < result.sites.size(); ++i) {
      const toolchain::ProfileSiteSample& site = result.sites[i];
      EXPECT_EQ(site.id, code.profile_sites[i].id) << "run " << run;
      EXPECT_EQ(site.kind, code.profile_sites[i].kind) << site.id;
      EXPECT_EQ(site.label, code.profile_sites[i].label) << site.id;
      // warm-up + reps steps, each hitting every top-level site once
      EXPECT_EQ(site.calls, 11u) << "run " << run << " site " << site.id;
    }
  }
}

TEST(ProfileRunner, DegradesWithoutInstrumentation) {
  Model model = resolved(benchmodels::paper_fig4_model());
  const codegen::GeneratedCode code = generate(model, false);
  const toolchain::ProfileResult result = toolchain::run_profile(code, model);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("profile-gen"), std::string::npos);
}

// ---------------------------------------------------------------------------
// `hcgc profile` end to end

std::string fig4_path() {
  return std::string(HCG_EXAMPLES_DIR) + "/fig4.xml";
}

TEST(ProfileCli, ReportCarriesRuntimeProfile) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler on this host";
  }
  TempDir dir;
  const std::string report_path = (dir.path() / "report.json").string();
  CliResult r = run_exe(HCG_HCGC_PATH, "profile " + fig4_path() +
                                           " --isa neon_sim --reps 5 "
                                           "--report " + report_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ns/call"), std::string::npos);

  const obs::JsonValue report = obs::json_parse(read_file(report_path));
  const obs::JsonValue* profile = report.find("runtime_profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->at("reps").number, 5.0);
  const obs::JsonValue& sites = profile->at("sites");
  ASSERT_TRUE(sites.is_array());
  ASSERT_FALSE(sites.array.empty());
  bool has_prediction = false;
  for (const obs::JsonValue& site : sites.array) {
    EXPECT_NE(site.find("id"), nullptr);
    EXPECT_NE(site.find("ns"), nullptr);
    EXPECT_NE(site.find("calls"), nullptr);
    EXPECT_NE(site.find("iters"), nullptr);
    EXPECT_NE(site.find("mean_ns_per_call"), nullptr);
    has_prediction |= site.find("abs_err_pct") != nullptr;
  }
  // fig4's FFT is an intensive actor with measured candidates, so at least
  // one site joins against Algorithm 1's predicted cost.
  EXPECT_TRUE(has_prediction);
}

TEST(ProfileCli, SpawnFaultDegradesToPlainReport) {
  // Either way the instrumented unit cannot be built: the compiler process
  // never starts, or it runs and reports an error.
  for (const char* fault :
       {"subprocess.spawn=fail", "toolchain.compile=fail"}) {
    TempDir dir;
    const std::string report_path = (dir.path() / "report.json").string();
    CliResult r = run_exe(HCG_HCGC_PATH,
                          "profile " + fig4_path() +
                              " --isa neon_sim --reps 5 --report " +
                              report_path,
                          std::string("HCG_FAULTS='") + fault + "'");
    // Degraded, not dead: exit 0, report written, no runtime_profile
    // section, HCG502 explains why.
    ASSERT_EQ(r.exit_code, 0) << fault << "\n" << r.output;
    EXPECT_NE(r.output.find("HCG502"), std::string::npos) << fault;
    const obs::JsonValue report = obs::json_parse(read_file(report_path));
    EXPECT_EQ(report.find("runtime_profile"), nullptr) << fault;
    const obs::JsonValue* diags = report.find("diagnostics");
    ASSERT_NE(diags, nullptr) << fault;
    bool saw_degraded = false;
    for (const obs::JsonValue& d : diags->array) {
      const obs::JsonValue* code = d.find("code");
      saw_degraded |= code != nullptr && code->string == "HCG502";
    }
    EXPECT_TRUE(saw_degraded) << fault;
  }
}

// ---------------------------------------------------------------------------
// Codegen counts: the deterministic integers behind the paper's count
// claims, pinned exactly.  §4.1's memory parity is the E5 static buffer
// bytes per tool; §4.2's fusion is the region, SIMD instruction and -O2
// pass counts; Algorithm 1's memo is the farm's precalc and dedup counts.
// A failing row names its metric and prints the measured and the pinned
// value; re-pin a count that changed on purpose by editing its row.

struct PinnedCount {
  const char* metric;
  std::int64_t value;
};

constexpr PinnedCount kPaperAndFarmCounts[] = {
    {"fir_bench.fused_regions", 1},
    {"fir_bench.simd_instructions", 1},
    {"fir_bench.static_buffer_bytes", 4096},
    {"highpass_bench.fused_regions", 1},
    {"highpass_bench.simd_instructions", 3},
    {"highpass_bench.static_buffer_bytes", 8192},
    {"fig4_sample.fused_regions", 1},
    {"fig4_sample.simd_instructions", 3},
    {"fig4_sample.static_buffer_bytes", 0},
    {"fft_bench.simulink_o0.static_buffer_bytes", 0},
    {"fft_bench.dfsynth_o0.static_buffer_bytes", 0},
    {"fft_bench.static_buffer_bytes", 0},
    {"dct_bench.simulink_o0.static_buffer_bytes", 0},
    {"dct_bench.dfsynth_o0.static_buffer_bytes", 0},
    {"dct_bench.static_buffer_bytes", 0},
    {"conv_bench.simulink_o0.static_buffer_bytes", 256},
    {"conv_bench.dfsynth_o0.static_buffer_bytes", 256},
    {"conv_bench.static_buffer_bytes", 256},
    {"highpass_bench.simulink_o0.static_buffer_bytes", 16384},
    {"highpass_bench.dfsynth_o0.static_buffer_bytes", 20480},
    {"lowpass_bench.simulink_o0.static_buffer_bytes", 8192},
    {"lowpass_bench.dfsynth_o0.static_buffer_bytes", 12288},
    {"lowpass_bench.static_buffer_bytes", 0},
    {"fir_bench.simulink_o0.static_buffer_bytes", 8192},
    {"fir_bench.dfsynth_o0.static_buffer_bytes", 8192},
    {"mixed_pipeline.o2.cross_scale_fused", 1},
    {"mixed_pipeline.o2.simd_instructions", 2},
    {"highpass_bench.simulink_scattered_o1.copies_elided", 7},
    {"highpass_bench.simulink_scattered_o1.static_buffer_bytes", 8192},
    {"farm64.precalc_runs", 16},
    {"farm64.dedup_hits", 48},
    {"farm64.o1.loops_fused", 59},
    {"farm64.o1.copies_elided", 0},
    {"farm64.o1.static_buffer_bytes", 17856},
    {"farm64.o2.loops_fused", 59},
    {"farm64.o2.arena_bytes_saved", 1888},
    {"farm64.simulink_o0.static_buffer_bytes", 1724},
};

constexpr PinnedCount kScalableAndRangeCounts[] = {
    {"fir1024.sve.loops_predicated", 1},
    {"fir1024.sve.remainder_elems", 0},
    {"fir1024.neon.remainder_elems", 0},
    {"fir1024.sve.simd_instructions", 1},
    {"fir1021.sve.loops_predicated", 1},
    {"fir1021.sve.remainder_elems", 0},
    {"fir1021.neon.remainder_elems", 1},
    {"fir1021.sve.simd_instructions", 1},
    {"rangepipe.o1.regions_narrowed", 1},
    {"rangepipe.o1.narrowing_blocked", 0},
    {"rangepipe_wide.o1.regions_narrowed", 0},
    {"rangepipe.o1.simd_instructions", 18},
};

using Counts = std::map<std::string, std::int64_t>;

void expect_pinned(const Counts& measured,
                   std::span<const PinnedCount> pinned) {
  for (const PinnedCount& row : pinned) {
    const auto it = measured.find(row.metric);
    if (it == measured.end()) {
      ADD_FAILURE() << row.metric << ": pinned " << row.value
                    << ", not measured";
    } else if (it->second != row.value) {
      ADD_FAILURE() << row.metric << ": measured " << it->second
                    << ", pinned " << row.value;
    }
  }
  for (const auto& [metric, value] : measured) {
    if (std::ranges::none_of(pinned, [&](const PinnedCount& row) {
          return metric == row.metric;
        })) {
      ADD_FAILURE() << metric << ": measured " << value << ", not pinned";
    }
  }
}

codegen::GeneratedCode emit_hcg(const Model& model, const char* isa_name,
                                int opt_level = 1) {
  synth::SelectionHistory history;
  return codegen::make_hcg_generator(isa::builtin(isa_name), &history, {},
                                     opt_level)
      ->generate(model);
}

TEST(CodegenCounts, PaperModelsAndFarm64) {
  Counts measured;
  std::vector<Model> models;
  models.push_back(benchmodels::fir_model(1024));
  models.push_back(benchmodels::highpass_model(1024));
  models.push_back(benchmodels::paper_fig4_model());
  for (Model& raw : models) {
    const Model model = resolved(std::move(raw));
    const std::string m = model.name();
    const codegen::GeneratedCode code = emit_hcg(model, "neon_sim");
    measured[m + ".fused_regions"] = code.fused_regions;
    measured[m + ".simd_instructions"] =
        static_cast<std::int64_t>(code.simd_instructions.size());
    measured[m + ".static_buffer_bytes"] =
        static_cast<std::int64_t>(code.static_buffer_bytes);
  }

  // E5 memory parity: static buffer bytes of the six paper models under
  // both baselines, next to HCG's (fir and highpass are measured above).
  // The baselines run no selection, and forcing each FFT/DCT/Conv
  // candidate leaves HCG's bytes unchanged, so no row follows Algorithm 1's
  // measured pick.
  for (Model& raw : benchmodels::paper_models()) {
    const Model model = resolved(std::move(raw));
    const std::string m = model.name();
    measured[m + ".simulink_o0.static_buffer_bytes"] =
        static_cast<std::int64_t>(codegen::make_simulink_generator()
                                      ->generate(model)
                                      .static_buffer_bytes);
    measured[m + ".dfsynth_o0.static_buffer_bytes"] =
        static_cast<std::int64_t>(codegen::make_dfsynth_generator()
                                      ->generate(model)
                                      .static_buffer_bytes);
    if (!measured.contains(m + ".static_buffer_bytes")) {
      measured[m + ".static_buffer_bytes"] = static_cast<std::int64_t>(
          emit_hcg(model, "neon_sim").static_buffer_bytes);
    }
  }

  // mixed_pipeline has a deliberate scale boundary, so -O2's cross-scale
  // fusion must fire.
  {
    const Model model = resolved(benchmodels::mixed_pipeline_model(1024));
    const codegen::GeneratedCode code = emit_hcg(model, "neon_sim", 2);
    measured["mixed_pipeline.o2.cross_scale_fused"] =
        code.report.cross_scale_fused;
    measured["mixed_pipeline.o2.simd_instructions"] =
        static_cast<std::int64_t>(code.simd_instructions.size());
  }

  // The -O1 pipeline on the scattered Simulink-like baseline (one vector
  // loop per actor): fusion merges the per-actor loops, forwarding drops
  // the reloads of each handoff buffer, and dead-buffer elimination
  // deletes the handoff buffers and their stores (3 of the 7 elided
  // copies), leaving two buffers.  HCG's own regions keep their handoffs in
  // registers, so no HCG cell gives that pass work.
  {
    const Model model = resolved(benchmodels::highpass_model(1024));
    const codegen::GeneratedCode code =
        codegen::make_simulink_generator(&isa::builtin("sse"), 1)
            ->generate(model);
    measured["highpass_bench.simulink_scattered_o1.copies_elided"] =
        code.report.copies_elided;
    measured["highpass_bench.simulink_scattered_o1.static_buffer_bytes"] =
        static_cast<std::int64_t>(code.static_buffer_bytes);
  }

  // 64 farm actors over 16 distinct keys: a cold -O1 generation measures
  // each key once and answers the other 48 from the in-run memo; it also
  // pins the -O1 fusion count and arena footprint.  A second, warm -O2
  // generation pins fusion order and the arena layout at scale, and the
  // Simulink-like baseline's -O0 footprint pins that -O0 shares buffers
  // through the same arena pass.
  {
    const Model model =
        resolved(benchmodels::intensive_farm_model(64, false));
    const obs::Counter& precalc =
        obs::Registry::instance().counter("synth.precalc.runs");
    const obs::Counter& dedup =
        obs::Registry::instance().counter("synth.pool.dedup_hits");
    const std::uint64_t precalc_before = precalc.value();
    const std::uint64_t dedup_before = dedup.value();
    synth::SelectionHistory history;
    auto generator = [&](int opt_level) {
      return codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                         {}, opt_level);
    };
    const codegen::GeneratedCode o1 = generator(1)->generate(model);
    measured["farm64.o1.loops_fused"] = o1.report.loops_fused;
    measured["farm64.o1.copies_elided"] = o1.report.copies_elided;
    measured["farm64.o1.static_buffer_bytes"] =
        static_cast<std::int64_t>(o1.static_buffer_bytes);
    measured["farm64.precalc_runs"] =
        static_cast<std::int64_t>(precalc.value() - precalc_before);
    measured["farm64.dedup_hits"] =
        static_cast<std::int64_t>(dedup.value() - dedup_before);
    const obs::Report o2 = generator(2)->generate(model).report;
    measured["farm64.o2.loops_fused"] = o2.loops_fused;
    measured["farm64.o2.arena_bytes_saved"] =
        static_cast<std::int64_t>(o2.arena_bytes_saved);
    measured["farm64.simulink_o0.static_buffer_bytes"] =
        static_cast<std::int64_t>(codegen::make_simulink_generator()
                                      ->generate(model)
                                      .static_buffer_bytes);
  }
  expect_pinned(measured, kPaperAndFarmCounts);
}

TEST(CodegenCounts, ScalableAndRangeNarrowing) {
  Counts measured;
  // The predicated-tail loop form (sve) against the fixed-width vector plus
  // remainder form (neon_sim): 1024 divides every lane count, while 1021 is
  // prime, so the fixed-width table leaves a scalar tail there and the
  // scalable table must not.
  auto remainder_elems = [](const obs::Report& report) {
    std::int64_t total = 0;
    for (const obs::ReportRegion& region : report.regions) {
      total += region.scalar_remainder;
    }
    return total;
  };
  for (int n : {1024, 1021}) {
    const Model model = resolved(benchmodels::fir_model(n));
    const std::string m = "fir" + std::to_string(n);
    const codegen::GeneratedCode sve = emit_hcg(model, "sve");
    const codegen::GeneratedCode neon = emit_hcg(model, "neon_sim");
    measured[m + ".sve.loops_predicated"] = sve.report.loops_predicated;
    measured[m + ".sve.remainder_elems"] = remainder_elems(sve.report);
    measured[m + ".neon.remainder_elems"] = remainder_elems(neon.report);
    measured[m + ".sve.simd_instructions"] =
        static_cast<std::int64_t>(sve.simd_instructions.size());
  }

  // rangepipe's declared Inport ranges prove every intermediate fits i16,
  // so at -O1 its region re-plans at 8 NEON lanes instead of 4; the same
  // graph without range facts stays at i32.
  const codegen::GeneratedCode narrow =
      emit_hcg(resolved(benchmodels::rangepipe_model(4096, true)), "neon_sim");
  const codegen::GeneratedCode wide = emit_hcg(
      resolved(benchmodels::rangepipe_model(4096, false)), "neon_sim");
  measured["rangepipe.o1.regions_narrowed"] = narrow.report.regions_narrowed;
  measured["rangepipe.o1.narrowing_blocked"] =
      narrow.report.narrowing_blocked;
  measured["rangepipe_wide.o1.regions_narrowed"] =
      wide.report.regions_narrowed;
  measured["rangepipe.o1.simd_instructions"] =
      static_cast<std::int64_t>(narrow.simd_instructions.size());
  expect_pinned(measured, kScalableAndRangeCounts);
}

}  // namespace
}  // namespace hcg
