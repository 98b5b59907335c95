// Runtime profiling surface (docs/PROFILING.md): --profile-gen
// instrumentation is inert unless enabled, numerically invisible when
// compiled in, degrades cleanly under injected faults, and the bench count
// gate fails on any difference from its baseline.
#include <gtest/gtest.h>

#include <cstdlib>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"
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
// Bench count gate (bench_runner --check)

TEST(BenchGate, RecordThenCheckPasses) {
  TempDir base_dir;
  TempDir out_dir;
  CliResult record = run_exe(
      HCG_BENCH_RUNNER_PATH,
      "--record --suite codegen --out " + base_dir.path().string());
  ASSERT_EQ(record.exit_code, 0) << record.output;
  CliResult check = run_exe(HCG_BENCH_RUNNER_PATH,
                            "--check --suite codegen --baseline " +
                                base_dir.path().string() + " --out " +
                                out_dir.path().string());
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("0 regressions, 0 skipped"), std::string::npos)
      << check.output;
  // Both sides wrote the standardized artifact.
  EXPECT_TRUE(obs::json_valid(
      read_file(base_dir.path() / "BENCH_codegen.json")));
}

TEST(BenchGate, InjectedSlowdownTripsGate) {
  TempDir base_dir;
  TempDir out_dir;
  CliResult record = run_exe(
      HCG_BENCH_RUNNER_PATH,
      "--record --suite codegen --out " + base_dir.path().string());
  ASSERT_EQ(record.exit_code, 0) << record.output;
  const auto baseline = base_dir.path() / "BENCH_codegen.json";
  const std::string recorded = read_file(baseline);
  const std::string check_args = "--check --suite codegen --baseline " +
                                 base_dir.path().string() + " --out " +
                                 out_dir.path().string();

  // One count changed: prefixing a digit to the first value changes it.
  std::string drifted = recorded;
  const std::size_t value = drifted.find("\"value\":");
  ASSERT_NE(value, std::string::npos) << recorded;
  drifted.insert(value + 8, "7");
  write_file(baseline, drifted);
  CliResult check = run_exe(HCG_BENCH_RUNNER_PATH, check_args);
  EXPECT_EQ(check.exit_code, 9) << check.output;
  EXPECT_NE(check.output.find("DRIFT"), std::string::npos) << check.output;

  // A baseline metric this run does not produce.
  std::string extra = recorded;
  const std::size_t metrics = extra.find("\"metrics\":[");
  ASSERT_NE(metrics, std::string::npos) << recorded;
  extra.insert(metrics + 11,
               "{\"name\":\"gate.unproduced\",\"value\":1,\"unit\":\"\"},");
  write_file(baseline, extra);
  check = run_exe(HCG_BENCH_RUNNER_PATH, check_args);
  EXPECT_EQ(check.exit_code, 9) << check.output;
  EXPECT_NE(check.output.find("MISSING    gate.unproduced"), std::string::npos)
      << check.output;

  // No baseline file at all.
  std::filesystem::remove(baseline);
  check = run_exe(HCG_BENCH_RUNNER_PATH, check_args);
  EXPECT_EQ(check.exit_code, 9) << check.output;
  EXPECT_NE(check.output.find("MISSING    baseline"), std::string::npos)
      << check.output;
}

}  // namespace
}  // namespace hcg
