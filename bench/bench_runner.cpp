// Bench count gate (docs/PROFILING.md): records the deterministic codegen
// counts of the standing suites, writes one hcg-bench-v2 BENCH_<suite>.json
// per suite, and — in --check mode — compares them against a committed
// baseline directory, exiting 9 when anything differs.
//
//   bench_runner --record --out bench/baseline        # refresh the baseline
//   bench_runner --check --baseline bench/baseline    # the CI count gate
//
// Every metric is a count (fused regions, SIMD instructions, buffer bytes,
// dedup hits, pass facts), so every baseline entry compares exactly, in
// either direction: a count that changed means codegen behavior changed and
// the baseline must be re-recorded deliberately.  A baseline metric the run
// did not produce, a produced metric the baseline lacks, and a missing or
// unreadable baseline file are failures too.  Nothing here times generated
// code; perfbench (perfbench/README.md) is the one timing harness.
//
// Exit codes: 0 ok, 2 usage error, 9 a count differs from the baseline.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "synth/history.hpp"

namespace {

using namespace hcg;

constexpr int kExitRegression = 9;
constexpr const char* kSchema = "hcg-bench-v2";

struct Metric {
  std::string name;
  std::int64_t value = 0;
  std::string unit;  // "B" for byte counts, "" for plain counts
};

template <typename T>
Metric count(std::string name, T value, std::string unit = "") {
  return Metric{std::move(name), static_cast<std::int64_t>(value),
                std::move(unit)};
}

// ---- suites ---------------------------------------------------------------

codegen::GeneratedCode emit_hcg(const Model& model,
                                synth::SelectionHistory* history,
                                int opt_level = 1) {
  auto hcg = codegen::make_hcg_generator(isa::builtin("neon_sim"), history, {},
                                         opt_level);
  return hcg->generate(model);
}

/// Deterministic codegen facts: region/instruction/buffer counts, the -O2
/// pass facts, Algorithm 1's memo counts and the E5 memory-parity table.
std::vector<Metric> suite_codegen() {
  std::vector<Metric> metrics;
  std::vector<Model> models;
  models.push_back(benchmodels::fir_model(1024));
  models.push_back(benchmodels::highpass_model(1024));
  models.push_back(benchmodels::paper_fig4_model());
  for (Model& raw : models) {
    Model model = resolved(std::move(raw));
    const std::string m = model.name();
    synth::SelectionHistory history;
    const codegen::GeneratedCode code = emit_hcg(model, &history);
    metrics.push_back(count(m + ".fused_regions", code.fused_regions));
    metrics.push_back(
        count(m + ".simd_instructions", code.simd_instructions.size()));
    metrics.push_back(
        count(m + ".static_buffer_bytes", code.static_buffer_bytes, "B"));
  }

  // E5 memory parity: static buffer bytes of the six paper models under
  // both baselines, next to HCG's (fir and highpass are recorded above).
  // None of them follows Algorithm 1's measured pick: the baselines run no
  // selection, and forcing each FFT/DCT/Conv candidate leaves HCG's bytes
  // unchanged.
  for (Model& raw : benchmodels::paper_models()) {
    Model model = resolved(std::move(raw));
    const std::string m = model.name();
    metrics.push_back(count(
        m + ".simulink_o0.static_buffer_bytes",
        codegen::make_simulink_generator()->generate(model).static_buffer_bytes,
        "B"));
    metrics.push_back(count(
        m + ".dfsynth_o0.static_buffer_bytes",
        codegen::make_dfsynth_generator()->generate(model).static_buffer_bytes,
        "B"));
    const std::string hcg_name = m + ".static_buffer_bytes";
    if (std::none_of(metrics.begin(), metrics.end(),
                     [&](const Metric& x) { return x.name == hcg_name; })) {
      synth::SelectionHistory history;
      metrics.push_back(count(
          hcg_name, emit_hcg(model, &history).static_buffer_bytes, "B"));
    }
  }

  // -O2 pass facts.  mixed_pipeline has a deliberate scale boundary, so
  // cross-scale fusion must fire.
  {
    Model model = resolved(benchmodels::mixed_pipeline_model(1024));
    synth::SelectionHistory history;
    const codegen::GeneratedCode code = emit_hcg(model, &history, 2);
    metrics.push_back(count("mixed_pipeline.o2.cross_scale_fused",
                            code.report.cross_scale_fused));
    metrics.push_back(count("mixed_pipeline.o2.simd_instructions",
                            code.simd_instructions.size()));
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
    metrics.push_back(
        count("farm64.precalc_runs", precalc.value() - precalc_before));
    metrics.push_back(count("farm64.dedup_hits", dedup.value() - dedup_before));
    const obs::Report o2 = emit_hcg(model, &history, 2).report;
    metrics.push_back(count("farm64.o2.loops_fused", o2.loops_fused));
    metrics.push_back(
        count("farm64.o2.arena_bytes_saved", o2.arena_bytes_saved));
    metrics.push_back(count(
        "farm64.simulink_o0.static_buffer_bytes",
        codegen::make_simulink_generator()->generate(model).static_buffer_bytes,
        "B"));
  }
  return metrics;
}

/// Scalable backend: the predicated-tail loop form (--isa sve) against the
/// fixed-width vector+remainder form (neon_sim) on lengths that do and do
/// not divide the lane count.  Every sve region lowers to predicated loops
/// with zero scalar-remainder elements, while the fixed-width table
/// provably leaves a tail on the prime length.
std::vector<Metric> suite_sve() {
  std::vector<Metric> metrics;
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
  for (int n : {1024, 1021}) {
    Model model = resolved(benchmodels::fir_model(n));
    const std::string m = "fir" + std::to_string(n);
    const codegen::GeneratedCode sve_code = emit_with(model, "sve");
    const codegen::GeneratedCode neon_code = emit_with(model, "neon_sim");
    metrics.push_back(
        count(m + ".sve.loops_predicated", sve_code.report.loops_predicated));
    metrics.push_back(
        count(m + ".sve.remainder_elems", remainder_elems(sve_code.report)));
    metrics.push_back(
        count(m + ".neon.remainder_elems", remainder_elems(neon_code.report)));
    metrics.push_back(count(m + ".sve.simd_instructions",
                            sve_code.simd_instructions.size()));
  }
  return metrics;
}

/// Range-driven lane narrowing: the rangepipe workload's declared Inport
/// ranges prove every intermediate fits i16, so at -O1 its region re-plans
/// at 8 NEON lanes instead of 4, while the identical graph without range
/// facts must stay at i32.
std::vector<Metric> suite_range() {
  std::vector<Metric> metrics;
  Model narrow = resolved(benchmodels::rangepipe_model(4096, true));
  Model wide = resolved(benchmodels::rangepipe_model(4096, false));
  synth::SelectionHistory history;
  const codegen::GeneratedCode narrow_code = emit_hcg(narrow, &history);
  const codegen::GeneratedCode wide_code = emit_hcg(wide, &history);
  metrics.push_back(count("rangepipe.o1.regions_narrowed",
                          narrow_code.report.regions_narrowed));
  metrics.push_back(count("rangepipe.o1.narrowing_blocked",
                          narrow_code.report.narrowing_blocked));
  metrics.push_back(count("rangepipe_wide.o1.regions_narrowed",
                          wide_code.report.regions_narrowed));
  metrics.push_back(count("rangepipe.o1.simd_instructions",
                          narrow_code.simd_instructions.size()));
  return metrics;
}

struct Suite {
  const char* name;
  std::vector<Metric> (*run)();
};

const Suite kSuites[] = {
    {"codegen", suite_codegen},
    {"sve", suite_sve},
    {"range", suite_range},
};

// ---- hcg-bench-v2 ---------------------------------------------------------
//
//   { "schema": "hcg-bench-v2", "suite": "codegen",
//     "metrics": [ { "name": "fir_bench.fused_regions", "value": 1,
//                    "unit": "" }, ... ] }

std::string bench_json(const std::string& suite,
                       const std::vector<Metric>& metrics) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kSchema);
  json.key("suite").value(suite);
  json.key("metrics").begin_array();
  for (const Metric& m : metrics) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

// ---- baseline comparison --------------------------------------------------

struct CheckStats {
  int compared = 0;
  int regressions = 0;
};

/// Compares one suite's fresh counts against its committed baseline file.
/// Every difference — a changed value, a metric on one side only, a
/// baseline that cannot be read — counts as a regression.
void check_suite(const std::string& base_path,
                 const std::vector<Metric>& current, CheckStats& stats) {
  obs::JsonValue baseline;
  try {
    baseline = obs::json_parse(read_file(base_path));
  } catch (const std::exception& e) {
    std::printf("  MISSING    baseline %s: %s\n", base_path.c_str(), e.what());
    ++stats.regressions;
    return;
  }
  const obs::JsonValue* schema = baseline.find("schema");
  const obs::JsonValue* base_metrics = baseline.find("metrics");
  if (schema == nullptr || schema->string != kSchema ||
      base_metrics == nullptr || !base_metrics->is_array()) {
    std::printf("  MISSING    baseline %s is not an %s document with a "
                "metrics array; re-record it\n",
                base_path.c_str(), kSchema);
    ++stats.regressions;
    return;
  }

  std::vector<bool> seen(current.size(), false);
  for (const obs::JsonValue& entry : base_metrics->array) {
    const obs::JsonValue* name_v = entry.find("name");
    const obs::JsonValue* value_v = entry.find("value");
    if (name_v == nullptr || value_v == nullptr) continue;
    const std::string& name = name_v->string;
    const double base = value_v->number;
    const auto cur = std::find_if(current.begin(), current.end(),
                                  [&](const Metric& m) { return m.name == name; });
    ++stats.compared;
    if (cur == current.end()) {
      std::printf("  MISSING    %-40s (baseline %.17g; this run did not "
                  "produce it)\n",
                  name.c_str(), base);
      ++stats.regressions;
      continue;
    }
    seen[static_cast<std::size_t>(cur - current.begin())] = true;
    if (static_cast<double>(cur->value) != base) {
      std::printf("  DRIFT      %-40s %.17g -> %lld (counts must match "
                  "exactly; re-record the baseline if intended)\n",
                  name.c_str(), base, static_cast<long long>(cur->value));
      ++stats.regressions;
    } else {
      std::printf("  OK         %-40s %lld\n", name.c_str(),
                  static_cast<long long>(cur->value));
    }
  }
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (seen[i]) continue;
    std::printf("  NEW        %-40s %lld (not in the baseline; re-record it)\n",
                current[i].name.c_str(),
                static_cast<long long>(current[i].value));
    ++stats.regressions;
  }
}

void usage(FILE* out) {
  std::fprintf(out,
               "usage: bench_runner [--record | --check] [options]\n"
               "  --record            run suites, write BENCH_<suite>.json "
               "(default mode)\n"
               "  --check             also compare against --baseline; exit "
               "%d on any difference\n"
               "  --baseline DIR      directory with committed "
               "BENCH_<suite>.json files\n"
               "  --out DIR           where to write results (default .)\n"
               "  --suite NAME        run one suite (repeatable; default "
               "all: codegen sve range)\n"
               "  --list              print suite names and exit\n",
               kExitRegression);
}

}  // namespace

int main(int argc, char** argv) {
  apply_log_env();
  bool check = false;
  std::string out_dir = ".";
  std::string baseline_dir;
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
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--baseline") {
      baseline_dir = next("--baseline");
    } else if (arg == "--suite") {
      selected.push_back(next("--suite"));
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

  std::printf("bench_runner: mode=%s\n", check ? "check" : "record");
  CheckStats stats;
  for (const Suite& suite : kSuites) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), suite.name) ==
            selected.end()) {
      continue;
    }
    std::printf("\n== suite %s ==\n", suite.name);
    const std::vector<Metric> metrics = suite.run();
    const std::string file = std::string("/BENCH_") + suite.name + ".json";
    write_file(out_dir + file, bench_json(suite.name, metrics));
    std::printf("wrote %s (%zu metrics)\n", (out_dir + file).c_str(),
                metrics.size());
    if (check) check_suite(baseline_dir + file, metrics, stats);
  }

  if (check) {
    std::printf("\n%d compared, %d regressions, 0 skipped\n", stats.compared,
                stats.regressions);
    if (stats.regressions > 0) return kExitRegression;
  }
  return 0;
}
