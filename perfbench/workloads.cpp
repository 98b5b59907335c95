#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>

#include "benchmodels/benchmodels.hpp"
#include "fuzz/generator.hpp"
#include "model/loader.hpp"
#include "reference.hpp"
#include "support/rng.hpp"
#include "toolchain/profile_runner.hpp"

namespace perfbench {

using namespace hcg;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-up passes per run; setup_s is their median.
constexpr int kSetupPasses = 3;
/// Concurrent C compiles during set-up.
constexpr int kCompileJobs = 4;
/// Target length of one timed step sample.
constexpr double kSampleSeconds = 5e-4;
/// One codegen block plus one step block; the run repeats such slices.
constexpr double kSliceSeconds = 0.6;
constexpr int kMinSlices = 3;
/// Codegen population of fuzz_codegen, and its oracle-checked sample.
constexpr int kFuzzModels = 800;
constexpr int kFuzzOracleSample = 4;
/// Fixed fuzz seeds whose generated code fuzz_codegen times (default grammar,
/// intensive actors included).  Fixed, so the step metrics compare the same
/// programs across workload seeds; only their input data follows the seed.
constexpr std::uint64_t kFuzzStepSeeds[] = {5, 6, 8, 12, 13, 16};
/// Selection draws timed per farm model (the -O1 and avx2 cells use the
/// first draw only).
constexpr int kFarmDraws = 8;

/// What one workload compiles, times and checks.
struct Spec {
  std::vector<Model> step_models;        // generated code is timed
  std::vector<std::string> codegen_xml;  // the timed codegen population
  std::vector<Model> oracle_only;        // HCG -O2 oracle-checked, not timed
  double codegen_share = 0.5;            // share of --seconds for codegen
  /// Independent Algorithm 1 selections per step model.  farm_select's
  /// step depends on which kernels a selection picks, and one selection
  /// varies from run to run, so it averages over several.
  int hcg_draws = 1;
};

Spec make_spec(const std::string& workload, std::uint64_t seed) {
  Spec spec;
  if (workload == "paper_step") {
    spec.step_models = benchmodels::paper_models();
    spec.step_models.push_back(benchmodels::mixed_pipeline_model(4096));
    spec.step_models.push_back(benchmodels::rangepipe_model(4096));
    spec.step_models.push_back(benchmodels::matmul_pipeline_model(96));
    spec.codegen_share = 0.4;
  } else if (workload == "fuzz_codegen") {
    fuzz::GeneratorConfig grammar;
    grammar.intensive = false;
    std::vector<Model> population;
    for (int i = 0; i < kFuzzModels; ++i) {
      population.push_back(fuzz::generate_model((seed << 20) + i, grammar));
    }
    Rng pick(seed);
    for (int i = 0; i < kFuzzOracleSample; ++i) {
      spec.oracle_only.push_back(population[pick.bounded(population.size())]);
    }
    for (const Model& model : population) {
      spec.codegen_xml.push_back(model_to_xml(model));
    }
    for (std::uint64_t s : kFuzzStepSeeds) {
      spec.step_models.push_back(fuzz::generate_model(s));
    }
    spec.codegen_share = 0.75;
    return spec;
  } else if (workload == "farm_select") {
    spec.step_models.push_back(benchmodels::intensive_farm_model(64, false));
    spec.step_models.push_back(benchmodels::intensive_farm_model(16, true));
    spec.codegen_share = 0.5;
    spec.hcg_draws = kFarmDraws;
  }
  for (const Model& model : spec.step_models) {
    spec.codegen_xml.push_back(model_to_xml(model));
  }
  return spec;
}

/// One set-up pass: inputs, codegen of every cell, the C compiles and the
/// oracle checks.
struct Setup {
  std::vector<std::unique_ptr<Case>> cases;
  std::vector<std::string> codegen_xml;
  double codegen_share = 0.5;
  SetupCost cost;
  double seconds = 0.0;
};

Setup run_setup(const Options& options, Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  Setup setup;
  Spec spec = make_spec(options.workload, options.seed);
  setup.codegen_xml = std::move(spec.codegen_xml);
  setup.codegen_share = spec.codegen_share;

  // Per draw, the profiled cell goes first: it selects with the draw's fresh
  // history, so its intensive sites carry Algorithm 1's predictions, and
  // the draw's other HCG cells reuse its choices.  Extra draws only add
  // -O2 cells.
  std::vector<CellKind> draw_kinds;
  if (options.trace) draw_kinds.push_back(CellKind::kHcgO2Prof);
  draw_kinds.push_back(CellKind::kHcgO2);
  std::vector<CellKind> first_draw_kinds = draw_kinds;
  first_draw_kinds.push_back(CellKind::kHcgO1);
  if (host_has_avx2()) first_draw_kinds.push_back(CellKind::kHcgAvx2);

  // Every case lives until the end of the pass: oracle-only cases are
  // dropped after their check.
  std::vector<std::unique_ptr<Case>> checked;
  std::vector<CellRequest> requests;
  std::uint64_t input_seed = options.seed * 7919;
  auto add_cases = [&](std::vector<Model>& models, bool timed) {
    for (Model& model : models) {
      const std::string name = model.name();
      try {
        auto c = make_case(std::move(model), ++input_seed,
                           timed ? spec.hcg_draws : 1, setup.cost);
        if (timed) {
          for (int draw = 0; draw < spec.hcg_draws; ++draw) {
            for (CellKind kind : draw == 0 ? first_draw_kinds : draw_kinds) {
              requests.push_back({c.get(), kind, draw});
            }
          }
          requests.push_back({c.get(), CellKind::kSimulink, 0});
          requests.push_back({c.get(), CellKind::kDfsynth, 0});
          setup.cases.push_back(std::move(c));
        } else {
          requests.push_back({c.get(), CellKind::kHcgO2, 0});
          checked.push_back(std::move(c));
        }
      } catch (const std::exception& e) {
        ledger.fail(name, e.what());
      }
    }
  };
  add_cases(spec.step_models, true);
  add_cases(spec.oracle_only, false);
  build_cells(requests, kCompileJobs, ledger, setup.cost);
  setup.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return setup;
}

/// One row per step model: median ns and tail percentile of every cell.
void print_step_rows(const std::vector<std::unique_ptr<Case>>& cases) {
  for (const auto& c : cases) {
    std::printf("step %-22s", c->model.name().c_str());
    for (const Cell& cell : c->cells) {
      const double p = tail_percentile(cell.samples_ns.size());
      std::printf("  %s#%d=%.1fns(p%g=%.1f,n=%zu)",
                  std::string(cell_name(cell.kind)).c_str(), cell.draw,
                  median(cell.samples_ns), p,
                  quantile(cell.samples_ns, p / 100.0),
                  cell.samples_ns.size());
    }
    std::printf("\n");
  }
}

/// The reference's medians at host speed, next to its quiet-host times.
void print_reference(const std::vector<std::unique_ptr<Case>>& cases,
                     const CodegenStats& stats) {
  std::vector<double> step;
  if (!cases.empty() && !cases.front()->cells.empty()) {
    step = cases.front()->cells.front().ref_ns;  // one per case and round
  }
  std::vector<double> codegen;
  for (const std::vector<double>& refs : stats.ref_ms) {
    codegen.insert(codegen.end(), refs.begin(), refs.end());
  }
  std::printf("reference step %.1f ns (quiet host %.1f), codegen %.4f ms "
              "(quiet host %.4f), medians at host speed\n",
              median(step), kReferenceStepNs, median(codegen),
              kReferenceCodegenMs);
}

std::string sample_note(std::size_t samples) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu samples per series, tail p%g", samples,
                tail_percentile(samples));
  return buf;
}

/// Geomean over models and selection draws of the paired num/den step
/// ratio.  Two HCG cells pair within a draw; a baseline pairs with every
/// draw.
void add_ratio_metric(Results& results, const std::string& name,
                      const std::vector<std::unique_ptr<Case>>& cases,
                      CellKind num, CellKind den,
                      const std::string& missing_reason) {
  std::vector<double> ratios;
  std::size_t samples = 0;
  for (const auto& c : cases) {
    for (const Cell& a : c->cells) {
      for (const Cell& b : c->cells) {
        if (a.kind != num || b.kind != den || a.samples_ns.empty()) continue;
        if (a.draw != b.draw && !is_baseline(num) && !is_baseline(den)) {
          continue;
        }
        ratios.push_back(paired_ratio(a.samples_ns, b.samples_ns));
        samples = a.samples_ns.size();
      }
    }
  }
  if (ratios.empty()) {
    results.not_applicable(name, missing_reason);
    return;
  }
  results.add(name, geomean(ratios), "x",
              "geomean of " + std::to_string(ratios.size()) +
                  " model draws of the median paired ratio, " +
                  sample_note(samples));
}

/// Samples of one timed series and the reference samples taken just before
/// each of them.
struct Series {
  const std::vector<double>* samples;
  const std::vector<double>* ref;
};

/// An absolute time at reference speed: the geomean over `series` of the
/// median ratio of each sample to its reference sample, times what the
/// reference takes on a quiet host.  The detail also gives the same geomean
/// of plain medians, at this host's speed.
void add_time_metric(Results& results, const std::string& name,
                     const std::vector<Series>& series, double reference,
                     const char* unit, const std::string& missing_reason) {
  std::vector<double> ratios;
  std::vector<double> host;
  for (const Series& s : series) {
    const double ratio = paired_ratio(*s.samples, *s.ref);
    if (std::isnan(ratio)) break;
    ratios.push_back(ratio);
    std::vector<double> ok;
    for (double v : *s.samples) {
      if (!std::isnan(v)) ok.push_back(v);
    }
    host.push_back(median(std::move(ok)));
  }
  if (series.empty() || ratios.size() != series.size()) {
    results.not_applicable(name, missing_reason);
    return;
  }
  char host_note[64];
  std::snprintf(host_note, sizeof(host_note), ", %.6g %s at host speed",
                geomean(host), unit);
  results.add(name, geomean(ratios) * reference, unit,
              "geomean of " + std::to_string(series.size()) +
                  " series of the median ratio to the reference" + host_note +
                  ", " + sample_note(series.front().samples->size()));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void end_to_end(Results& results, const Setup& setup, const CodegenStats& stats,
                const std::vector<double>& setup_seconds) {
  const auto& cases = setup.cases;
  std::vector<Series> hcg;
  for (const auto& c : cases) {
    for (const Cell& cell : c->cells) {
      if (cell.kind == CellKind::kHcgO2) {
        hcg.push_back({&cell.samples_ns, &cell.ref_ns});
      }
    }
  }
  add_time_metric(results, "hcg_step_ns", hcg, kReferenceStepNs, "ns",
                  "no HCG -O2 cell built");
  add_ratio_metric(results, "speedup_vs_simulink", cases, CellKind::kSimulink,
                   CellKind::kHcgO2, "no simulink/HCG pair built");
  add_ratio_metric(results, "speedup_vs_dfsynth", cases, CellKind::kDfsynth,
                   CellKind::kHcgO2, "no dfsynth/HCG pair built");
  add_ratio_metric(results, "o2_speedup_vs_o1", cases, CellKind::kHcgO1,
                   CellKind::kHcgO2, "no -O1/-O2 pair built");
  add_ratio_metric(results, "avx2_speedup_vs_simulink", cases,
                   CellKind::kSimulink, CellKind::kHcgAvx2,
                   host_has_avx2() ? "no simulink/avx2 pair built"
                                   : "skipped: host lacks AVX2+FMA");

  std::vector<Series> cold;
  std::vector<Series> warm;
  for (std::size_t m = 0; m < stats.cold_ms.size(); ++m) {
    cold.push_back({&stats.cold_ms[m], &stats.ref_ms[m]});
    warm.push_back({&stats.warm_ms[m], &stats.ref_ms[m]});
  }
  add_time_metric(results, "codegen_ms", cold, kReferenceCodegenMs, "ms",
                  "a model none of whose cold generates succeeded");
  add_time_metric(results, "regen_ms", warm, kReferenceCodegenMs, "ms",
                  "a model none of whose warm generates succeeded");
  const std::string models = std::to_string(stats.cold_ms.size());
  results.add("code_bytes", stats.code_bytes, "B",
              "HCG -O2 emitted C, summed over " + models + " models");
  results.add("static_buffer_bytes", stats.static_buffer_bytes, "B",
              "summed over " + models + " models");
  results.add("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process");
  results.add("setup_s", median(setup_seconds), "s",
              "median of " + std::to_string(setup_seconds.size()) +
                  " set-up passes");
}

/// Runtime split of the HCG -O2 step from the --profile-gen build, against
/// the plain step, plus the cost-model error of Algorithm 1's predictions.
struct RuntimeSplit {
  double vector_ns = 0.0;
  double scalar_ns = 0.0;
  double intensive_ns = 0.0;
  double plain_ns = 0.0;
  std::vector<double> err_pct;
  std::vector<double> overhead;
};

/// Profiles one draw's --profile-gen cell and adds it to `split`.
void profile_draw(const Case& c, const Cell& prof, RuntimeSplit& split,
                  Ledger& ledger) {
  const Cell* o2 = c.find(CellKind::kHcgO2, prof.draw);
  if (o2 == nullptr || prof.samples_ns.empty()) return;
  const double plain = median(o2->samples_ns);
  toolchain::ProfileRunOptions options;
  // About 50 ms of harness run time, at least 20 steps.
  options.reps = static_cast<int>(std::clamp(5e7 / plain, 20.0, 1e6));
  const toolchain::ProfileResult profile =
      toolchain::run_profile(prof.code, c.model, options);
  if (!profile.ok) {
    ledger.fail(c.model.name() + "/run_profile#" + std::to_string(prof.draw),
                profile.error);
    return;
  }
  ledger.ok();
  split.plain_ns += plain;
  split.overhead.push_back(median(prof.samples_ns) / plain);
  for (const toolchain::ProfileSiteSample& site : profile.sites) {
    if (site.calls == 0) continue;
    const double per_call =
        static_cast<double>(site.ns) / static_cast<double>(site.calls);
    if (site.kind == "vector") split.vector_ns += per_call;
    if (site.kind == "scalar") split.scalar_ns += per_call;
    if (site.kind != "intensive") continue;
    split.intensive_ns += per_call;
    // Algorithm 1's prediction: the chosen candidate's measured time.
    const std::string actor = site.label.substr(0, site.label.find(':'));
    for (const obs::ReportIntensive& choice : prof.code.report.intensive) {
      if (choice.actor != actor || !choice.selected || choice.from_history) {
        continue;
      }
      for (const obs::ReportCandidate& cand : choice.candidates) {
        if (cand.impl != choice.impl || cand.ms <= 0) continue;
        const double predicted = cand.ms * 1e6;
        split.err_pct.push_back(std::abs(per_call - predicted) / predicted *
                                100.0);
      }
    }
  }
}

RuntimeSplit profile_runtime(const std::vector<std::unique_ptr<Case>>& cases,
                             Ledger& ledger) {
  RuntimeSplit split;
  for (const auto& c : cases) {
    for (const Cell& cell : c->cells) {
      if (cell.kind == CellKind::kHcgO2Prof) {
        profile_draw(*c, cell, split, ledger);
      }
    }
  }
  return split;
}

void per_layer(Results& results, const Setup& setup, const CodegenStats& stats,
               Ledger& ledger) {
  // Compile side, per cold load + generate.  Phase names are the ones
  // GeneratedCode::report.phases carries; any other phase lands in
  // codegen.unattributed_ms, which keeps the sum equal to the wall time.
  static const std::pair<const char*, const char*> kPhases[] = {
      {"resolve", "actors.resolve_ms"},
      {"regions", "graph.regions_ms"},
      {"intensive_select", "synth.intensive_select_ms"},
      {"plan", "codegen.plan_ms"},
      {"batch_synth", "synth.batch_synth_ms"},
      {"emit", "codegen.emit_ms"},
      {"opt", "cgir.opt_ms"},
  };
  const double n = std::max(1, stats.cold_samples);
  const double generate_ms = stats.generate_ms / n;
  double phase_sum = 0.0;
  results.add("model.load_ms", stats.load_ms / n, "ms", "mean per cold model");
  for (const auto& [phase, metric] : kPhases) {
    const auto it = stats.phase_ms.find(phase);
    const double ms = it == stats.phase_ms.end() ? 0.0 : it->second / n;
    phase_sum += ms;
    results.add(metric, ms, "ms", "mean per cold generate");
  }
  for (const auto& [phase, total] : stats.phase_ms) {
    bool known = false;
    for (const auto& entry : kPhases) known |= phase == entry.first;
    if (!known) {
      std::fprintf(stderr,
                   "note: report phase '%s' has no metric; it is counted in "
                   "codegen.unattributed_ms\n",
                   phase.c_str());
    }
  }
  const double unattributed = generate_ms - phase_sum;
  results.add("codegen.unattributed_ms", unattributed, "ms",
              "generate wall minus the phase sum");
  results.add("codegen.generate_ms", generate_ms, "ms",
              "mean generate wall per cold model");
  std::printf("accounting: phases %.6f + unattributed %.6f = %.6f ms, "
              "generate wall %.6f ms\n",
              phase_sum, unattributed, phase_sum + unattributed, generate_ms);

  // Algorithm 1, per pass over the models.
  results.add("synth.precalc_runs", stats.precalc_runs, "count",
              "pre-calculation sweeps in one cold pass");
  results.add("synth.dedup_hits", stats.dedup_hits, "count",
              "in-run dedup hits in one cold pass");
  results.add("kernels.candidate_ms", stats.candidate_ms, "ms",
              "summed measured candidate time in one cold pass");
  results.add("synth.history_hit_frac",
              stats.warm_lookups > 0 ? stats.warm_hits / stats.warm_lookups
                                     : 0.0,
              "frac",
              stats.warm_lookups > 0 ? "warm generate history hits / lookups"
                                     : "no history lookups on this workload");

  // Code quality of the HCG -O2 output, summed over the codegen models.
  results.add("graph.fused_regions", stats.fused_regions, "count");
  results.add("synth.simd_instructions", stats.simd_instructions, "count");
  results.add("synth.simd_coverage",
              stats.region_nodes > 0
                  ? stats.simd_region_nodes / stats.region_nodes
                  : 0.0,
              "frac", "region nodes in SIMD code");
  results.add("analysis.regions_narrowed", stats.regions_narrowed, "count");
  results.add("cgir.loops_fused", stats.loops_fused, "count");
  results.add("cgir.copies_elided", stats.copies_elided, "count");
  results.add("cgir.cross_scale_fused", stats.cross_scale_fused, "count");
  results.add("cgir.loops_tiled", stats.loops_tiled, "count");
  results.add("cgir.strips_localized", stats.strips_localized, "count");
  results.add("cgir.arena_bytes_saved", stats.arena_bytes_saved, "B");

  // Run side: where the HCG -O2 step spends its time.
  const RuntimeSplit split = profile_runtime(setup.cases, ledger);
  if (split.plain_ns > 0) {
    const double v = split.vector_ns / split.plain_ns;
    const double s = split.scalar_ns / split.plain_ns;
    const double i = split.intensive_ns / split.plain_ns;
    results.add("runtime.vector_share", v, "frac", "of the plain step");
    results.add("runtime.scalar_share", s, "frac", "of the plain step");
    results.add("runtime.intensive_share", i, "frac", "of the plain step");
    results.add("runtime.unattributed_share", 1.0 - v - s - i, "frac",
                "plain step not covered by a profiled site");
    results.add("runtime.instrumented_over_plain", geomean(split.overhead),
                "x", "tracing overhead: --profile-gen step / plain step");
  } else {
    for (const char* name :
         {"runtime.vector_share", "runtime.scalar_share",
          "runtime.intensive_share", "runtime.unattributed_share",
          "runtime.instrumented_over_plain"}) {
      results.not_applicable(name, "no profiled step");
    }
  }
  if (!split.err_pct.empty()) {
    double sum = 0.0;
    for (double e : split.err_pct) sum += e;
    results.add("runtime.costmodel_err_pct",
                sum / static_cast<double>(split.err_pct.size()), "pct",
                "mean over " + std::to_string(split.err_pct.size()) +
                    " intensive sites with a prediction");
  } else {
    results.not_applicable("runtime.costmodel_err_pct",
                           "no intensive site with a fresh prediction");
  }

  // Set-up layers, per set-up pass.
  results.add("toolchain.cc_ms", setup.cost.cc_ms, "ms",
              "C compile time in one set-up pass");
  results.add("vm.oracle_ms", setup.cost.oracle_ms, "ms",
              "interpreter oracle time in one set-up pass");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_step", "fuzz_codegen",
                                                  "farm_select"};
  return kNames;
}

Results run_workload(const Options& options, Ledger& ledger) {
  std::vector<double> setup_seconds;
  Setup setup;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    setup = Setup();  // release the previous pass's compiled cells first
    setup = run_setup(options, ledger);
    setup_seconds.push_back(setup.seconds);
    std::fprintf(stderr, "setup pass %d: %.3f s (codegen %.0f ms, cc %.0f ms, "
                 "oracle %.0f ms)\n",
                 pass + 1, setup.seconds, setup.cost.codegen_ms,
                 setup.cost.cc_ms, setup.cost.oracle_ms);
  }

  // Codegen and step blocks alternate over the whole measured window.
  CodegenSampler codegen(setup.codegen_xml);
  StepTimer steps(setup.cases, kSampleSeconds);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (int slice = 0; slice < kMinSlices || Clock::now() < deadline; ++slice) {
    codegen.run_block(kSliceSeconds * setup.codegen_share, ledger);
    steps.run_block(kSliceSeconds * (1.0 - setup.codegen_share));
  }
  const CodegenStats& stats = codegen.stats();
  print_step_rows(setup.cases);
  print_reference(setup.cases, stats);
  Results results;
  if (options.trace) {
    per_layer(results, setup, stats, ledger);
  } else {
    end_to_end(results, setup, stats, setup_seconds);
  }
  return results;
}

}  // namespace perfbench
