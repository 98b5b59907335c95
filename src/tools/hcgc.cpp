// hcgc — the HCG command-line code generator.
//
//   hcgc generate <model.xml> [--tool hcg|simulink|dfsynth] [--isa NAME|FILE]
//                 [--out FILE] [--history FILE] [--threshold N] [--scattered]
//                 [--report FILE] [-O0|-O1|-O2 (hcg only)]
//                 [--dump-cgir] [--dump-cgir-after=PASS]
//   hcgc inspect  <model.xml> [--isa NAME|FILE]
//   hcgc lint     <model.xml> [--isa NAME|FILE] [--threshold N]
//                 [--Werror] [--no-remarks] [--sarif FILE] [--report FILE]
//   hcgc verify   <model.xml> [--tool ...] [--isa ...] [--seed N]
//                 [--cc-timeout SEC] [--cc-retries N]
//   hcgc profile  <model.xml> [--isa NAME|FILE] [--reps N]
//                 [--err-threshold PCT] [--report FILE] [--history FILE]
//                 [--cc-timeout SEC] [--cc-retries N]
//   hcgc isa      [NAME]
//
// generate: emit deployable C for a model (default: HCG against neon).
//           The subcommand may be omitted: `hcgc model.xml [flags]` and
//           `hcgc --flag ... model.xml` run generate.
// inspect : print actors, classification, batch regions and their graphs.
// lint    : static analysis (docs/ANALYSIS.md) — structural checks, type
//           resolution, and vectorization-blocker remarks explaining per
//           region why Algorithm 2 did or did not vectorize it.  Findings
//           print to stdout; --sarif exports SARIF 2.1.0 for code scanning.
//           Exit 0 when only warnings/remarks, 8 when errors were found
//           (--Werror promotes warnings to errors first).
// verify  : generate, compile with the host cc, run one step on random
//           input, and compare against the built-in simulator.
// profile : generate with --profile-gen instrumentation, compile it with
//           -DHCG_PROF, run N steps in-process, and join each region's
//           measured runtime against Algorithm 1's selection-time cost
//           (docs/PROFILING.md).  When the instrumented unit cannot be
//           compiled, loaded or dumped the command degrades to a
//           profile-less report with an HCG502 warning instead of failing;
//           a step that crashes or hangs ends the command, as in verify.
// isa     : list the built-in instruction tables, or dump one as text.
//
// Observability (docs/OBSERVABILITY.md):
//   --report FILE   write a machine-readable JSON codegen report (per-phase
//                   and per-pass times included).
//   HCG_LOG         log threshold: debug|info|warn|error|off.
//
// Optimization (docs/CODEGEN_IR.md):
//   -O0 | -O1 | -O2 cgir pass pipeline level of --tool hcg; the level
//                   alone picks the passes (cgir/passes.hpp).  -O0 only
//                   rebinds intermediate buffers into a shared arena; -O1
//                   (the default) also fuses batch-region loops; -O2
//                   additionally strip-mines scalar loops into adjacent
//                   vector loops (cross-scale fusion), forwards scalar
//                   stores into later reads of the same body and localizes
//                   strip-mined lane loops.  The baseline tools always run
//                   the -O0 pipeline (dfsynth keeps one buffer per signal);
//                   -O1/-O2 with them is a usage error.
//   --dump-cgir     print the "cgir-v2" serialization of the unit exactly
//                   as printed (after the passes and any --profile-gen
//                   instrumentation) instead of C source.
//   --dump-cgir-after=PASS
//                   print the "cgir-v2" snapshot taken right after PASS ran
//                   (lower, fuse_loops, fuse_cross_scale, forward_copies,
//                   reuse_arena, localize_strips)
//                   instead of C source.  Errors when the pass never ran at
//                   the chosen -O level.
//
// Profiling (docs/PROFILING.md):
//   --profile-gen   instrument the emitted unit with HCG_PROF counters
//                   (generate, hcg tool only; off keeps output byte-identical).
//   --reps N        timed step() repetitions of hcgc profile.
//   --err-threshold PCT  prediction error (percent) above which profile
//                   emits an HCG501 costmodel-mispredict remark.
//
// Robustness (docs/ROBUSTNESS.md):
//   --cc-timeout S  wall-clock limit per compiler invocation (verify/profile);
//                   a hung cc is killed, whole process group.
//   --cc-retries N  spawn retries when the compiler process cannot start.
//   HCG_FAULTS      deterministic fault injection spec (testing only).
//
// Static analysis (docs/ANALYSIS.md):
//   --verify-cgir   run the cgir verifier after lowering and after every
//                   pass (generate/verify/profile); equivalent to
//                   HCG_VERIFY=1.
//
// Exit codes: 0 ok, 1 verify mismatch/other error, 2 usage, 3 parse error,
// 4 invalid model, 5 synthesis failure, 6 codegen failure, 7 toolchain
// failure, 8 lint errors, 10 fuzz counterexample found, 70 internal error.
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "actors/catalog.hpp"
#include "actors/resolve.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/sarif.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/passes.hpp"
#include "codegen/generator.hpp"
#include "fuzz/campaign.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "isa/isa_parse.hpp"
#include "model/loader.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"
#include "support/strings.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "toolchain/compiled_model.hpp"
#include "toolchain/profile_runner.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace hcg;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hcgc generate <model.xml> [--tool hcg|simulink|dfsynth]\n"
               "                [--isa NAME|FILE] [--out FILE]\n"
               "                [--history FILE] [--threshold N] [--scattered]\n"
               "                [--report FILE] [-O0|-O1|-O2 (hcg only)]\n"
               "                [--dump-cgir] [--dump-cgir-after=PASS]\n"
               "  hcgc inspect  <model.xml> [--isa NAME|FILE]\n"
               "  hcgc lint     <model.xml> [--isa NAME|FILE] [--threshold N]\n"
               "                [--Werror] [--no-remarks] [--sarif FILE]\n"
               "                [--report FILE]\n"
               "  hcgc verify   <model.xml> [--tool ...] [--isa ...] [--seed N]\n"
               "                [--cc-timeout SEC] [--cc-retries N]\n"
               "  hcgc profile  <model.xml> [--isa NAME|FILE] [--reps N]\n"
               "                [--err-threshold PCT] [--report FILE]\n"
               "                [--history FILE] [--cc-timeout SEC]\n"
               "                [--cc-retries N]\n"
               "  hcgc fuzz     [--seeds N] [--seed FIRST] [--isa A,B]\n"
               "                [-O0|-O1|-O2] [--corpus DIR] [--report FILE]\n"
               "                [--sweep-faults] [--max-actors N]\n"
               "                [--no-minimize] [--no-baselines]\n"
               "  hcgc faults\n"
               "  hcgc isa      [NAME]\n"
               "(the generate subcommand may be omitted)\n"
               "env: HCG_LOG=debug|info|warn|error|off\n"
               "     HCG_VERIFY=1 cgir verifier on (--verify-cgir equivalent)\n"
               "exit codes: 0 ok, 1 error/mismatch, 2 usage, 3 parse,\n"
               "            4 model, 5 synthesis, 6 codegen, 7 toolchain,\n"
               "            8 lint errors, 10 fuzz counterexample,\n"
               "            70 internal\n");
  return 2;
}

struct Options {
  std::string command;
  std::string model_path;
  std::string tool = "hcg";
  std::string isa_name = "neon";
  std::string out_path;
  std::string history_path;
  std::string report_path;
  int threshold = 0;
  int opt_level = -1;  // -1 = the default (hcg: 1; the baselines run -O0)
  bool dump_cgir = false;
  std::string dump_cgir_after;  // pass name to snapshot; empty = off
  bool scattered = false;
  bool verify_cgir = false;
  bool werror = false;       // lint: promote warnings to errors
  bool no_remarks = false;   // lint: suppress HCG4xx remarks
  std::string sarif_path;    // lint: SARIF 2.1.0 output file
  std::uint64_t seed = 42;
  double cc_timeout = -1.0;  // < 0 = CompileOptions default
  int cc_retries = -1;       // < 0 = CompileOptions default
  bool profile_gen = false;     // generate: instrument with HCG_PROF counters
  int reps = 200;               // profile: timed step() repetitions
  double err_threshold = 50.0;  // profile: HCG501 remark above this error %
  bool isa_set = false;         // --isa given explicitly (fuzz default keys off this)
  int seeds = 200;              // fuzz: campaign seed count
  int max_actors = 20;          // fuzz: generator actor budget
  std::string corpus_dir;       // fuzz: reproducer output directory
  bool sweep_faults = false;    // fuzz: degraded-mode sweep per seed
  bool no_minimize = false;     // fuzz: skip counterexample shrinking
  bool no_baselines = false;    // fuzz: drop simulink/dfsynth partners
};

bool known_command(const std::string& name) {
  return name == "generate" || name == "inspect" || name == "lint" ||
         name == "verify" || name == "profile" ||
         name == "isa" || name == "fuzz" || name == "faults";
}

// Numeric flag values: garbage, a trailing suffix or a value out of range is
// a usage error that names the flag.
long long int_flag(const std::string& flag, const char* text, long long min,
                   long long max, const char* need) {
  try {
    const long long value = parse_int(text);
    if (value >= min && value <= max) return value;
  } catch (const ParseError&) {
  }
  throw Error(flag + " needs " + need + ", got '" + text + "'");
}

int int_flag(const std::string& flag, const char* text, int min,
             const char* need) {
  return static_cast<int>(int_flag(flag, text, min, INT_MAX, need));
}

double double_flag(const std::string& flag, const char* text, double min,
                   bool allow_min, const char* need) {
  try {
    const double value = parse_double(text);
    if (std::isfinite(value) && (value > min || (allow_min && value == min))) {
      return value;
    }
  } catch (const ParseError&) {
  }
  throw Error(flag + " needs " + need + ", got '" + text + "'");
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  int start = 2;
  if (!known_command(opt.command)) {
    // Allow omitting the subcommand: `hcgc --isa neon model.xml` and
    // `hcgc model.xml` default to generate.  A bare unknown word (neither a
    // flag nor an existing file) still falls through to usage.
    if (opt.command.rfind("-", 0) == 0 ||
        std::filesystem::exists(opt.command)) {
      opt.command = "generate";
      start = 1;
    } else {
      return true;  // main() rejects the unknown command with usage()
    }
  }
  int position = 0;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--tool") {
      opt.tool = value();
    } else if (arg == "--isa") {
      opt.isa_name = value();
      opt.isa_set = true;
    } else if (arg == "--out") {
      opt.out_path = value();
    } else if (arg == "--history") {
      opt.history_path = value();
    } else if (arg == "--threshold") {
      opt.threshold = int_flag(arg, value(), 0, "a count >= 0");
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          int_flag(arg, value(), 0, LLONG_MAX, "a seed >= 0"));
    } else if (arg == "--cc-timeout") {
      opt.cc_timeout = double_flag(arg, value(), 0.0, false, "seconds > 0");
    } else if (arg == "--cc-retries") {
      opt.cc_retries = int_flag(arg, value(), 0, "a count >= 0");
    } else if (arg == "--report") {
      opt.report_path = value();
    } else if (arg == "--scattered") {
      opt.scattered = true;
    } else if (arg == "-O0") {
      opt.opt_level = 0;
    } else if (arg == "-O1") {
      opt.opt_level = 1;
    } else if (arg == "-O2") {
      opt.opt_level = 2;
    } else if (arg == "--dump-cgir") {
      opt.dump_cgir = true;
    } else if (arg.rfind("--dump-cgir-after=", 0) == 0) {
      opt.dump_cgir_after = arg.substr(std::strlen("--dump-cgir-after="));
      if (opt.dump_cgir_after != "lower" &&
          !cgir::is_pass_name(opt.dump_cgir_after)) {
        throw Error("unknown pass '" + opt.dump_cgir_after +
                    "' for --dump-cgir-after");
      }
    } else if (arg == "--profile-gen") {
      opt.profile_gen = true;
    } else if (arg == "--reps") {
      opt.reps = int_flag(arg, value(), 1, "a positive count");
    } else if (arg == "--err-threshold") {
      opt.err_threshold =
          double_flag(arg, value(), 0.0, true, "a percentage >= 0");
    } else if (arg == "--seeds") {
      opt.seeds = int_flag(arg, value(), 1, "a positive count");
    } else if (arg == "--max-actors") {
      opt.max_actors = int_flag(arg, value(), 1, "a count >= 1");
    } else if (arg == "--corpus") {
      opt.corpus_dir = value();
    } else if (arg == "--sweep-faults") {
      opt.sweep_faults = true;
    } else if (arg == "--no-minimize") {
      opt.no_minimize = true;
    } else if (arg == "--no-baselines") {
      opt.no_baselines = true;
    } else if (arg == "--verify-cgir") {
      opt.verify_cgir = true;
    } else if (arg == "--Werror") {
      opt.werror = true;
    } else if (arg == "--no-remarks") {
      opt.no_remarks = true;
    } else if (arg == "--sarif") {
      opt.sarif_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown option " + arg);
    } else if (position++ == 0) {
      opt.model_path = arg;
    } else {
      throw Error("unexpected argument " + arg);
    }
  }
  if ((opt.tool == "simulink" || opt.tool == "dfsynth") && opt.opt_level > 0) {
    throw Error("-O" + std::to_string(opt.opt_level) +
                " applies to --tool hcg only; " + opt.tool +
                " runs the -O0 pipeline");
  }
  return true;
}

/// Resolves --isa as a built-in name first, else as a .isa file path.
const isa::VectorIsa& resolve_isa(const std::string& name,
                                  isa::VectorIsa& file_storage) {
  for (const std::string& builtin_name : isa::builtin_names()) {
    if (builtin_name == name) return isa::builtin(name);
  }
  file_storage = isa::load_isa_file(name);
  return file_storage;
}

std::unique_ptr<codegen::Generator> make_tool(const Options& opt,
                                              const isa::VectorIsa& table,
                                              synth::SelectionHistory* history) {
  const std::string dump_cgir_after =
      opt.dump_cgir ? "final" : opt.dump_cgir_after;
  if (opt.tool == "hcg") {
    synth::BatchOptions batch;
    batch.min_nodes_for_simd = opt.threshold;
    return codegen::make_hcg_generator(table, history, batch,
                                       opt.opt_level < 0 ? 1 : opt.opt_level,
                                       opt.profile_gen, dump_cgir_after);
  }
  if (opt.profile_gen) {
    throw Error("--profile-gen is only supported with --tool hcg");
  }
  if (opt.tool == "simulink") {
    return codegen::make_simulink_generator(opt.scattered ? &table : nullptr,
                                            dump_cgir_after);
  }
  if (opt.tool == "dfsynth") {
    return codegen::make_dfsynth_generator(dump_cgir_after);
  }
  throw Error("unknown tool '" + opt.tool + "' (hcg|simulink|dfsynth)");
}

toolchain::CompileOptions compile_options(const Options& opt) {
  toolchain::CompileOptions cc;
  if (opt.cc_timeout >= 0) cc.timeout_seconds = opt.cc_timeout;
  if (opt.cc_retries >= 0) cc.spawn_retries = opt.cc_retries;
  return cc;
}

/// One stderr line per degraded Algorithm 1 decision, so a terminal user
/// sees lossy runs without opening the report JSON.
void warn_degraded(const codegen::GeneratedCode& code) {
  for (const auto& fallback : code.report.degraded) {
    std::fprintf(stderr, "degraded: %s lost %zu candidate(s)%s -> %s\n",
                 fallback.actor.c_str(), fallback.failures.size(),
                 fallback.reference_fallback ? ", using reference" : "",
                 fallback.impl.c_str());
  }
}

/// Fills the CLI-level report fields (load phase, history stats) and writes
/// the report JSON when requested.
void finish_report(const Options& opt, codegen::GeneratedCode& code,
                   double load_ms, const synth::SelectionHistory& history) {
  code.report.phases.insert(code.report.phases.begin(),
                            {"model.load", load_ms});
  code.report.history_hits = history.hits();
  code.report.history_misses = history.misses();
  code.report.history_entries = history.size();
  if (!opt.report_path.empty()) {
    write_file(opt.report_path, code.report.to_json());
    std::fprintf(stderr, "wrote report %s\n", opt.report_path.c_str());
  }
}

int cmd_generate(const Options& opt) {
  Stopwatch load_timer;
  Model model = resolved(load_model_file(opt.model_path));
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  if (!opt.history_path.empty() &&
      std::filesystem::exists(opt.history_path)) {
    synth::SelectionHistory::LoadStats stats;
    history = synth::SelectionHistory::load(opt.history_path, &stats);
    if (stats.dropped > 0) {
      std::fprintf(stderr, "history: dropped %zu corrupt line(s) from %s\n",
                   stats.dropped, opt.history_path.c_str());
    }
  }

  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);

  if (!opt.history_path.empty()) history.save(opt.history_path);

  if (!opt.dump_cgir_after.empty() && code.cgir_dump_after.empty()) {
    throw Error("pass '" + opt.dump_cgir_after +
                "' did not run at the chosen -O level");
  }
  const std::string& payload =
      opt.dump_cgir || !opt.dump_cgir_after.empty() ? code.cgir_dump_after
                                                    : code.source;
  if (opt.out_path.empty()) {
    std::fputs(payload.c_str(), stdout);
  } else {
    write_file(opt.out_path, payload);
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", opt.out_path.c_str(),
                 payload.size());
  }
  if (!code.simd_instructions.empty()) {
    std::fprintf(stderr, "SIMD instructions:");
    for (const auto& name : code.simd_instructions) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
  }
  for (const auto& [actor, impl] : code.intensive_choices) {
    std::fprintf(stderr, "intensive %s -> %s\n", actor.c_str(), impl.c_str());
  }
  if (opt.tool == "hcg") {
    std::fprintf(stderr, "history: %llu hits, %llu misses (%zu entries)\n",
                 static_cast<unsigned long long>(history.hits()),
                 static_cast<unsigned long long>(history.misses()),
                 history.size());
  }
  if (!code.compile_flags.empty()) {
    std::fprintf(stderr, "compile with: %s\n", code.compile_flags.c_str());
  }
  finish_report(opt, code, load_ms, history);
  return 0;
}

int cmd_inspect(const Options& opt) {
  Model model = resolved(load_model_file(opt.model_path));
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  std::printf("model '%s': %d actors, %zu connections\n",
              model.name().c_str(), model.actor_count(),
              model.connections().size());
  for (const Actor& actor : model.actors()) {
    std::printf("  %-12s %-10s", actor.name().c_str(), actor.type().c_str());
    if (actor.output_count() > 0) {
      std::printf(" -> %-12s", actor.output(0).to_string().c_str());
    } else {
      std::printf("    %-12s", "");
    }
    std::printf(" [%s]\n",
                std::string(kind_name(classify(model, actor.id()))).c_str());
  }

  const auto regions = find_batch_regions(model, table);
  std::printf("\nbatch regions against isa '%s': %zu\n", table.name.c_str(),
              regions.size());
  for (size_t r = 0; r < regions.size(); ++r) {
    std::printf("region %zu (%zu actors):\n%s", r, regions[r].actors.size(),
                regions[r].graph.to_string().c_str());
  }
  return 0;
}

int cmd_lint(const Options& opt) {
  Model model = load_model_file(opt.model_path);
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  analysis::LintOptions lint;
  lint.isa = &table;
  lint.min_nodes_for_simd = opt.threshold;
  lint.remarks = !opt.no_remarks;
  analysis::DiagnosticEngine diags(opt.werror);
  const analysis::RangeAnalysis ranges =
      analysis::lint_model(model, lint, diags);

  std::fputs(diags.render(opt.model_path).c_str(), stdout);
  if (!opt.sarif_path.empty()) {
    write_file(opt.sarif_path,
               analysis::to_sarif(diags.diagnostics(),
                                  analysis::sarif_artifact_uri(
                                      opt.model_path)));
    std::fprintf(stderr, "wrote sarif %s\n", opt.sarif_path.c_str());
  }
  if (!opt.report_path.empty()) {
    obs::Report report;
    report.model = model.name();
    report.tool = "lint";
    report.isa = table.name;
    report.actor_count = model.actor_count();
    for (const analysis::Diagnostic& diag : diags.diagnostics()) {
      report.diagnostics.push_back(
          {diag.code, std::string(analysis::severity_name(diag.severity)),
           diag.location, diag.message});
    }
    if (ranges.actors_analyzed > 0) {
      report.range_ran = true;
      report.range_actors_analyzed = ranges.actors_analyzed;
      report.range_bounded_outputs = ranges.bounded_outputs;
      report.range_widened_delays = ranges.widened_delays;
    }
    write_file(opt.report_path, report.to_json());
    std::fprintf(stderr, "wrote report %s\n", opt.report_path.c_str());
  }
  // Contract (docs/ANALYSIS.md): warnings and remarks exit 0, errors — or
  // warnings under --Werror, which the engine already promoted — exit 8.
  return diags.has_errors() ? 8 : 0;
}

int cmd_verify(const Options& opt) {
  Stopwatch load_timer;
  Model model = resolved(load_model_file(opt.model_path));
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);

  toolchain::CompiledModel compiled(code, compile_options(opt));
  code.report.compile_ms = compiled.compile_seconds() * 1e3;
  code.report.compile_command = compiled.compile_command();
  finish_report(opt, code, load_ms, history);
  compiled.init();

  std::vector<Tensor> inputs = benchmodels::workload(model, opt.seed);
  Interpreter oracle(model);
  oracle.init();
  std::vector<Tensor> expected = oracle.step(inputs);
  std::vector<Tensor> got = compiled.step_tensors(model, inputs);

  double worst = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, got[i].max_abs_difference(expected[i]));
  }
  std::printf("%s [%s/%s]: max |generated - simulated| = %g over %zu "
              "output(s)\n",
              model.name().c_str(), opt.tool.c_str(), table.name.c_str(),
              worst, got.size());
  const bool ok = worst <= 1e-2;
  std::printf("%s\n", ok ? "VERIFY OK" : "VERIFY FAILED");
  return ok ? 0 : 1;
}

/// Joins the measured profile against Algorithm 1's selection-time costs:
/// an intensive site whose implementation was selected by measurement this
/// run gets the chosen candidate's pre-calculation time as its prediction.
/// Loops, history hits, and generic implementations have no prediction.
void join_predictions(const codegen::GeneratedCode& code,
                      obs::Report& report, double err_threshold,
                      analysis::DiagnosticEngine& diags) {
  for (obs::ReportProfileSite& site : report.runtime_profile) {
    if (site.calls > 0) {
      site.mean_ns_per_call =
          static_cast<double>(site.ns) / static_cast<double>(site.calls);
    }
    if (site.kind != "intensive") continue;
    const std::string actor = site.label.substr(0, site.label.find(':'));
    for (const obs::ReportIntensive& choice : code.report.intensive) {
      if (choice.actor != actor || !choice.selected || choice.from_history) {
        continue;
      }
      for (const obs::ReportCandidate& candidate : choice.candidates) {
        if (candidate.impl != choice.impl) continue;
        site.predicted_ns = candidate.ms * 1e6;
        if (site.predicted_ns > 0 && site.mean_ns_per_call > 0) {
          site.abs_err_pct =
              std::abs(site.mean_ns_per_call - site.predicted_ns) /
              site.predicted_ns * 100.0;
          if (site.abs_err_pct > err_threshold) {
            char detail[160];
            std::snprintf(detail, sizeof(detail),
                          "measured %.0f ns/call vs predicted %.0f ns "
                          "(%.1f%% error, threshold %.1f%%)",
                          site.mean_ns_per_call, site.predicted_ns,
                          site.abs_err_pct, err_threshold);
            diags.remark("HCG501", "actor '" + actor + "'", detail);
          }
        }
      }
    }
  }
}

int cmd_profile(Options opt) {
  if (opt.tool != "hcg") {
    throw Error("profile only supports --tool hcg");
  }
  opt.profile_gen = true;
  Stopwatch load_timer;
  Model model = resolved(load_model_file(opt.model_path));
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  if (!opt.history_path.empty() &&
      std::filesystem::exists(opt.history_path)) {
    history = synth::SelectionHistory::load(opt.history_path, nullptr);
  }

  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);
  if (!opt.history_path.empty()) history.save(opt.history_path);

  const toolchain::ProfileResult prof = toolchain::run_profile(
      code, model, {opt.reps, compile_options(opt)});

  analysis::DiagnosticEngine diags;
  if (!prof.ok) {
    // Degraded: the report simply has no runtime_profile section.
    diags.warning("HCG502", "", prof.error);
  } else {
    code.report.profile_reps = prof.reps;
    code.report.profile_clock = prof.clock;
    for (const toolchain::ProfileSiteSample& sample : prof.sites) {
      obs::ReportProfileSite site;
      site.id = sample.id;
      site.kind = sample.kind;
      site.label = sample.label;
      site.ns = sample.ns;
      site.calls = sample.calls;
      site.iters = sample.iters;
      code.report.runtime_profile.push_back(std::move(site));
    }
    join_predictions(code, code.report, opt.err_threshold, diags);

    std::printf("%-4s %-10s %-34s %14s %12s %13s %8s\n", "site", "kind",
                "label", "ns/call", "iters", "predicted_ns", "err%");
    for (const obs::ReportProfileSite& site : code.report.runtime_profile) {
      std::printf("%-4s %-10s %-34s %14.1f %12llu", site.id.c_str(),
                  site.kind.c_str(), site.label.c_str(),
                  site.mean_ns_per_call,
                  static_cast<unsigned long long>(site.iters));
      if (site.predicted_ns >= 0) {
        std::printf(" %13.1f %7.1f%%", site.predicted_ns, site.abs_err_pct);
      }
      std::printf("\n");
    }
    std::printf("%d reps, clock %s\n", prof.reps, prof.clock.c_str());
  }
  for (const analysis::Diagnostic& diag : diags.diagnostics()) {
    code.report.diagnostics.push_back(
        {diag.code, std::string(analysis::severity_name(diag.severity)),
         diag.location, diag.message});
  }
  std::fputs(diags.render(opt.model_path).c_str(), stderr);
  finish_report(opt, code, load_ms, history);
  // Degraded profiling still exits 0: the report (minus runtime_profile)
  // is valid and the HCG502 warning carries the reason.
  return 0;
}

/// Per-dtype op-kind coverage of one table: how many of the batch op kinds
/// defined for the element type have a single-instruction implementation.
/// A dtype with few covered kinds is exactly where models fall back to
/// scalar code (the linter's HCG407 remarks name the missing op).
std::string isa_coverage_line(const isa::VectorIsa& table) {
  static constexpr BatchOp kOps[] = {
      BatchOp::kAdd,  BatchOp::kSub,  BatchOp::kMul,  BatchOp::kDiv,
      BatchOp::kMin,  BatchOp::kMax,  BatchOp::kAbd,  BatchOp::kAnd,
      BatchOp::kOr,   BatchOp::kXor,  BatchOp::kNot,  BatchOp::kAbs,
      BatchOp::kRecp, BatchOp::kSqrt, BatchOp::kShl,  BatchOp::kShr,
      BatchOp::kMulC, BatchOp::kAddC, BatchOp::kSel};
  std::string out;
  for (const isa::VType& v : table.vtypes) {
    int defined = 0;
    int covered = 0;
    for (BatchOp op : kOps) {
      if (!op_supports_type(op, v.type)) continue;
      ++defined;
      if (table.supports(op, v.type, v.type)) ++covered;
    }
    if (!out.empty()) out += "  ";
    out += std::string(short_name(v.type)) + " " + std::to_string(covered) +
           "/" + std::to_string(defined);
  }
  return out;
}

int cmd_isa(const Options& opt) {
  if (opt.model_path.empty()) {
    for (const std::string& name : isa::builtin_names()) {
      const isa::VectorIsa& table = isa::builtin(name);
      std::string traits;
      if (table.scalable) traits += "  (scalable)";
      if (table.simulated) traits += "  (simulated)";
      std::printf("%-10s %4d-bit  %3zu instructions  header <%s>%s\n",
                  name.c_str(), table.width_bits, table.instructions.size(),
                  table.header.c_str(), traits.c_str());
      std::printf("%-10s   op coverage: %s\n", "",
                  isa_coverage_line(table).c_str());
    }
    return 0;
  }
  std::fputs(isa::builtin_text(opt.model_path).c_str(), stdout);
  return 0;
}

/// Prints the fault-injection site catalog (same text as HCG_FAULTS=list).
int cmd_faults() {
  std::fputs(faults::render_site_catalog().c_str(), stdout);
  return 0;
}

int cmd_fuzz(const Options& opt) {
  // The campaign wants the cgir verifier as an extra oracle; an explicit
  // HCG_VERIFY=0 in the environment still turns it off.
  setenv("HCG_VERIFY", "1", /*overwrite=*/0);
  fuzz::CampaignConfig config;
  config.seed_start = opt.seed;
  config.seeds = opt.seeds;
  config.minimize = !opt.no_minimize;
  config.corpus_dir = opt.corpus_dir;
  config.report_path = opt.report_path;
  config.harness.sweep_faults = opt.sweep_faults;
  config.harness.baselines = !opt.no_baselines;
  config.harness.generator.max_actors = opt.max_actors;
  if (opt.opt_level >= 0) config.harness.opt_levels = {opt.opt_level};
  if (opt.isa_set) {
    config.harness.isas = split(opt.isa_name, ',');
    for (const std::string& name : config.harness.isas) {
      bool builtin = false;
      for (const std::string& b : isa::builtin_names()) builtin |= b == name;
      if (!builtin) {
        throw Error("fuzz needs built-in isa names, got '" + name + "'");
      }
    }
  }
  config.progress = [](const std::string& line) {
    std::fprintf(stderr, "fuzz: %s\n", line.c_str());
  };
  const fuzz::CampaignResult result = fuzz::run_campaign(config);
  std::fprintf(stderr, "fuzz: %d seed(s), %d variant run(s), %zu distinct finding(s)\n",
               result.seeds_run, result.variants_run, result.findings.size());
  for (const fuzz::CampaignFinding& f : result.findings) {
    std::fprintf(stderr, "fuzz: %s  x%d  (seed %llu)%s%s\n",
                 f.first.signature.c_str(), f.count,
                 static_cast<unsigned long long>(f.first.seed),
                 f.reproducer.empty() ? "" : "  -> ", f.reproducer.c_str());
  }
  if (opt.report_path.empty()) {
    std::fputs(result.report_json.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return result.ok() ? 0 : 10;
}

}  // namespace

int main(int argc, char** argv) {
  apply_log_env();
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) return usage();
  } catch (const Error& e) {
    // Bad flags and missing values are usage errors, not pipeline failures.
    std::fprintf(stderr, "hcgc: %s\n", e.what());
    return usage();
  }
  try {
    // The generator factories read HCG_VERIFY; the flag is its CLI spelling.
    if (opt.verify_cgir) setenv("HCG_VERIFY", "1", /*overwrite=*/1);
    if (opt.command == "isa") {
      return cmd_isa(opt);
    } else if (opt.command == "faults") {
      return cmd_faults();
    } else if (opt.command == "fuzz") {
      return cmd_fuzz(opt);
    } else if (opt.model_path.empty()) {
      return usage();
    } else if (opt.command == "generate") {
      return cmd_generate(opt);
    } else if (opt.command == "inspect") {
      return cmd_inspect(opt);
    } else if (opt.command == "lint") {
      return cmd_lint(opt);
    } else if (opt.command == "verify") {
      return cmd_verify(opt);
    } else if (opt.command == "profile") {
      return cmd_profile(opt);
    } else {
      return usage();
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "hcgc: parse error: %s\n", e.what());
    return 3;
  } catch (const ModelError& e) {
    std::fprintf(stderr, "hcgc: invalid model: %s\n", e.what());
    return 4;
  } catch (const SynthesisError& e) {
    std::fprintf(stderr, "hcgc: synthesis failed: %s\n", e.what());
    return 5;
  } catch (const CodegenError& e) {
    std::fprintf(stderr, "hcgc: codegen failed: %s\n", e.what());
    return 6;
  } catch (const ToolchainError& e) {
    std::fprintf(stderr, "hcgc: toolchain failed: %s\n", e.what());
    return 7;
  } catch (const InternalError& e) {
    std::fprintf(stderr, "hcgc: internal error: %s\n", e.what());
    return 70;
  } catch (const Error& e) {
    std::fprintf(stderr, "hcgc: %s\n", e.what());
    return 1;
  } catch (const std::bad_alloc&) {
    // Keep the message static: formatting could allocate again.
    std::fputs("hcgc: internal error: out of memory\n", stderr);
    return 70;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcgc: internal error: %s\n", e.what());
    return 70;
  } catch (...) {
    std::fputs("hcgc: internal error: unknown exception\n", stderr);
    return 70;
  }
}
