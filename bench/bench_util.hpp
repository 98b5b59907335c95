// Shared benchmark harness helpers: compile-and-time generated models,
// calibrated repetition counts, aligned table printing, and the one
// "hcg-bench-v1" writer every BENCH_*.json goes through (one escaper, one
// formatter, one environment fingerprint — docs/PROFILING.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/subprocess.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg::bench {

/// Target wall time per measurement; override with HCG_BENCH_SECONDS.
inline double target_seconds() {
  if (const char* env = std::getenv("HCG_BENCH_SECONDS")) {
    return std::atof(env);
  }
  return 0.25;
}

/// Benchmark binaries honor HCG_LOG and, when HCG_METRICS_OUT names a file,
/// dump the process-wide metrics registry there as JSON on exit — the same
/// writer `hcgc --report` uses, so bench results and codegen reports share
/// one machine-readable format.
inline const bool kObsEnvApplied = [] {
  apply_log_env();
  if (const char* path = std::getenv("HCG_METRICS_OUT");
      path != nullptr && *path != '\0') {
    static std::string out_path = path;
    std::atexit([] {
      try {
        write_file(out_path, obs::Registry::instance().to_json());
      } catch (...) {
        // Never let a metrics dump turn a successful bench into a failure.
      }
    });
  }
  return true;
}();

/// Compiles a generated model and returns it ready to step.
inline toolchain::CompiledModel compile(const codegen::GeneratedCode& code,
                                        const std::string& opt_flags = "-O2") {
  toolchain::CompileOptions options;
  options.opt_flags = opt_flags;
  return toolchain::CompiledModel(code, options);
}

struct TimedRun {
  double seconds_per_step = 0.0;
  int repetitions = 0;
};

/// Runs `step` repeatedly with calibrated repetitions (one probe step, then
/// enough steps to fill target_seconds()), returning seconds per step.
inline TimedRun time_steps(toolchain::CompiledModel& compiled,
                           const std::vector<const void*>& inputs,
                           const std::vector<void*>& outputs) {
  compiled.init();
  compiled.step(inputs, outputs);  // warm-up
  Stopwatch probe;
  compiled.step(inputs, outputs);
  const double once = std::max(probe.elapsed_seconds(), 1e-9);
  const int reps = static_cast<int>(
      std::clamp(target_seconds() / once, 3.0, 200000.0));
  Stopwatch timer;
  for (int i = 0; i < reps; ++i) compiled.step(inputs, outputs);
  const double per_step = timer.elapsed_seconds() / reps;
  obs::Registry::instance().histogram("bench.step_ns").observe(per_step * 1e9);
  return TimedRun{per_step, reps};
}

/// Binds tensors to raw pointer vectors for step().
struct IoBinding {
  std::vector<Tensor> inputs;
  std::vector<Tensor> outputs;
  std::vector<const void*> in_ptrs;
  std::vector<void*> out_ptrs;
};

inline IoBinding bind_io(const Model& resolved_model, std::uint64_t seed = 42) {
  IoBinding io;
  io.inputs = benchmodels::workload(resolved_model, seed);
  for (const Tensor& t : io.inputs) io.in_ptrs.push_back(t.data());
  for (ActorId id : resolved_model.outports()) {
    io.outputs.push_back(make_tensor(resolved_model.actor(id).input(0)));
  }
  for (Tensor& t : io.outputs) io.out_ptrs.push_back(t.data());
  return io;
}

/// Verifies a compiled model against the interpreter oracle before timing;
/// aborts the bench with a message on mismatch (never report numbers from
/// wrong code).
inline void verify_against_oracle(toolchain::CompiledModel& compiled,
                                  const Model& resolved_model,
                                  const IoBinding& io, double tolerance) {
  Interpreter oracle(resolved_model);
  oracle.init();
  std::vector<Tensor> expected = oracle.step(io.inputs);
  compiled.init();
  std::vector<Tensor> got = compiled.step_tensors(resolved_model, io.inputs);
  for (size_t i = 0; i < got.size(); ++i) {
    const double diff = got[i].max_abs_difference(expected[i]);
    if (diff > tolerance) {
      std::fprintf(stderr,
                   "FATAL: generated code disagrees with oracle on '%s' "
                   "(output %zu, max diff %g)\n",
                   resolved_model.name().c_str(), i, diff);
      std::exit(1);
    }
  }
}

/// Prints an aligned table: first row is the header.
inline void print_table(const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> width;
  for (const auto& row : rows) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      std::string cell = rows[r][c];
      cell.resize(width[c], ' ');
      line += cell;
      if (c + 1 < rows[r].size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule;
      for (size_t c = 0; c < width.size(); ++c) {
        rule += std::string(width[c], '-');
        if (c + 1 < width.size()) rule += "  ";
      }
      std::printf("%s\n", rule.c_str());
    }
  }
}

inline std::string format_seconds(double seconds) {
  char buf[64];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  }
  return buf;
}

inline std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

// ---- hcg-bench-v1: the one schema every BENCH_*.json uses -----------------
//
//   { "schema": "hcg-bench-v1", "suite": "codegen",
//     "env": { "cpus": 8, "flags": "release", "git_rev": "ec5f69f" },
//     "metrics": [ { "name": "fir.emit_seconds", "kind": "time",
//                    "value": 0.0042, "unit": "s", "higher_better": false },
//                  ... ] }
//
// `kind` decides how the regression gate (bench_runner --check) treats the
// metric: "count" metrics are deterministic and compare exactly; "time" and
// "ratio" metrics are noisy and compare against a threshold, and only when
// the environment fingerprint matches the baseline's.

struct BenchMetric {
  std::string name;
  std::string kind;  // "count" | "time" | "ratio"
  double value = 0.0;
  std::string unit;  // "s", "x", "" for plain counts
  bool higher_better = false;
};

inline BenchMetric count_metric(std::string name, double value,
                                std::string unit = "") {
  return BenchMetric{std::move(name), "count", value, std::move(unit), false};
}

inline BenchMetric time_metric(std::string name, double seconds) {
  return BenchMetric{std::move(name), "time", seconds, "s", false};
}

inline BenchMetric ratio_metric(std::string name, double value,
                                bool higher_better = true) {
  return BenchMetric{std::move(name), "ratio", value, "x", higher_better};
}

/// Environment fingerprint recorded with every bench run; --check refuses to
/// gate noisy metrics when the current fingerprint disagrees with the
/// baseline's (a 2-cpu CI runner must not fail a 32-cpu workstation's
/// numbers).
struct BenchEnv {
  unsigned cpus = 0;
  /// First line of `gcc --version` ("unknown" without a toolchain): exec
  /// suite numbers depend on the compiler that built the generated code.
  std::string cc;
  /// Instruction table the suite generated code for (e.g. "neon_sim",
  /// "sve").  Part of the fingerprint so a scalable-ISA baseline can never
  /// silently gate a fixed-width run or vice versa — the two emit different
  /// loop forms and their numbers are not comparable.
  std::string isa;
  std::string flags;    // "release" | "debug"
  std::string git_rev;  // short rev, "unknown" when git is unavailable
};

inline BenchEnv bench_env() {
  BenchEnv env;
  env.cpus = std::thread::hardware_concurrency();
#ifdef NDEBUG
  env.flags = "release";
#else
  env.flags = "debug";
#endif
  env.cc = "unknown";
  try {
    SubprocessOptions cc_options;
    cc_options.timeout_seconds = 10.0;
    SubprocessResult cc = run_subprocess({"gcc", "--version"}, cc_options);
    if (cc.ok() && !cc.output.empty()) {
      const std::size_t eol = cc.output.find('\n');
      env.cc = cc.output.substr(0, eol);
    }
  } catch (...) {
    // Fingerprint stays "unknown"; never fail a bench over a missing cc.
  }
  env.git_rev = "unknown";
  try {
    // HCG_DATA_DIR lives inside the source tree, so -C works from there.
    SubprocessOptions options;
    options.timeout_seconds = 10.0;
    SubprocessResult git = run_subprocess(
        {"git", "-C", HCG_DATA_DIR, "rev-parse", "--short", "HEAD"}, options);
    if (git.ok()) {
      std::string rev = git.output;
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (!rev.empty()) env.git_rev = rev;
    }
  } catch (...) {
    // Fingerprint stays "unknown"; never fail a bench over missing git.
  }
  return env;
}

/// Wraps a measured duration in the "bench.measure" fault probe: any armed
/// action inflates the reading 16x, which is how tests (and the CI smoke
/// job) prove the regression gate actually fires.  All timing metrics must
/// pass through here before being recorded.
inline double measured(std::string_view metric_name, double seconds) {
  if (faults::probe("bench.measure", metric_name) != faults::Action::kNone) {
    return seconds * 16.0;
  }
  return seconds;
}

/// Serializes one suite's result as an hcg-bench-v1 document.
inline std::string bench_json(const std::string& suite, const BenchEnv& env,
                              const std::vector<BenchMetric>& metrics) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("hcg-bench-v1");
  json.key("suite").value(suite);
  json.key("env").begin_object();
  json.key("cpus").value(static_cast<std::uint64_t>(env.cpus));
  json.key("cc").value(env.cc);
  json.key("isa").value(env.isa);
  json.key("flags").value(env.flags);
  json.key("git_rev").value(env.git_rev);
  json.end_object();
  json.key("metrics").begin_array();
  for (const BenchMetric& m : metrics) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("kind").value(m.kind);
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.key("higher_better").value(m.higher_better);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

/// Writes BENCH_<suite>.json (hcg-bench-v1) into `dir` and returns the path.
inline std::string write_bench_json(const std::string& dir,
                                    const std::string& suite,
                                    const BenchEnv& env,
                                    const std::vector<BenchMetric>& metrics) {
  const std::string path = dir + "/BENCH_" + suite + ".json";
  write_file(path, bench_json(suite, env, metrics));
  return path;
}

}  // namespace hcg::bench
