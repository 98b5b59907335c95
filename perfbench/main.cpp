// hcg_perfbench: the repository benchmark binary (run it through run.py).
//
//   hcg_perfbench --workload paper_step|fuzz_codegen|farm_select
//                 --seed N --seconds S --trace 0|1 [--allow-knobs]
//
// Prints the run's environment, one row per step model, one line per
// metric with its unit, and as the last stdout line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// Exit codes: 0 measured (failures are counted in the result, not fatal),
// 1 the workload crashed, 2 usage error, 3 refused: an environment knob
// that changes what is measured is set (pass --allow-knobs to record it and
// run anyway).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "support/subprocess.hpp"
#include "workloads.hpp"

namespace {

/// Environment variables the code generator or the old bench harness read,
/// each of which changes what a run measures.
constexpr const char* kKnobs[] = {"HCG_VERIFY",     "HCG_FAULTS",
                                  "HCG_JOBS",       "HCG_TRACE",
                                  "HCG_PROF_RDTSC", "HCG_BENCH_SECONDS"};

std::string compiler_version() {
  try {
    hcg::SubprocessOptions options;
    options.timeout_seconds = 10.0;
    const hcg::SubprocessResult cc =
        hcg::run_subprocess({"gcc", "--version"}, options);
    if (cc.ok() && !cc.output.empty()) {
      return cc.output.substr(0, cc.output.find('\n'));
    }
  } catch (const std::exception&) {
    // Reported as unknown below.
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: hcg_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--allow-knobs]\n  workloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool allow_knobs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow-knobs") {
      allow_knobs = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known |= name == options.workload;
  }
  if (!known || options.seconds <= 0) return usage();

  std::printf("env workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("env cpus=%u avx2=%s cc=\"%s\"\n",
              std::thread::hardware_concurrency(),
              perfbench::host_has_avx2() ? "yes" : "no",
              compiler_version().c_str());
  bool knob_set = false;
  for (const char* knob : kKnobs) {
    const char* value = std::getenv(knob);
    if (value == nullptr) continue;
    knob_set = true;
    std::printf("env knob %s=\"%s\"\n", knob, value);
  }
  if (knob_set && !allow_knobs) {
    std::fprintf(stderr,
                 "hcg_perfbench: refusing to measure with an HCG_* knob set "
                 "(see the env lines above); unset it or pass --allow-knobs\n");
    return 3;
  }

  try {
    perfbench::Ledger ledger;
    const perfbench::Results results = perfbench::run_workload(options, ledger);
    results.print(ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcg_perfbench: workload failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
