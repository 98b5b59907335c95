// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const std::vector<std::string>& workload_names();

/// Runs one workload end to end: set-up (several times; the last one is
/// kept), the timed codegen loop, the interleaved step timer and, with
/// `trace`, the per-layer extras.  Returns the end-to-end metrics, or with
/// `trace` the per-layer ones.
Results run_workload(const Options& options, Ledger& ledger);

}  // namespace perfbench
