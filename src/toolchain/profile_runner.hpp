// Runtime profiling of generated code (`hcgc profile`; docs/PROFILING.md).
//
// Takes a --profile-gen instrumented GeneratedCode, compiles it once with
// -DHCG_PROF through CompiledModel, runs init, one warm-up step and N timed
// steps in-process on a deterministic input, then calls the unit's own
// hcg_prof_dump() and ingests the hcg-profile-v1 JSON it writes.  Every
// failure the toolchain reports — compiler missing, compile error or
// timeout, armed toolchain/subprocess fault, unparsable dump — degrades to
// `ok == false` with a reason instead of throwing, so callers can fall back
// to a profile-less report (the HCG502 path).  A step that crashes or hangs
// takes the calling process with it, as in every other in-process run of
// generated code (hcgc verify, the fuzz differential, perfbench).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "model/model.hpp"
#include "toolchain/compiled_model.hpp"

namespace hcg::toolchain {

struct ProfileRunOptions {
  /// Timed step() invocations (after one warm-up call).
  int reps = 200;
  /// How the instrumented unit is compiled; -DHCG_PROF is always added.
  CompileOptions compile;
};

/// One site's measured totals, straight from the hcg-profile-v1 dump.
struct ProfileSiteSample {
  std::string id;
  std::string kind;
  std::string label;
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t iters = 0;
};

struct ProfileResult {
  bool ok = false;
  std::string error;  // degrade reason when !ok
  std::string clock;  // "monotonic_ns"
  int reps = 0;
  std::vector<ProfileSiteSample> sites;
};

/// Compiles, runs and dumps the instrumented unit.  `code` must have been
/// emitted with EmitConfig::profile_gen (checked: degrades otherwise), and
/// `resolved_model` must be the resolved model it was generated from (port
/// shapes size the step's I/O buffers).
ProfileResult run_profile(const codegen::GeneratedCode& code,
                          const Model& resolved_model,
                          const ProfileRunOptions& options = {});

}  // namespace hcg::toolchain
