// Host toolchain harness: writes generated C to disk, compiles it with the
// system C compiler into a shared object, loads it with dlopen, and exposes
// the model's init/step entry points.
//
// This is what makes the benchmark numbers real: the code every generator
// produces is actually compiled and executed, not simulated.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "model/tensor.hpp"
#include "support/fileio.hpp"

namespace hcg::toolchain {

struct CompileOptions {
  std::string cc = "gcc";
  /// Optimization configuration — the "compiler" axis of Figure 5.
  std::string opt_flags = "-O2";
  /// Extra flags beyond what the GeneratedCode requests.
  std::vector<std::string> extra_flags;
  /// Keep the temp directory with source/object for inspection.
  bool keep_artifacts = false;
  /// Wall-clock limit for one compiler invocation (`hcgc --cc-timeout`);
  /// <= 0 disables.  A hung cc is killed — whole process group — and
  /// reported as a ToolchainError, not waited on forever.
  double timeout_seconds = 300.0;
  /// Extra attempts when the compiler *process* cannot be spawned
  /// (`hcgc --cc-retries`); compile errors are never retried.
  int spawn_retries = 2;
};

/// True when a usable C compiler is present (tests skip otherwise).  A
/// compiler that crashes or hangs on --version counts as unavailable; the
/// decoded status is logged rather than swallowed.
bool compiler_available(const std::string& cc = "gcc");

class CompiledModel {
 public:
  /// Compiles and loads; throws hcg::ToolchainError with the compiler's
  /// stderr on failure.
  CompiledModel(const codegen::GeneratedCode& code,
                const CompileOptions& options = {});
  ~CompiledModel();

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  /// Calls <model>_init.
  void init();

  /// Calls <model>_step with raw buffer pointers (one per Inport/Outport in
  /// declaration order).
  void step(const std::vector<const void*>& inputs,
            const std::vector<void*>& outputs);

  /// Tensor convenience wrapper: allocates outputs from the resolved model's
  /// Outport specs.
  std::vector<Tensor> step_tensors(const Model& resolved_model,
                                   const std::vector<Tensor>& inputs);

  /// Looks up another symbol the compiled unit exports (nullptr when
  /// absent), e.g. the instrumented build's hcg_prof_dump.
  void* symbol(const std::string& name) const;

  double compile_seconds() const { return compile_seconds_; }
  const std::filesystem::path& source_path() const { return source_path_; }
  const std::string& compile_command() const { return command_; }

 private:
  TempDir dir_;
  std::filesystem::path source_path_;
  std::string command_;
  double compile_seconds_ = 0.0;
  void* handle_ = nullptr;
  void (*init_)() = nullptr;
  void (*step_)(const void* const*, void* const*) = nullptr;
};

}  // namespace hcg::toolchain
