#include "toolchain/compiled_model.hpp"

#include <dlfcn.h>

#include "actors/exec.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace hcg::toolchain {

namespace {

/// Last `max_lines` lines (at most `max_bytes`) of a compiler log, for
/// embedding into a ToolchainError without flooding it.
std::string log_tail(const std::string& log, int max_lines = 30,
                     std::size_t max_bytes = 4096) {
  std::size_t start = log.size();
  int lines = 0;
  while (start > 0 && lines < max_lines && log.size() - start < max_bytes) {
    --start;
    if (log[start] == '\n' && start + 1 < log.size()) ++lines;
  }
  if (start == 0) return log;
  return "...\n" + log.substr(start + 1);
}

/// Runs the compiler through the hardened runner, honoring an armed
/// toolchain.compile fault (fail: nonzero exit, timeout: killed run,
/// throw: FaultInjected) without ever spawning a process for it.
SubprocessResult run_compiler(const std::vector<std::string>& argv,
                              const CompileOptions& options,
                              const std::string& fault_key) {
  switch (faults::probe("toolchain.compile", fault_key)) {
    case faults::Action::kNone:
      break;
    case faults::Action::kThrow:
      throw faults::FaultInjected("injected fault at toolchain.compile [" +
                                  fault_key + "]");
    case faults::Action::kTimeout: {
      SubprocessResult injected;
      injected.kind = ExitKind::kTimedOut;
      injected.wall_seconds = options.timeout_seconds;
      injected.attempts = 1;
      injected.output = "(injected fault: compiler run timed out)";
      return injected;
    }
    default: {  // kFail / kTorn: the compiler ran and reported an error
      SubprocessResult injected;
      injected.kind = ExitKind::kExited;
      injected.exit_code = 1;
      injected.attempts = 1;
      injected.output = "(injected fault: compiler exited with an error)";
      return injected;
    }
  }

  SubprocessOptions sub;
  sub.timeout_seconds = options.timeout_seconds;
  sub.spawn_retries = options.spawn_retries;
  return run_subprocess(argv, sub);
}

}  // namespace

bool compiler_available(const std::string& cc) {
  SubprocessOptions sub;
  sub.timeout_seconds = 20.0;
  const SubprocessResult result = run_subprocess({cc, "--version"}, sub);
  if (!result.ok()) {
    // Distinguish "not installed" from "installed but dying": a compiler
    // killed by a signal or hanging on --version is a real finding.
    log_debug("toolchain") << cc << " unavailable: " << result.describe();
  }
  return result.ok();
}

CompiledModel::CompiledModel(const codegen::GeneratedCode& code,
                             const CompileOptions& options)
    : dir_("hcg-cc") {
  if (options.keep_artifacts) dir_.keep();

  source_path_ = dir_.path() / (code.model_name + "_" + code.tool_name + ".c");
  write_file(source_path_, code.source);
  const std::filesystem::path so_path =
      dir_.path() / (code.model_name + "_" + code.tool_name + ".so");
  const std::filesystem::path log_path = dir_.path() / "cc.log";

  // -fwrapv: generated element-wise code assumes two's-complement wrap on
  // integer overflow, matching the oracle and every SIMD lowering.
  // -falign-functions=64: the embedded kernels start on a cache line, as
  // the host copies Algorithm 1 times do (src/kernels/CMakeLists.txt).
  std::vector<std::string> argv = {options.cc, "-shared", "-fPIC"};
  for (const std::string& flag : split_whitespace(options.opt_flags)) {
    argv.push_back(flag);
  }
  argv.push_back("-fno-math-errno");
  argv.push_back("-fwrapv");
  argv.push_back("-falign-functions=64");
  for (const std::string& flag : split_whitespace(code.compile_flags)) {
    argv.push_back(flag);
  }
  if (code.needs_neon_sim) {
    argv.push_back("-I");
    argv.push_back(HCG_DATA_DIR);
  }
  for (const std::string& flag : options.extra_flags) {
    for (const std::string& piece : split_whitespace(flag)) {
      argv.push_back(piece);
    }
  }
  argv.push_back(source_path_.string());
  argv.push_back("-o");
  argv.push_back(so_path.string());
  argv.push_back("-lm");
  command_ = join(argv, " ");

  Stopwatch timer;
  const SubprocessResult compile = run_compiler(
      argv, options, code.model_name + "/" + code.tool_name);
  compile_seconds_ = timer.elapsed_seconds();
  // The captured diagnostics become cc.log whatever happens next, so a kept
  // temp dir always has the evidence beside the source.
  try {
    write_file(log_path, compile.output);
  } catch (const Error&) {
    // cc.log is best-effort; the diagnostics still ride in the exception.
  }
  if (!compile.ok()) {
    dir_.keep();  // leave evidence behind
    throw ToolchainError(
        "compilation failed: compiler " + compile.describe() + "\n  command: " +
        command_ + "\n" + log_tail(compile.output) + "\nsource kept at " +
        source_path_.string());
  }

  handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle_ == nullptr) {
    throw ToolchainError(std::string("dlopen failed: ") + ::dlerror());
  }
  init_ = reinterpret_cast<void (*)()>(::dlsym(handle_, code.init_symbol.c_str()));
  step_ = reinterpret_cast<void (*)(const void* const*, void* const*)>(
      ::dlsym(handle_, code.step_symbol.c_str()));
  if (init_ == nullptr || step_ == nullptr) {
    throw ToolchainError("generated code is missing " + code.init_symbol +
                         " or " + code.step_symbol);
  }
  log_debug("toolchain") << "compiled " << code.model_name << " ["
                         << code.tool_name << "] in " << compile_seconds_
                         << "s";
}

CompiledModel::~CompiledModel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

void CompiledModel::init() { init_(); }

void* CompiledModel::symbol(const std::string& name) const {
  return ::dlsym(handle_, name.c_str());
}

void CompiledModel::step(const std::vector<const void*>& inputs,
                         const std::vector<void*>& outputs) {
  step_(inputs.data(), outputs.data());
}

std::vector<Tensor> CompiledModel::step_tensors(
    const Model& resolved_model, const std::vector<Tensor>& inputs) {
  const std::vector<ActorId> ins = resolved_model.inports();
  const std::vector<ActorId> outs = resolved_model.outports();
  require(inputs.size() == ins.size(),
          "step_tensors: input count does not match the model's Inports");

  std::vector<const void*> in_ptrs;
  for (const Tensor& t : inputs) in_ptrs.push_back(t.data());

  std::vector<Tensor> results;
  std::vector<void*> out_ptrs;
  for (ActorId id : outs) {
    results.push_back(make_tensor(resolved_model.actor(id).input(0)));
    out_ptrs.push_back(results.back().data());
  }
  // Vector reallocation would invalidate pointers; gather after sizing.
  out_ptrs.clear();
  for (Tensor& t : results) out_ptrs.push_back(t.data());

  step(in_ptrs, out_ptrs);
  return results;
}

}  // namespace hcg::toolchain
