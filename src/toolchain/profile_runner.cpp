#include "toolchain/profile_runner.hpp"

#include <filesystem>

#include "model/datatype.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "toolchain/compiled_model.hpp"

namespace hcg::toolchain {

namespace {

/// Deterministic, denormal-free input for one Inport: scalar component k
/// (complex elements count twice) holds (k % 31) - 15, or k % 31 for
/// unsigned types, scaled by 1/32 for floating point.
Tensor profile_input(const PortSpec& spec) {
  Tensor t(spec.type, spec.shape);
  const DataType comp = component_type(spec.type);
  const int components =
      is_complex(spec.type) ? t.elements() * 2 : t.elements();
  for (int k = 0; k < components; ++k) {
    const int value = is_unsigned_int(comp) ? k % 31 : k % 31 - 15;
    if (comp == DataType::kFloat32) {
      t.as<float>()[k] = static_cast<float>(value) * 0.03125f;
    } else if (comp == DataType::kFloat64) {
      t.as<double>()[k] = value * 0.03125;
    } else {
      t.set_double(k, value);
    }
  }
  return t;
}

ProfileResult degrade(ProfileResult result, std::string reason) {
  result.ok = false;
  result.error = std::move(reason);
  result.sites.clear();
  result.reps = 0;
  log_warn("profile") << "profiling degraded: " << result.error;
  return result;
}

std::uint64_t member_u64(const obs::JsonValue& object, std::string_view name) {
  const obs::JsonValue* value = object.find(name);
  if (value == nullptr || value->kind != obs::JsonValue::Kind::kNumber ||
      value->number < 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(value->number);
}

std::string member_str(const obs::JsonValue& object, std::string_view name) {
  const obs::JsonValue* value = object.find(name);
  return value != nullptr ? value->string : std::string();
}

}  // namespace

ProfileResult run_profile(const codegen::GeneratedCode& code,
                          const Model& resolved_model,
                          const ProfileRunOptions& options) {
  HCG_TRACE_SCOPE("profile.run");
  ProfileResult result;
  if (code.profile_sites.empty()) {
    return degrade(std::move(result),
                   "generated code carries no profiling sites "
                   "(emitted without --profile-gen?)");
  }

  try {
    CompileOptions compile = options.compile;
    compile.extra_flags.push_back("-DHCG_PROF");
    CompiledModel compiled(code, compile);
    using DumpFn = int (*)(const char*);
    const auto dump_fn =
        reinterpret_cast<DumpFn>(compiled.symbol("hcg_prof_dump"));
    if (dump_fn == nullptr) {
      return degrade(std::move(result),
                     "compiled unit does not export hcg_prof_dump");
    }

    std::vector<Tensor> inputs;
    std::vector<const void*> in_ptrs;
    for (ActorId id : resolved_model.inports()) {
      inputs.push_back(profile_input(resolved_model.actor(id).output(0)));
    }
    for (const Tensor& t : inputs) in_ptrs.push_back(t.data());
    std::vector<Tensor> outputs;
    std::vector<void*> out_ptrs;
    for (ActorId id : resolved_model.outports()) {
      const PortSpec& spec = resolved_model.actor(id).input(0);
      outputs.emplace_back(spec.type, spec.shape);
    }
    for (Tensor& t : outputs) out_ptrs.push_back(t.data());

    const int reps = options.reps > 0 ? options.reps : 1;
    compiled.init();
    compiled.step(in_ptrs, out_ptrs);  // warm-up
    for (int r = 0; r < reps; ++r) compiled.step(in_ptrs, out_ptrs);

    const std::filesystem::path dump_path =
        compiled.source_path().parent_path() / "profile.json";
    if (dump_fn(dump_path.c_str()) != 0) {
      return degrade(std::move(result),
                     "hcg_prof_dump could not write " + dump_path.string());
    }
    const obs::JsonValue dump = obs::json_parse(read_file(dump_path));
    if (member_str(dump, "schema") != "hcg-profile-v1") {
      return degrade(std::move(result),
                     "profile dump is not an hcg-profile-v1 document");
    }
    result.clock = member_str(dump, "clock");
    result.reps = reps;
    const obs::JsonValue* sites = dump.find("sites");
    if (sites == nullptr || !sites->is_array()) {
      return degrade(std::move(result), "profile dump has no sites array");
    }
    for (const obs::JsonValue& entry : sites->array) {
      ProfileSiteSample sample;
      sample.id = member_str(entry, "id");
      sample.kind = member_str(entry, "kind");
      sample.label = member_str(entry, "label");
      sample.ns = member_u64(entry, "ns");
      sample.calls = member_u64(entry, "calls");
      sample.iters = member_u64(entry, "iters");
      result.sites.push_back(std::move(sample));
    }
    result.ok = true;
    log_debug("profile") << "profiled " << code.model_name << ": "
                         << result.sites.size() << " sites, " << reps
                         << " reps";
    return result;
  } catch (const std::exception& e) {
    // ToolchainError from the compile or dlopen, FaultInjected from an armed
    // toolchain.compile or subprocess.spawn probe, file I/O errors, or a
    // malformed dump: all degrade instead of killing the run.
    return degrade(std::move(result), e.what());
  }
}

}  // namespace hcg::toolchain
