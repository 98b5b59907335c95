// The three code generators compared in the paper, as thin configurations
// of the shared emitter.
#include <utility>

#include "codegen/generator.hpp"

namespace hcg::codegen {

namespace {

class HcgGenerator final : public Generator {
 public:
  HcgGenerator(const isa::VectorIsa& isa, synth::SelectionHistory* history,
               synth::BatchOptions batch_options, int opt_level,
               bool profile_gen, std::string dump_cgir_after)
      : isa_(isa),
        history_(history),
        batch_options_(batch_options),
        opt_level_(opt_level),
        profile_gen_(profile_gen),
        dump_cgir_after_(std::move(dump_cgir_after)) {}

  std::string name() const override { return "hcg"; }

  GeneratedCode generate(const Model& model) override {
    EmitConfig config;
    config.tool_name = "hcg";
    config.batch_mode = BatchMode::kRegions;
    config.isa = &isa_;
    config.select_intensive = true;
    config.history = history_ != nullptr ? history_ : &own_history_;
    config.batch_options = batch_options_;
    config.opt_level = opt_level_;
    // HCG keeps the conventional composition optimizations of the Simulink
    // Coder path (paper §3: only the implementation part of actors changes).
    config.fold_scalar_expressions = true;
    config.reuse_buffers = true;
    config.profile_gen = profile_gen_;
    config.dump_cgir_after = dump_cgir_after_;
    return emit_model(model, config);
  }

 private:
  const isa::VectorIsa& isa_;
  synth::SelectionHistory* history_;
  synth::SelectionHistory own_history_;
  synth::BatchOptions batch_options_;
  int opt_level_;
  bool profile_gen_;
  std::string dump_cgir_after_;
};

class SimulinkGenerator final : public Generator {
 public:
  SimulinkGenerator(const isa::VectorIsa* scattered_isa,
                    std::string dump_cgir_after)
      : scattered_isa_(scattered_isa),
        dump_cgir_after_(std::move(dump_cgir_after)) {}

  std::string name() const override { return "simulink"; }

  GeneratedCode generate(const Model& model) override {
    EmitConfig config;
    config.tool_name = "simulink";
    if (scattered_isa_ != nullptr) {
      // §4.2: on Intel, Simulink Coder emits scattered per-actor SIMD whose
      // intermediate results bounce through memory between loops.
      config.batch_mode = BatchMode::kScattered;
      config.isa = scattered_isa_;
    } else {
      config.batch_mode = BatchMode::kUnrollThenLoops;
    }
    config.fold_scalar_expressions = true;
    config.reuse_buffers = true;
    config.select_intensive = false;  // generic intensive functions
    config.dump_cgir_after = dump_cgir_after_;
    return emit_model(model, config);
  }

 private:
  const isa::VectorIsa* scattered_isa_;
  std::string dump_cgir_after_;
};

class DfsynthGenerator final : public Generator {
 public:
  explicit DfsynthGenerator(std::string dump_cgir_after)
      : dump_cgir_after_(std::move(dump_cgir_after)) {}

  std::string name() const override { return "dfsynth"; }

  GeneratedCode generate(const Model& model) override {
    EmitConfig config;
    config.tool_name = "dfsynth";
    config.batch_mode = BatchMode::kScalarLoops;  // cyclic computation code
    config.fold_scalar_expressions = false;
    config.reuse_buffers = false;
    config.select_intensive = false;  // generic intensive functions
    config.dump_cgir_after = dump_cgir_after_;
    return emit_model(model, config);
  }

 private:
  std::string dump_cgir_after_;
};

}  // namespace

std::unique_ptr<Generator> make_hcg_generator(const isa::VectorIsa& isa,
                                              synth::SelectionHistory* history,
                                              synth::BatchOptions batch_options,
                                              int opt_level, bool profile_gen,
                                              std::string dump_cgir_after) {
  return std::make_unique<HcgGenerator>(isa, history, batch_options, opt_level,
                                        profile_gen,
                                        std::move(dump_cgir_after));
}

std::unique_ptr<Generator> make_simulink_generator(
    const isa::VectorIsa* scattered_isa, std::string dump_cgir_after) {
  return std::make_unique<SimulinkGenerator>(scattered_isa,
                                             std::move(dump_cgir_after));
}

std::unique_ptr<Generator> make_dfsynth_generator(std::string dump_cgir_after) {
  return std::make_unique<DfsynthGenerator>(std::move(dump_cgir_after));
}

}  // namespace hcg::codegen
