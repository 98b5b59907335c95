// Unit tests for the code generators: emitted source structure, tool
// differentiation (unrolling / loops / scattered SIMD / fused regions),
// expression folding, buffer reuse, and metadata; plus compiled cells
// checked against the VM oracle.
#include <gtest/gtest.h>

#include <ostream>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/cgir.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "kernels/library.hpp"
#include "model/builder.hpp"
#include "synth/history.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg::codegen {
namespace {

int count_occurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// ABI & structure
// ---------------------------------------------------------------------------

TEST(Codegen, EmitsTheFixedAbi) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_EQ(code.init_symbol, "fir_bench_init");
  EXPECT_EQ(code.step_symbol, "fir_bench_step");
  EXPECT_NE(code.source.find("void fir_bench_init(void)"), std::string::npos);
  EXPECT_NE(code.source.find(
                "void fir_bench_step(const void* const* inputs, "
                "void* const* outputs)"),
            std::string::npos);
}

TEST(Codegen, BindsPortsInDeclarationOrder) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_NE(code.source.find("inputs[0]"), std::string::npos);
  EXPECT_NE(code.source.find("inputs[1]"), std::string::npos);
  EXPECT_NE(code.source.find("outputs[0]"), std::string::npos);
}

TEST(Codegen, ConstantsBecomeStaticConstArrays) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_NE(code.source.find("static const int32_t sig_taps[16] = {"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tool differentiation on batch actors
// ---------------------------------------------------------------------------

TEST(Codegen, DfsynthEmitsOneLoopPerBatchActor) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  // Two batch actors -> two scalar loops; no SIMD anywhere.
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; ++i)"), 2);
  EXPECT_TRUE(code.simd_instructions.empty());
  EXPECT_EQ(code.source.find("vmlaq"), std::string::npos);
  EXPECT_EQ(code.compile_flags, "");
}

TEST(Codegen, SimulinkUnrollsSmallArrays) {
  auto gen = make_simulink_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(8));
  // Figure 2 style: one statement per element, no loop.  (The Mul output
  // lands in a reused buffer, hence the buf-name-agnostic check.)
  EXPECT_EQ(code.source.find("for (int i"), std::string::npos);
  EXPECT_NE(code.source.find("[7] = "), std::string::npos);
}

TEST(Codegen, SimulinkFallsBackToLoopsAboveThreshold) {
  auto gen = make_simulink_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(256));
  EXPECT_NE(code.source.find("for (int i = 0; i < 256; ++i)"),
            std::string::npos);
  EXPECT_TRUE(code.simd_instructions.empty());
}

TEST(Codegen, SimulinkScatteredModeVectorizesPerActor) {
  const isa::VectorIsa& sse = isa::builtin("sse");
  auto gen = make_simulink_generator(&sse);
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  // Two separate vector loops (one per actor), not a fused one: the Mul
  // result goes through memory.
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; i += 4)"),
            2);
  EXPECT_EQ(code.simd_instructions,
            (std::vector<std::string>{"mulld", "addd"}));
  EXPECT_EQ(code.fused_regions, 0);
  EXPECT_NE(code.compile_flags.find("-msse4.2"), std::string::npos);
}

TEST(Codegen, HcgFusesTheRegionIntoOneLoop) {
  auto gen = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; i += 4)"),
            1);
  EXPECT_EQ(code.simd_instructions, std::vector<std::string>{"vmlaq_s32"});
  EXPECT_EQ(code.fused_regions, 1);
  EXPECT_TRUE(code.needs_neon_sim);
  EXPECT_NE(code.source.find("#include \"hcg_neon_sim.h\""),
            std::string::npos);
}

TEST(Codegen, HcgOnRealNeonIncludesArmHeader) {
  auto gen = make_hcg_generator(isa::builtin("neon"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  EXPECT_FALSE(code.needs_neon_sim);
  EXPECT_NE(code.source.find("#include <arm_neon.h>"), std::string::npos);
}

TEST(Codegen, RegionInteriorSignalsGetNoBuffers) {
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode fused = hcg->generate(benchmodels::highpass_model(64));
  // d, m, s live in registers; only the region output and constants remain.
  EXPECT_EQ(fused.source.find("sig_d["), std::string::npos);
  EXPECT_EQ(fused.source.find("sig_m["), std::string::npos);
  auto df = make_dfsynth_generator();
  GeneratedCode loops = df->generate(benchmodels::highpass_model(64));
  EXPECT_LT(fused.static_buffer_bytes, loops.static_buffer_bytes);
}

TEST(Codegen, HcgFallsBackToConventionalBelowVectorWidth) {
  auto gen = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(3));  // < 4 lanes
  EXPECT_TRUE(code.simd_instructions.empty());
  EXPECT_NE(code.source.find("for (int i = 0; i < 3; ++i)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Intensive actors
// ---------------------------------------------------------------------------

TEST(Codegen, BaselinesCallGeneralKernelHcgCallsSelected) {
  Model model = benchmodels::fft_model(1024);
  auto sc = make_simulink_generator();
  GeneratedCode sc_code = sc->generate(model);
  EXPECT_EQ(sc_code.intensive_choices.at("fft"), "fft_mixed");
  EXPECT_NE(sc_code.source.find("hcg_fft_mixed(in_x"), std::string::npos);

  synth::SelectionHistory history;
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"), &history);
  GeneratedCode hcg_code = hcg->generate(model);
  const std::string& chosen = hcg_code.intensive_choices.at("fft");
  EXPECT_TRUE(chosen == "fft_radix2_tab" || chosen == "fft_radix4" ||
              chosen == "fft_mixed")
      << chosen;
  // The selection was recorded in the shared history.
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, {Shape({1024})}));
}

TEST(Codegen, KernelSourceIsEmbeddedExactlyOnce) {
  // Two FFT actors share one embedded copy of hcg_fft.c.
  ModelBuilder b("twofft");
  PortRef x = b.inport("x", DataType::kComplex64, Shape({64}));
  PortRef f1 = b.actor("f1", "FFT", {x});
  PortRef f2 = b.actor("f2", "IFFT", {f1});
  b.outport("y", f2);
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(b.take());
  EXPECT_EQ(count_occurrences(code.source, "void hcg_fft_dft("), 1);
  // One definition plus two call sites.
  EXPECT_EQ(count_occurrences(code.source, "hcg_fft_mixed("), 3);
}

TEST(Codegen, ConvPassesBothOperandLengths) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::conv_model(100, 17));
  EXPECT_NE(code.source.find("hcg_conv_direct_f32(in_x, 100, sig_taps, 17,"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Expression folding & buffer reuse
// ---------------------------------------------------------------------------

TEST(Codegen, ScalarChainIsFoldedBySimulinkNotByDfsynth) {
  ModelBuilder b("fold");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));
  PortRef g = b.actor("g", "Gain", {x}, {{"gain", "2"}});
  PortRef h = b.actor("h", "Bias", {g}, {{"bias", "1"}});
  b.outport("y", h);
  Model model = b.take();

  auto sc = make_simulink_generator();
  GeneratedCode folded = sc->generate(model);
  // No intermediate buffers: g and h are folded into the output statement.
  EXPECT_EQ(folded.source.find("sig_g"), std::string::npos);
  EXPECT_EQ(folded.source.find("sig_h"), std::string::npos);

  auto df = make_dfsynth_generator();
  GeneratedCode unfolded = df->generate(model);
  EXPECT_NE(unfolded.source.find("sig_g"), std::string::npos);
}

TEST(Codegen, FoldingStopsAtFanout) {
  ModelBuilder b("fanout");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));
  PortRef g = b.actor("g", "Gain", {x}, {{"gain", "2"}});
  PortRef a = b.actor("a", "Bias", {g}, {{"bias", "1"}});
  PortRef c = b.actor("c", "Bias", {g}, {{"bias", "3"}});
  b.outport("ya", a);
  b.outport("yc", c);
  auto sc = make_simulink_generator();
  GeneratedCode code = sc->generate(b.take());
  // g has two consumers -> materialized once (into a reused buffer), not
  // folded into both consumers: the gain multiply appears exactly once.
  EXPECT_EQ(count_occurrences(code.source, "* (float)2"), 1);
}

TEST(Codegen, BufferReuseShrinksSimulinkStaticFootprint) {
  // A long chain of batch actors: with reuse, buffers ping-pong.
  Model model = benchmodels::batch_chain_model(6, 256);
  auto sc = make_simulink_generator();
  auto df = make_dfsynth_generator();
  GeneratedCode with_reuse = sc->generate(model);
  GeneratedCode without = df->generate(model);
  EXPECT_LT(with_reuse.static_buffer_bytes, without.static_buffer_bytes);
  EXPECT_NE(with_reuse.source.find("static float buf0[256];"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Delays
// ---------------------------------------------------------------------------

TEST(Codegen, DelayStateDeclaredInitializedAndUpdatedLast) {
  Model m("delayed");
  ActorId x = m.add_actor("x", "Inport");
  m.actor(x).set_param("dtype", "i32");
  m.actor(x).set_param("shape", "8");
  ActorId d = m.add_actor("d", "UnitDelay");
  m.actor(d).set_param("dtype", "i32");
  m.actor(d).set_param("shape", "8");
  ActorId a = m.add_actor("a", "BitNot");
  ActorId y = m.add_actor("y", "Outport");
  m.connect(x, 0, d, 0);
  m.connect(d, 0, a, 0);
  m.connect(a, 0, y, 0);

  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(m);
  EXPECT_NE(code.source.find("static int32_t dly_d[8];"), std::string::npos);
  EXPECT_NE(code.source.find("memset(dly_d, 0, sizeof(dly_d));"),
            std::string::npos);
  // The state update is the last thing in step(), after the consumer read.
  const size_t use_pos = code.source.find("~dly_d[i]");
  const size_t update_pos = code.source.find("memcpy(dly_d, in_x");
  ASSERT_NE(use_pos, std::string::npos);
  ASSERT_NE(update_pos, std::string::npos);
  EXPECT_LT(use_pos, update_pos);
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

TEST(Codegen, MemoryFootprintsAreComparableAcrossTools) {
  for (Model& model : benchmodels::paper_models()) {
    auto sc = make_simulink_generator();
    auto df = make_dfsynth_generator();
    GeneratedCode a = sc->generate(model);
    GeneratedCode b = df->generate(model);
    // Buffer reuse and output aliasing can only shrink the footprint.
    EXPECT_LE(a.static_buffer_bytes, b.static_buffer_bytes) << model.name();
  }
  // A model whose only signal feeds the Outport directly needs no static
  // buffers at all.
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode fig4 = hcg->generate(benchmodels::paper_fig4_model(1024));
  EXPECT_EQ(fig4.static_buffer_bytes, 0u);
  EXPECT_EQ(fig4.source.find("memcpy(out_"), std::string::npos);
}

TEST(Codegen, GeneratorNames) {
  EXPECT_EQ(make_hcg_generator(isa::builtin("neon"))->name(), "hcg");
  EXPECT_EQ(make_simulink_generator()->name(), "simulink");
  EXPECT_EQ(make_dfsynth_generator()->name(), "dfsynth");
}

// ---------------------------------------------------------------------------
// CGIR dump checkpoints
// ---------------------------------------------------------------------------

TEST(ProfileGen, FinalDumpIsTheInstrumentedUnit) {
  // The "final" checkpoint (hcgc --dump-cgir) comes after instrumentation:
  // the dump holds the HCG_PROF statements and re-prints as the source.
  Model model = resolved(benchmodels::fft_model());
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"), nullptr, {},
                                /*opt_level=*/1, /*profile_gen=*/true, "final");
  const GeneratedCode code = hcg->generate(model);
  EXPECT_NE(code.cgir_dump_after.find("HCG_PROF_ENTER"), std::string::npos);
  EXPECT_EQ(cgir::print(cgir::parse_dump(code.cgir_dump_after)), code.source);
}

// ---------------------------------------------------------------------------
// Compiled cells against the VM oracle: model x tool x ISA x -O cells that
// no other oracle test compiles on the same code path
// ---------------------------------------------------------------------------

/// A history that answers every `type` key of `model` with `impl`, so the
/// generated code calls that kernel whatever the pre-calculation would pick.
synth::SelectionHistory forced(const Model& model, const std::string& type,
                               const std::string& impl) {
  synth::SelectionHistory history;
  for (const Actor& actor : model.actors()) {
    if (actor.type() != type) continue;
    std::vector<Shape> shapes;
    for (const PortSpec& in : actor.inputs()) shapes.push_back(in.shape);
    history.store(actor.type(), actor.input(0).type, shapes, impl);
  }
  return history;
}

GeneratedCode hcg_o2_forcing(const Model& model, const std::string& type,
                             const std::string& impl) {
  synth::SelectionHistory history = forced(model, type, impl);
  return make_hcg_generator(isa::builtin("neon_sim"), &history, {}, 2)
      ->generate(model);
}

/// Compiles `code` and runs one step of it and of the VM oracle on the
/// seed-42 workload; every output must agree within `tolerance`.
void expect_compiled_matches_oracle(const Model& model,
                                    const GeneratedCode& code,
                                    double tolerance) {
  const std::vector<Tensor> inputs = benchmodels::workload(model, 42);
  Interpreter oracle(model);
  oracle.init();
  const std::vector<Tensor> expected = oracle.step(inputs);
  toolchain::CompiledModel compiled(code);
  compiled.init();
  const std::vector<Tensor> got = compiled.step_tensors(model, inputs);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].max_abs_difference(expected[i]), tolerance)
        << "output " << i;
  }
}

/// One MatMul over f64[n x n].
Model matmul_f64_model(int n) {
  ModelBuilder b("matmul_f64");
  PortRef x = b.inport("x", DataType::kFloat64, Shape({n, n}));
  PortRef y = b.inport("y", DataType::kFloat64, Shape({n, n}));
  b.outport("o", b.actor("mm", "MatMul", {x, y}));
  return b.take();
}

struct OracleCell {
  const char* name;
  Model (*model)();
  GeneratedCode (*generate)(const Model&);
  double tolerance;
  const char* choice;  // intensive pick the code must run, or nullptr
};

void PrintTo(const OracleCell& cell, std::ostream* os) { *os << cell.name; }

const OracleCell kOracleCells[] = {
    {"fig4_simulink", [] { return benchmodels::paper_fig4_model(); },
     [](const Model& m) { return make_simulink_generator()->generate(m); }, 0,
     nullptr},
    {"fir1021_sve", [] { return benchmodels::fir_model(1021); },
     [](const Model& m) {
       return make_hcg_generator(isa::builtin("sve"))->generate(m);
     },
     0, nullptr},
    {"fir1021_neon_sim", [] { return benchmodels::fir_model(1021); },
     [](const Model& m) {
       return make_hcg_generator(isa::builtin("neon_sim"))->generate(m);
     },
     0, nullptr},
    {"rangepipe4096_narrow", [] { return benchmodels::rangepipe_model(4096); },
     [](const Model& m) {
       return make_hcg_generator(isa::builtin("neon_sim"))->generate(m);
     },
     0, nullptr},
    {"rangepipe4096_wide",
     [] { return benchmodels::rangepipe_model(4096, false); },
     [](const Model& m) {
       return make_hcg_generator(isa::builtin("neon_sim"))->generate(m);
     },
     0, nullptr},
    {"matmul96_blocked_o2",
     [] { return benchmodels::matmul_pipeline_model(96); },
     [](const Model& m) {
       return hcg_o2_forcing(m, "MatMul", "matmul_blocked");
     },
     1e-3, "matmul_blocked"},
    {"matmul97_blocked_o2",
     [] { return benchmodels::matmul_pipeline_model(97); },
     [](const Model& m) {
       return hcg_o2_forcing(m, "MatMul", "matmul_blocked");
     },
     1e-3, "matmul_blocked"},
    {"matmul20_f64_blocked_o2", [] { return matmul_f64_model(20); },
     [](const Model& m) {
       return hcg_o2_forcing(m, "MatMul", "matmul_blocked");
     },
     1e-9, "matmul_blocked"},
};

class CompiledCell : public ::testing::TestWithParam<OracleCell> {};

TEST_P(CompiledCell, MatchesOracle) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const OracleCell& cell = GetParam();
  const Model model = resolved(cell.model());
  const GeneratedCode code = cell.generate(model);
  if (cell.choice != nullptr) {
    ASSERT_EQ(code.intensive_choices.size(), 1u);
    EXPECT_EQ(code.intensive_choices.begin()->second, cell.choice);
  }
  expect_compiled_matches_oracle(model, code, cell.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    BenchCells, CompiledCell, ::testing::ValuesIn(kOracleCells),
    [](const ::testing::TestParamInfo<OracleCell>& info) {
      return std::string(info.param.name);
    });

TEST(CompiledConv, EveryCandidateMatchesOracle) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // 1021 samples, 13 taps: conv_blocked runs a 12-output head, 126 blocks
  // of 8, and a 13-output tail (one interior output left over).
  const Model model = resolved(benchmodels::conv_model(1021, 13));
  const auto candidates = kernels::CodeLibrary::instance().implementations(
      "Conv", DataType::kFloat32);
  ASSERT_FALSE(candidates.empty());
  for (const kernels::KernelImpl* impl : candidates) {
    SCOPED_TRACE(impl->id);
    const GeneratedCode code = hcg_o2_forcing(model, "Conv", impl->id);
    ASSERT_EQ(code.intensive_choices.size(), 1u);
    EXPECT_EQ(code.intensive_choices.begin()->second, impl->id);
    expect_compiled_matches_oracle(model, code, 1e-4);
  }
}

}  // namespace
}  // namespace hcg::codegen
