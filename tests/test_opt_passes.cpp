// Integration tests for the cgir optimization pipeline (-O1 and -O2):
// generated code is compiled and executed against the interpreter oracle
// across the scalar remainder widths, fusion/layout effects are
// asserted on the bench models, and two generations of one model give
// identical bytes at every opt level.
#include <gtest/gtest.h>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/cgir.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "model/builder.hpp"
#include "obs/json.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg {
namespace {

codegen::EmitConfig hcg_config(int opt_level) {
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.fold_scalar_expressions = true;
  config.reuse_buffers = true;
  config.opt_level = opt_level;
  return config;
}

/// hcg_config() that also captures the final "cgir-v1" dump.
codegen::EmitConfig hcg_dump_config(int opt_level) {
  codegen::EmitConfig config = hcg_config(opt_level);
  config.dump_cgir_after = "final";
  return config;
}

/// Two independent Add/Mul chains over f32[n]: two batch regions whose
/// loops have identical domains, so -O1 can fuse across regions.
Model two_chain_model(int n) {
  ModelBuilder b("chains" + std::to_string(n));
  for (int chain = 0; chain < 2; ++chain) {
    const std::string tag = std::to_string(chain);
    PortRef x = b.inport("x" + tag, DataType::kFloat32, Shape{n});
    PortRef w = b.inport("w" + tag, DataType::kFloat32, Shape{n});
    PortRef a = b.actor("add" + tag, "Add", {x, w});
    PortRef m = b.actor("mul" + tag, "Mul", {a, w});
    b.outport("y" + tag, m);
  }
  return b.take();
}

bool have_cc() {
  static const bool ok = toolchain::compiler_available();
  return ok;
}

double compare_to_oracle(const Model& model, const codegen::GeneratedCode& code,
                         std::uint64_t seed = 42) {
  const std::vector<Tensor> inputs = benchmodels::workload(model, seed);
  Interpreter oracle(model);
  oracle.init();
  const std::vector<Tensor> expected = oracle.step(inputs);

  toolchain::CompiledModel compiled(code);
  compiled.init();
  const std::vector<Tensor> got = compiled.step_tensors(model, inputs);

  EXPECT_EQ(got.size(), expected.size());
  double worst = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, got[i].max_abs_difference(expected[i]));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Exec oracle across the scalar remainder widths (vector width is 4 lanes
// for f32 on neon_sim): below width, exact width, width+1, 2*width-1.
// ---------------------------------------------------------------------------

class RemainderWidths : public ::testing::TestWithParam<int> {};

TEST_P(RemainderWidths, MatchesOracleAtO0AndO1) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const int n = GetParam();
  const Model model = resolved(two_chain_model(n));

  codegen::GeneratedCode at_o0 = codegen::emit_model(model, hcg_config(0));
  codegen::GeneratedCode at_o1 = codegen::emit_model(model, hcg_config(1));
  EXPECT_LT(compare_to_oracle(model, at_o0), 1e-6) << "-O0, n=" << n;
  EXPECT_LT(compare_to_oracle(model, at_o1), 1e-6) << "-O1, n=" << n;

  EXPECT_EQ(at_o0.report.opt_level, 0);
  EXPECT_EQ(at_o0.report.loops_fused, 0);
  EXPECT_EQ(at_o1.report.opt_level, 1);
  if (n >= 4) {
    // Both regions vectorize with identical loop shapes, so at least the
    // two main loops (and the two remainder loops when n % 4 != 0) fuse.
    EXPECT_GE(at_o1.report.loops_fused, 1) << "n=" << n;
    if (n % 4 != 0) {
      EXPECT_GE(at_o1.report.loops_fused, 2) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RemainderWidths,
                         ::testing::Values(3, 4, 5, 7));

// ---------------------------------------------------------------------------
// Scattered per-actor loops fuse into one loop with forwarded handoffs
// ---------------------------------------------------------------------------

TEST(OptPasses, ScatteredChainFusesAndForwards) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const Model model = resolved(benchmodels::batch_chain_model(3, 64));
  auto at_o0 = codegen::make_simulink_generator(&isa::builtin("neon_sim"), 0);
  auto at_o1 = codegen::make_simulink_generator(&isa::builtin("neon_sim"), 1);

  codegen::GeneratedCode base = at_o0->generate(model);
  codegen::GeneratedCode opt = at_o1->generate(model);
  EXPECT_LT(compare_to_oracle(model, base), 1e-6);
  EXPECT_LT(compare_to_oracle(model, opt), 1e-6);

  // Three per-actor loops collapse into one; the handoff buffers between
  // them become register forwards, so the optimized unit stores fewer
  // intermediate buffers and elides their load/store pairs.
  EXPECT_GE(opt.report.loops_fused, 2);
  EXPECT_GE(opt.report.copies_elided, 2);
  EXPECT_LT(opt.static_buffer_bytes, base.static_buffer_bytes);
}

// ---------------------------------------------------------------------------
// The intensive farm: fusion count and arena savings land in the report
// ---------------------------------------------------------------------------

TEST(OptPasses, FarmReportsFusionAndArenaSavings) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const Model model = resolved(benchmodels::intensive_farm_model(20, false));
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                          {}, /*opt_level=*/1);
  codegen::GeneratedCode code = tool->generate(model);

  EXPECT_GE(code.report.loops_fused, 2);
  EXPECT_GT(code.report.arena_bytes_saved, 0u);
  EXPECT_EQ(code.report.opt_level, 1);

  // Both pass counters must surface in the hcg-report-v1 JSON.
  const obs::JsonValue doc =
      obs::json_parse(code.report.to_json());
  const obs::JsonValue& cg = doc.at("codegen");
  EXPECT_EQ(cg.at("opt_level").number, 1);
  EXPECT_GE(cg.at("fusion").at("loops_fused").number, 2);
  EXPECT_GT(cg.at("arena").at("bytes_saved").number, 0);

  EXPECT_LT(compare_to_oracle(model, code), 2e-2);
}

TEST(OptPasses, ArenaRebindingShrinksStaticBuffers) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const Model model = resolved(benchmodels::intensive_farm_model(20, false));
  codegen::EmitConfig with_arena = hcg_config(1);
  codegen::EmitConfig no_arena = hcg_config(1);
  no_arena.reuse_buffers = false;
  codegen::GeneratedCode shared = codegen::emit_model(model, with_arena);
  codegen::GeneratedCode isolated = codegen::emit_model(model, no_arena);

  // The arena pass accounts for exactly the bytes it folded away.
  EXPECT_LT(shared.static_buffer_bytes, isolated.static_buffer_bytes);
  EXPECT_EQ(shared.static_buffer_bytes + shared.report.arena_bytes_saved,
            isolated.static_buffer_bytes);
  EXPECT_EQ(isolated.report.arena_bytes_saved, 0u);
  EXPECT_LT(compare_to_oracle(model, shared), 2e-2);
}

// ---------------------------------------------------------------------------
// -O1 determinism: two generations of one model give identical bytes
// ---------------------------------------------------------------------------

TEST(OptPasses, O1ByteIdenticalAcrossJobCounts) {
  const Model model = resolved(two_chain_model(7));
  codegen::GeneratedCode first = codegen::emit_model(model, hcg_dump_config(1));
  codegen::GeneratedCode second =
      codegen::emit_model(model, hcg_dump_config(1));
  EXPECT_EQ(first.source, second.source);
  EXPECT_EQ(first.cgir_dump_after, second.cgir_dump_after);
  EXPECT_EQ(first.report.loops_fused, second.report.loops_fused);
  EXPECT_EQ(first.report.arena_bytes_saved, second.report.arena_bytes_saved);
}

// ---------------------------------------------------------------------------
// The cgir dump surface round-trips the exact emitted program
// ---------------------------------------------------------------------------

TEST(OptPasses, EmittedDumpRoundTripsToSource) {
  const Model model = resolved(two_chain_model(7));
  for (int level : {0, 1}) {
    codegen::GeneratedCode code =
        codegen::emit_model(model, hcg_dump_config(level));
    ASSERT_FALSE(code.cgir_dump_after.empty());
    cgir::TranslationUnit reparsed = cgir::parse_dump(code.cgir_dump_after);
    EXPECT_EQ(cgir::print(reparsed), code.source) << "-O" << level;
  }
}

// ---------------------------------------------------------------------------
// -O2 cross-scale fusion: exec oracle across strip widths
// ---------------------------------------------------------------------------

/// i8 Mul-only pipeline: the NEON table has no i8 multiply, so the whole
/// model is one conventional scalar loop — the tiling workload.
Model mul_only_model(int n) {
  ModelBuilder b("mulonly" + std::to_string(n));
  PortRef a = b.inport("a", DataType::kInt8, Shape{n});
  PortRef c = b.inport("c", DataType::kInt8, Shape{n});
  b.outport("y", b.actor("m", "Mul", {a, c}));
  return b.take();
}

class CrossScaleWidths : public ::testing::TestWithParam<int> {};

TEST_P(CrossScaleWidths, MatchesOracleAtEveryOptLevel) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const int n = GetParam();
  const Model model = resolved(benchmodels::mixed_pipeline_model(n));

  for (int level : {0, 1, 2}) {
    codegen::EmitConfig config = hcg_config(level);
    config.verify_cgir = true;  // every pass checkpoint re-verifies
    codegen::GeneratedCode code = codegen::emit_model(model, config);
    EXPECT_LT(compare_to_oracle(model, code), 1e-6)
        << "-O" << level << ", n=" << n;
    EXPECT_EQ(code.report.opt_level, level);
    if (level < 2) {
      EXPECT_EQ(code.report.cross_scale_fused, 0) << "n=" << n;
      EXPECT_EQ(code.report.strips_localized, 0) << "n=" << n;
    }
  }

  // At vector width and above the scalar Mul loop strip-mines into the
  // surrounding vector region (i8 runs 16 lanes on neon_sim) and the lane
  // loop is rewritten onto local lane buffers.
  codegen::GeneratedCode at_o2 = codegen::emit_model(model, hcg_config(2));
  if (n >= 16) {
    EXPECT_GE(at_o2.report.cross_scale_fused, 1) << "n=" << n;
    EXPECT_GE(at_o2.report.strips_localized, 1) << "n=" << n;
    EXPECT_NE(at_o2.source.find("memcpy(ln0_"), std::string::npos) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CrossScaleWidths,
                         ::testing::Values(3, 5, 7, 9, 16, 17));

// ---------------------------------------------------------------------------
// -O2 on a lone scalar loop: no -O2 pass reshapes it, so the -O2 C is the
// -O1 C.  The suite name is part of the stable test IDs.
// ---------------------------------------------------------------------------

class TiledShapes : public ::testing::TestWithParam<int> {};

TEST_P(TiledShapes, MatchesOracleWithScalarTail) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const int n = GetParam();
  const Model model = resolved(mul_only_model(n));

  std::string o1_source;
  for (int level : {0, 1, 2}) {
    codegen::EmitConfig config = hcg_config(level);
    config.verify_cgir = true;
    codegen::GeneratedCode code = codegen::emit_model(model, config);
    EXPECT_LT(compare_to_oracle(model, code), 1e-6)
        << "-O" << level << ", n=" << n;
    if (level == 1) {
      o1_source = code.source;
    } else if (level == 2) {
      EXPECT_EQ(code.source, o1_source) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TiledShapes, ::testing::Values(33, 37, 100));

// ---------------------------------------------------------------------------
// -O2 determinism: two generations give identical bytes, and the dump
// surface round-trips the strip-mined loops
// ---------------------------------------------------------------------------

TEST(OptPasses, O2ByteIdenticalAcrossJobCounts) {
  for (const Model& model :
       {resolved(benchmodels::mixed_pipeline_model(100)),
        resolved(mul_only_model(100)), resolved(two_chain_model(7))}) {
    codegen::GeneratedCode first =
        codegen::emit_model(model, hcg_dump_config(2));
    codegen::GeneratedCode second =
        codegen::emit_model(model, hcg_dump_config(2));
    EXPECT_EQ(first.source, second.source) << model.name();
    EXPECT_EQ(first.cgir_dump_after, second.cgir_dump_after) << model.name();
  }
}

TEST(OptPasses, O2DumpRoundTripsStripMinedLoops) {
  const Model model = resolved(benchmodels::mixed_pipeline_model(37));
  codegen::GeneratedCode code = codegen::emit_model(model, hcg_dump_config(2));
  ASSERT_FALSE(code.cgir_dump_after.empty());
  // The dump names the strip-mined lane loops and their induction variable.
  EXPECT_NE(code.cgir_dump_after.find("strip=1"), std::string::npos);
  EXPECT_NE(code.cgir_dump_after.find("ivar=k"), std::string::npos);
  cgir::TranslationUnit reparsed = cgir::parse_dump(code.cgir_dump_after);
  EXPECT_EQ(cgir::print(reparsed), code.source);
}

TEST(OptPasses, O2ReportCountsReachJson) {
  const Model model = resolved(benchmodels::mixed_pipeline_model(64));
  codegen::GeneratedCode code = codegen::emit_model(model, hcg_config(2));
  ASSERT_GE(code.report.cross_scale_fused, 1);

  const obs::JsonValue doc =
      obs::json_parse(code.report.to_json());
  const obs::JsonValue& cg = doc.at("codegen");
  EXPECT_EQ(cg.at("opt_level").number, 2);
  EXPECT_GE(cg.at("fusion").at("cross_scale_fused").number, 1);
  EXPECT_GE(cg.at("layout").at("strips_localized").number, 1);
}

// ---------------------------------------------------------------------------
// -O2 verifier checkpoints: every pass of the extended pipeline re-verifies
// ---------------------------------------------------------------------------

TEST(OptPasses, O2VerifierCheckpointsEveryPass) {
  const Model model = resolved(benchmodels::mixed_pipeline_model(64));
  codegen::EmitConfig config = hcg_config(2);
  config.verify_cgir = true;
  codegen::GeneratedCode code = codegen::emit_model(model, config);
  const std::vector<std::string> expected = {
      "lower",       "fuse_loops",      "fuse_cross_scale",
      "forward_copies", "eliminate_dead_buffers", "reuse_arena",
      "localize_strips"};
  EXPECT_EQ(code.report.verified_passes, expected);
}

}  // namespace
}  // namespace hcg
