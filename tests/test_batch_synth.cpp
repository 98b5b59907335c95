// Unit tests for Algorithm 2 (batch code synthesis): instruction selection
// on the paper's Figure 4 example, loop/remainder structure, fallbacks and
// the SIMD threshold.
#include <gtest/gtest.h>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/cgir.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "synth/batch.hpp"

namespace hcg::synth {
namespace {

/// The region's loops as the generated step function prints them.
std::string code_of(const BatchSynthResult& result) {
  return cgir::print(result.loops);
}

struct Synthesized {
  Model model;
  BatchSynthResult result;
};

Synthesized run_fig4(int n, const isa::VectorIsa& table,
                     BatchOptions options = {}) {
  Model model = resolved(benchmodels::paper_fig4_model(n));
  auto regions = find_batch_regions(model, table);
  if (regions.empty()) {
    return {std::move(model), BatchSynthResult{}};
  }
  BatchSynthResult result = synthesize_batch(
      model, regions.at(0), table,
      [&model](ActorId id, int) {
        return "buf_" + model.actor(id).name();
      },
      options);
  return {std::move(model), std::move(result)};
}

// ---------------------------------------------------------------------------
// The paper's worked example (Listing 1)
// ---------------------------------------------------------------------------

TEST(BatchSynth, Fig4SelectsExactlyThePaperInstructions) {
  auto [model, result] = run_fig4(4, isa::builtin("neon"));
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used,
            (std::vector<std::string>{"vsubq_s32", "vhaddq_s32", "vmlaq_s32"}));
}

TEST(BatchSynth, Fig4EmitsListing1CodeShape) {
  auto [model, result] = run_fig4(4, isa::builtin("neon"));
  ASSERT_TRUE(result.used_simd);
  const std::string code = code_of(result);
  // Loads for the four inputs.
  EXPECT_NE(code.find("vld1q_s32(&buf_a[i])"), std::string::npos);
  EXPECT_NE(code.find("vld1q_s32(&buf_b[i])"), std::string::npos);
  EXPECT_NE(code.find("vld1q_s32(&buf_c[i])"), std::string::npos);
  EXPECT_NE(code.find("vld1q_s32(&buf_d[i])"), std::string::npos);
  // The three calculations of Listing 1.
  EXPECT_NE(code.find("int32x4_t Sub_b = vsubq_s32(b_b, c_b);"),
            std::string::npos);
  EXPECT_NE(code.find("int32x4_t Shr_b = vhaddq_s32("), std::string::npos);
  EXPECT_NE(code.find("vmlaq_s32(Sub_b, Sub_b, d_b)"), std::string::npos);
  // Stores for the two outputs.
  EXPECT_NE(code.find("vst1q_s32(&buf_Shr[i], Shr_b);"), std::string::npos);
  EXPECT_NE(code.find("vst1q_s32(&buf_Add2[i], Add2_b);"), std::string::npos);
}

TEST(BatchSynth, Fig4WorksOnEveryBuiltinIsa) {
  for (const char* name : {"neon", "neon_sim", "sse", "avx2"}) {
    auto [model, result] = run_fig4(64, isa::builtin(name));
    ASSERT_TRUE(result.used_simd) << name;
    // Three instructions regardless of architecture: sub, hadd, mla.
    EXPECT_EQ(result.instructions_used.size(), 3u) << name;
  }
}

// ---------------------------------------------------------------------------
// Batch size / count / offset (Algorithm 2 lines 1-8, 24-26)
// ---------------------------------------------------------------------------

TEST(BatchSynth, BatchGeometryExactMultiple) {
  auto [model, result] = run_fig4(16, isa::builtin("neon"));
  EXPECT_TRUE(result.used_simd);
  EXPECT_EQ(result.batch_size, 4);
  EXPECT_EQ(result.batch_count, 4);
  EXPECT_EQ(result.offset, 0);
  EXPECT_NE(code_of(result).find("for (int i = 0; i < 16; i += 4)"),
            std::string::npos);
  // No scalar remainder.
  EXPECT_EQ(code_of(result).find("for (int i = 0; i < 0"),
            std::string::npos);
}

TEST(BatchSynth, RemainderGoesInFrontOfTheLoop) {
  auto [model, result] = run_fig4(19, isa::builtin("neon"));
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.offset, 3);
  const std::string code = code_of(result);
  const size_t remainder_pos = code.find("for (int i = 0; i < 3; ++i)");
  const size_t loop_pos = code.find("for (int i = 3; i < 19; i += 4)");
  ASSERT_NE(remainder_pos, std::string::npos);
  ASSERT_NE(loop_pos, std::string::npos);
  EXPECT_LT(remainder_pos, loop_pos);  // "added to the front"
  // The region banner opens the region, on the remainder.
  ASSERT_EQ(result.loops.size(), 2u);
  EXPECT_EQ(result.loops[0].banner_actors, 5);
  EXPECT_EQ(result.loops[1].banner_actors, 0);
  // Scalar remainder computes the same ops.
  EXPECT_NE(code.find(">> 1"), std::string::npos);
}

TEST(BatchSynth, SingleBatchEmitsStraightLineBlock) {
  auto [model, result] = run_fig4(4, isa::builtin("neon"));
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.batch_count, 1);
  // No loop: a block with a fixed index.
  EXPECT_EQ(code_of(result).find("i += 4"), std::string::npos);
  EXPECT_NE(code_of(result).find("const int i = 0;"), std::string::npos);
}

TEST(BatchSynth, TooShortForVectorFallsBack) {
  // Length 3 < 4 lanes: BatchCount < 1 -> conventionalTranslate.
  auto [model, result] = run_fig4(3, isa::builtin("neon"));
  EXPECT_FALSE(result.used_simd);
  EXPECT_TRUE(result.loops.empty());
}

TEST(BatchSynth, Avx2UsesEightLanesForI32) {
  auto [model, result] = run_fig4(24, isa::builtin("avx2"));
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.batch_size, 8);
  EXPECT_EQ(result.batch_count, 3);
}

TEST(BatchSynth, ThresholdDisablesSmallRegions) {
  BatchOptions options;
  options.min_nodes_for_simd = 6;  // Figure 4 has 5 nodes
  auto [model, result] = run_fig4(64, isa::builtin("neon"), options);
  EXPECT_FALSE(result.used_simd);
  options.min_nodes_for_simd = 5;
  auto [model2, result2] = run_fig4(64, isa::builtin("neon"), options);
  EXPECT_TRUE(result2.used_simd);
}

// ---------------------------------------------------------------------------
// Scalar-operand, conversion and basic-only synthesis
// ---------------------------------------------------------------------------

TEST(BatchSynth, GainUsesMulByScalarInstruction) {
  Model model = resolved(benchmodels::lowpass_model(32));
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  bool has_mul_n = false;
  for (const std::string& name : result.instructions_used) {
    if (name == "vmulq_n_f32") has_mul_n = true;
  }
  EXPECT_TRUE(has_mul_n);
  EXPECT_NE(code_of(result).find("vmulq_n_f32(a_b, 0.5"), std::string::npos);
}

TEST(BatchSynth, CastEmitsCvtInstruction) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Cast", {a}, {{"to", "i32"}});
  PortRef d = b.actor("d", "BitNot", {c});
  b.outport("o", d);
  Model model = resolved(b.take());
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_NE(code_of(result).find("vcvtq_s32_f32"), std::string::npos);
  // The cvt result feeds the integer bit-not.
  EXPECT_NE(code_of(result).find("vmvnq_s32(c_b)"), std::string::npos);
}

TEST(BatchSynth, FirFusesIntoSingleMla) {
  Model model = resolved(benchmodels::fir_model(64));
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used, std::vector<std::string>{"vmlaq_s32"});
}

TEST(BatchSynth, BasicIsaStillCoversGraphWithSingleOps) {
  // Strip multi-node instructions: FIR maps to mul + add instead of mla.
  isa::VectorIsa basic = isa::builtin("neon");
  std::vector<isa::Instruction> singles;
  for (const isa::Instruction& ins : basic.instructions) {
    if (ins.node_count() == 1) singles.push_back(ins);
  }
  basic.instructions = std::move(singles);

  Model model = resolved(benchmodels::fir_model(64));
  auto regions = find_batch_regions(model, basic);
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], basic,
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used,
            (std::vector<std::string>{"vmulq_s32", "vaddq_s32"}));
}

TEST(BatchSynth, PaperFigure2ModelNeedsOnlyTwoOperations) {
  // Figure 2: y[i] = 1 / (a[i]*b[i] + c[i]) over 4-wide floats.  Simulink
  // Coder emits 4 multiplications, 4 additions and 4 reciprocals; the paper
  // notes that with SIMD "only two operations are required": a fused
  // multiply-add and a vector reciprocal.
  ModelBuilder b("fig2");
  PortRef a = b.inport("a", DataType::kFloat32, Shape({4}));
  PortRef bb = b.inport("b", DataType::kFloat32, Shape({4}));
  PortRef c = b.inport("c", DataType::kFloat32, Shape({4}));
  PortRef mul = b.actor("mul", "Mul", {a, bb});
  PortRef add = b.actor("add", "Add", {mul, c});
  PortRef recp = b.actor("recp", "Recp", {add});
  b.outport("y", recp);
  Model model = resolved(b.take());
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used,
            (std::vector<std::string>{"vmlaq_f32", "vrecpq_f32"}));
}

TEST(BatchSynth, SwitchMapsToVectorBitSelect) {
  ModelBuilder b("sw");
  PortRef a = b.inport("a", DataType::kFloat32, Shape({32}));
  PortRef alt = b.inport("alt", DataType::kFloat32, Shape({32}));
  PortRef ctrl = b.inport("ctrl", DataType::kFloat32, Shape({32}));
  PortRef sel = b.actor("sel", "Switch", {a, alt, ctrl});
  b.outport("y", sel);
  Model model = resolved(b.take());
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used, std::vector<std::string>{"vbslq_f32"});
  EXPECT_NE(code_of(result).find("vbslq_f32(vcgtq_f32(ctrl_b"), std::string::npos);
}

TEST(BatchSynth, SwitchJoinsSurroundingRegion) {
  // Sub feeding one branch of a Switch fuses into the same region.
  ModelBuilder b("swr");
  PortRef x = b.inport("x", DataType::kInt32, Shape({64}));
  PortRef y = b.inport("y", DataType::kInt32, Shape({64}));
  PortRef ctrl = b.inport("ctrl", DataType::kInt32, Shape({64}));
  PortRef d = b.actor("d", "Sub", {x, y});
  PortRef sel = b.actor("sel", "Switch", {d, y, ctrl});
  b.outport("o", sel);
  Model model = resolved(b.take());
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].actors.size(), 2u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used,
            (std::vector<std::string>{"vsubq_s32", "vbslq_s32"}));
}

TEST(BatchSynth, SwitchScalarRemainderUsesTernary) {
  ModelBuilder b("swrem");
  PortRef a = b.inport("a", DataType::kInt32, Shape({7}));  // 7 % 4 == 3
  PortRef alt = b.inport("alt", DataType::kInt32, Shape({7}));
  PortRef ctrl = b.inport("ctrl", DataType::kInt32, Shape({7}));
  PortRef sel = b.actor("sel", "Switch", {a, alt, ctrl});
  b.outport("y", sel);
  Model model = resolved(b.take());
  auto regions = find_batch_regions(model, isa::builtin("neon"));
  ASSERT_EQ(regions.size(), 1u);
  BatchSynthResult result = synthesize_batch(
      model, regions[0], isa::builtin("neon"),
      [&model](ActorId id, int) { return model.actor(id).name(); });
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.offset, 3);
  EXPECT_NE(code_of(result).find("ctrl[i] > 0 ? a[i] : alt[i]"),
            std::string::npos);
}

TEST(BatchSynth, EveryNodeIsMappedExactlyOnce) {
  // The fused instruction count covers all 5 Figure-4 nodes: 1 + 2 + 2.
  auto [model, result] = run_fig4(32, isa::builtin("neon"));
  ASSERT_TRUE(result.used_simd);
  EXPECT_EQ(result.instructions_used.size(), 3u);
}

}  // namespace
}  // namespace hcg::synth
