// PR 8 scalable-backend tests: the lane-width-agnostic vectorization core
// and the SVE-style predicated-tail loop form.  Exec-oracle sweeps cover
// every tail shape around the 8-lane f32 granule plus a million-element
// prime; the grammar tests pin the `.isa` scalable directives (ptype /
// whilelt / vl / G) and their HCG110/HCG111 validation; the determinism
// tests pin dump round-trips and repeat-generation byte-identity for
// predicated loops.
#include <gtest/gtest.h>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/cgir.hpp"
#include "codegen/generator.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "isa/isa_parse.hpp"
#include "model/builder.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg {
namespace {

codegen::EmitConfig sve_config(int opt_level) {
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("sve");
  config.fold_scalar_expressions = true;
  config.reuse_buffers = true;
  config.opt_level = opt_level;
  return config;
}

/// sve_config() that also captures the final "cgir-v1" dump.
codegen::EmitConfig sve_dump_config(int opt_level) {
  codegen::EmitConfig config = sve_config(opt_level);
  config.dump_cgir_after = "final";
  return config;
}

/// Two independent Add/Mul chains over f32[n]: two batch regions, each of
/// which must lower to exactly one predicated loop under the scalable table.
Model two_chain_model(int n) {
  ModelBuilder b("svechains" + std::to_string(n));
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

int remainder_elems(const obs::Report& report) {
  int total = 0;
  for (const obs::ReportRegion& region : report.regions) {
    total += region.scalar_remainder;
  }
  return total;
}

int predicated_regions(const obs::Report& report) {
  int total = 0;
  for (const obs::ReportRegion& region : report.regions) {
    if (region.predicated) ++total;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Exec oracle sweep: every width from below one granule (8 f32 lanes) to
// past two granules, at every opt level.  The acceptance bar: predicated
// loop count > 0 and zero scalar-remainder elements at EVERY width — the
// whole point of the predicated tail is that n never has to divide vl.
// ---------------------------------------------------------------------------

class ScalableWidths : public ::testing::TestWithParam<int> {};

TEST_P(ScalableWidths, MatchesOracleAtEveryOptLevel) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  const int n = GetParam();
  const Model model = resolved(two_chain_model(n));

  for (int level : {0, 1, 2}) {
    codegen::EmitConfig config = sve_config(level);
    config.verify_cgir = true;  // HCG310 checks at every pass checkpoint
    codegen::GeneratedCode code = codegen::emit_model(model, config);
    EXPECT_LT(compare_to_oracle(model, code), 1e-6) << "-O" << level
                                                    << ", n=" << n;
    EXPECT_EQ(remainder_elems(code.report), 0) << "-O" << level << ", n=" << n;
    if (n >= 2) {
      // n=1 actors are scalar instances (paper §3.1) and translate
      // conventionally; every larger width must predicate both regions.
      EXPECT_GE(code.report.loops_predicated, 2) << "-O" << level
                                                 << ", n=" << n;
      EXPECT_EQ(predicated_regions(code.report), 2) << "-O" << level
                                                    << ", n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ScalableWidths,
                         ::testing::Range(1, 18));

TEST(Scalable, MillionElementPrimeMatchesOracle) {
  if (!have_cc()) GTEST_SKIP() << "no C compiler available";
  // 1000003 is prime, so no fixed lane count divides it; the predicated
  // loop must mask exactly the final partial vector and nothing else.
  const Model model = resolved(two_chain_model(1000003));
  for (int level : {0, 1, 2}) {
    codegen::GeneratedCode code =
        codegen::emit_model(model, sve_config(level));
    EXPECT_LT(compare_to_oracle(model, code), 1e-6) << "-O" << level;
    EXPECT_GE(code.report.loops_predicated, 2) << "-O" << level;
    EXPECT_EQ(remainder_elems(code.report), 0) << "-O" << level;
  }
}

// ---------------------------------------------------------------------------
// The emitted loop form: one VLA loop, whilelt predicate, runtime step,
// and no scalar tail anywhere in the generated unit.
// ---------------------------------------------------------------------------

TEST(Scalable, EmitsWhileltLoopWithoutScalarTail) {
  const Model model = resolved(two_chain_model(37));
  codegen::GeneratedCode code = codegen::emit_model(model, sve_config(0));

  EXPECT_NE(code.source.find("i += svcntw()"), std::string::npos);
  EXPECT_NE(code.source.find("svbool_t pg = svwhilelt_b32(i, 37)"),
            std::string::npos);
  // A fixed-width emission of the same region would open a scalar tail
  // "for (int i = 32; ..." after the vector loop; the scalable one must not.
  EXPECT_EQ(code.source.find("for (int i = 32;"), std::string::npos);

  // The report's machine-readable surface agrees with the source.
  const obs::JsonValue doc =
      obs::json_parse(code.report.to_json());
  EXPECT_GE(doc.at("codegen").at("loops").at("predicated").number, 2);
  for (const obs::JsonValue& region : doc.at("regions").array) {
    EXPECT_EQ(region.at("predicated").boolean, true);
    EXPECT_EQ(region.at("scalar_remainder").number, 0);
  }
}

TEST(Scalable, DumpRoundTripsPredicatedLoops) {
  const Model model = resolved(two_chain_model(37));
  for (int level : {0, 1, 2}) {
    codegen::GeneratedCode code =
        codegen::emit_model(model, sve_dump_config(level));
    ASSERT_FALSE(code.cgir_dump_after.empty());
    // The dump names the predicated form and its runtime step expression.
    EXPECT_NE(code.cgir_dump_after.find("pred=1"), std::string::npos) << level;
    EXPECT_NE(code.cgir_dump_after.find("stepx="), std::string::npos) << level;
    cgir::TranslationUnit reparsed = cgir::parse_dump(code.cgir_dump_after);
    EXPECT_EQ(cgir::print(reparsed), code.source) << "-O" << level;
  }
}

TEST(Scalable, ByteIdenticalAcrossJobCounts) {
  const Model model = resolved(two_chain_model(1021));
  for (int level : {0, 1, 2}) {
    codegen::GeneratedCode first =
        codegen::emit_model(model, sve_dump_config(level));
    codegen::GeneratedCode second =
        codegen::emit_model(model, sve_dump_config(level));
    EXPECT_EQ(first.source, second.source) << "-O" << level;
    EXPECT_EQ(first.cgir_dump_after, second.cgir_dump_after) << "-O" << level;
  }
}

// ---------------------------------------------------------------------------
// The capability seam: region planning consumes VectorCapability, so the
// same planner arithmetic serves fixed and scalable tables.
// ---------------------------------------------------------------------------

TEST(Scalable, CapabilityReportsGranuleAndPredication) {
  const isa::VectorIsa& sve = isa::builtin("sve");
  const VectorCapability cap = sve.capability();
  EXPECT_EQ(cap.width_bits, 256);
  EXPECT_EQ(cap.lanes_of(DataType::kFloat32), 8);
  EXPECT_EQ(cap.lanes_of(DataType::kInt8), 32);
  EXPECT_TRUE(cap.predicated_of(DataType::kFloat32));

  const VectorCapability fixed = isa::builtin("neon").capability();
  EXPECT_EQ(fixed.width_bits, 128);
  EXPECT_EQ(fixed.lanes_of(DataType::kFloat32), 4);
  EXPECT_FALSE(fixed.predicated_of(DataType::kFloat32));
}

// ---------------------------------------------------------------------------
// .isa grammar: the scalable directives parse, and the validator rejects
// malformed tables with the HCG110/HCG111 diagnostic codes.
// ---------------------------------------------------------------------------

constexpr const char* kScalableTable = R"(
isa minisve
width 128
header hcg_sve_sim.h
simulated
scalable
vtype i32 4 svint32_t
ptype i32 svbool_t
whilelt i32 O = svwhilelt_b32(I, N);
vl i32 svcntw()
load  i32 O = svld1_s32(G, P);
store i32 svst1_s32(G, P, V);
dup   i32 O = svdup_n_s32(C);
ins svadd_s32_x i32 Add(I1,I2) :: O = svadd_s32_x(G, I1, I2);
)";

TEST(ScalableGrammar, ParsesPredicateKit) {
  isa::VectorIsa table = isa::parse_isa(kScalableTable);
  EXPECT_TRUE(table.scalable);
  EXPECT_TRUE(table.predicated(DataType::kInt32));
  const isa::PredCode* pred = table.find_pred(DataType::kInt32);
  ASSERT_NE(pred, nullptr);
  EXPECT_EQ(pred->c_name, "svbool_t");
  EXPECT_EQ(pred->whilelt, "O = svwhilelt_b32(I, N);");
  EXPECT_EQ(pred->vl_expr, "svcntw()");
  EXPECT_FALSE(table.predicated(DataType::kFloat32));
}

TEST(ScalableGrammar, RejectsWidthMismatchWithHcg110) {
  std::string text = kScalableTable;
  const size_t at = text.find("width 128");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "width 256");  // 4 lanes x 32 bits != 256
  try {
    isa::parse_isa(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("HCG110"), std::string::npos);
  }
}

TEST(ScalableGrammar, RejectsDuplicateKitEntriesWithHcg111) {
  for (const char* line :
       {"ptype i32 svbool_t", "whilelt i32 O = svwhilelt_b32(I, N);",
        "vl i32 svcntw()"}) {
    std::string text = std::string(kScalableTable) + line + "\n";
    try {
      isa::parse_isa(text);
      FAIL() << "expected ParseError for duplicated '" << line << "'";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("HCG111"), std::string::npos)
          << line;
    }
  }
}

TEST(ScalableGrammar, RejectsDuplicateVtypeWithHcg111) {
  const std::string text =
      std::string(kScalableTable) + "vtype i32 4 svint32_t\n";
  try {
    isa::parse_isa(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("HCG111"), std::string::npos);
  }
}

TEST(ScalableGrammar, RejectsIncompletePredicateKit) {
  // Dropping the `vl` directive leaves i32 without a step expression; a
  // scalable table must carry the complete kit for every vectorized type.
  std::string text = kScalableTable;
  const size_t at = text.find("vl i32 svcntw()\n");
  ASSERT_NE(at, std::string::npos);
  text.erase(at, std::string("vl i32 svcntw()\n").size());
  EXPECT_THROW(isa::parse_isa(text), ParseError);
}

TEST(ScalableGrammar, RejectsUngovernedLoadStore) {
  // A scalable load that never takes the G predicate would read past n.
  std::string text = kScalableTable;
  const size_t at = text.find("O = svld1_s32(G, P);");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("O = svld1_s32(G, P);").size(),
               "O = svld1_s32(P);");
  EXPECT_THROW(isa::parse_isa(text), ParseError);
}

}  // namespace
}  // namespace hcg
