// Static-analysis layer tests (docs/ANALYSIS.md): the diagnostic engine,
// one triggering input per stable code, the CGIR verifier (including the
// broken-pass fault-injection path), the model/graph linter, SARIF export,
// and the `hcgc lint` CLI contract over the example corpus.
//
// Regenerate tests/golden/fig4.sarif after an intentional diagnostic or
// SARIF change with:
//   HCG_UPDATE_GOLDEN=1 ./build/tests/hcg_integration_tests
//       --gtest_filter='*Sarif*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/sarif.hpp"
#include "analysis/verifier.hpp"
#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/passes.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "model/builder.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"

namespace hcg {
namespace {

using analysis::Diagnostic;
using analysis::DiagnosticEngine;
using analysis::Severity;

std::vector<std::string> codes_of(const DiagnosticEngine& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& diag : diags.diagnostics()) out.push_back(diag.code);
  return out;
}

bool has_code(const DiagnosticEngine& diags, const std::string& code) {
  const auto codes = codes_of(diags);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

const Diagnostic& find_diag(const DiagnosticEngine& diags,
                            const std::string& code) {
  for (const Diagnostic& diag : diags.diagnostics()) {
    if (diag.code == code) return diag;
  }
  throw Error("test: no diagnostic with code " + code);
}

// ---- diagnostic engine ------------------------------------------------------

TEST(DiagnosticEngine, RuleTableIsSortedAndFindable) {
  const auto& rules = analysis::diagnostic_rules();
  ASSERT_FALSE(rules.empty());
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].code, rules[i].code);
  }
  for (const auto& rule : rules) {
    const auto* found = analysis::find_rule(rule.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, rule.name);
  }
  EXPECT_EQ(analysis::find_rule("HCG999"), nullptr);
}

TEST(DiagnosticEngine, WerrorPromotesWarningsOnly) {
  DiagnosticEngine diags(/*werror=*/true);
  diags.warning("HCG104", "actor 'a'", "dead");
  diags.remark("HCG401", "region {a}", "short");
  diags.note("HCG400", "region {b}", "ok");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.count(Severity::kError), 1);
  EXPECT_EQ(diags.count(Severity::kWarning), 0);
  EXPECT_EQ(diags.count(Severity::kRemark), 1);
  EXPECT_EQ(diags.count(Severity::kNote), 1);
}

TEST(DiagnosticEngine, RenderAndSummary) {
  DiagnosticEngine diags;
  EXPECT_EQ(diags.summary(), "no findings");
  diags.error("HCG102", "actor 'm' (Mul)", "input port 1 has no incoming "
                                           "connection");
  const std::string text = diags.render("model.xml");
  EXPECT_NE(text.find("model.xml: actor 'm' (Mul): error HCG102:"),
            std::string::npos);
  EXPECT_EQ(diags.summary(), "1 error");
}

// ---- HCG1xx: structure ------------------------------------------------------

TEST(LintStructure, UnknownActorType_HCG101) {
  Model model("m");
  const ActorId id = model.add_actor("mystery", "Frobnicate");
  (void)id;
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  EXPECT_TRUE(has_code(diags, "HCG101"));
}

TEST(LintStructure, UnconnectedInput_HCG102) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{8});
  b.model().add_actor("half", "Add");  // both inputs left unconnected
  b.outport("y", x);
  const Model model = b.take();
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  const auto codes = codes_of(diags);
  EXPECT_EQ(std::count(codes.begin(), codes.end(), "HCG102"), 2);
}

TEST(LintStructure, InvalidPort_HCG103) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{8});
  PortRef a = b.actor("a", "Abs", {x});
  b.outport("y", a);
  Model model = b.take();
  // An Abs has exactly one input; port 3 is out of range.
  model.connect(model.actor_by_name("x").id(), 0,
                model.actor_by_name("a").id(), 3);
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG103");
  EXPECT_NE(diag.location.find("connection 'x' -> 'a'"), std::string::npos);
  EXPECT_NE(diag.message.find("input port 3"), std::string::npos);
}

TEST(LintStructure, DeadActor_HCG104) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{8});
  PortRef live = b.actor("live", "Abs", {x});
  b.actor("dead", "Sqrt", {x});
  b.outport("y", live);
  const Model model = b.take();
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG104");
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.location.find("'dead'"), std::string::npos);
}

TEST(LintStructure, DelayFreeCycle_HCG105) {
  ModelBuilder b("m");
  b.inport("x", DataType::kFloat32, Shape{8});
  Model model = b.take();
  const ActorId a1 = model.add_actor("a1", "Add");
  const ActorId a2 = model.add_actor("a2", "Add");
  const ActorId y = model.add_actor("y", "Outport");
  model.connect(model.actor_by_name("x").id(), 0, a1, 0);
  model.connect(a2, 0, a1, 1);  // the back edge, with no UnitDelay
  model.connect(a1, 0, a2, 0);
  model.connect(model.actor_by_name("x").id(), 0, a2, 1);
  model.connect(a2, 0, y, 0);
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG105");
  EXPECT_NE(diag.message.find("a1"), std::string::npos);
  EXPECT_NE(diag.message.find("a2"), std::string::npos);
}

TEST(LintStructure, DelayBrokenCycleIsClean) {
  // The same feedback loop through a UnitDelay is legal.
  ModelBuilder b("m");
  b.inport("x", DataType::kFloat32, Shape{8});
  Model model = b.take();
  const ActorId a1 = model.add_actor("a1", "Add");
  const ActorId d = model.add_actor("d", "UnitDelay");
  const ActorId y = model.add_actor("y", "Outport");
  model.connect(model.actor_by_name("x").id(), 0, a1, 0);
  model.connect(d, 0, a1, 1);
  model.connect(a1, 0, d, 0);
  model.connect(a1, 0, y, 0);
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  EXPECT_FALSE(has_code(diags, "HCG105"));
}

TEST(LintStructure, NoOutport_HCG106) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{8});
  b.actor("a", "Abs", {x});
  const Model model = b.take();
  DiagnosticEngine diags;
  analysis::lint_structure(model, diags);
  EXPECT_TRUE(has_code(diags, "HCG106"));
  // With no Outport every actor is trivially unobserved; HCG104 stays quiet.
  EXPECT_FALSE(has_code(diags, "HCG104"));
}

// ---- HCG2xx: types ----------------------------------------------------------

TEST(LintResolve, WidthMismatch_HCG201) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef w = b.inport("w", DataType::kFloat32, Shape{32});
  PortRef s = b.actor("s", "Add", {x, w});
  b.outport("y", s);
  Model model = b.take();
  DiagnosticEngine diags;
  EXPECT_FALSE(analysis::lint_resolve(model, diags));
  const Diagnostic& diag = find_diag(diags, "HCG201");
  EXPECT_NE(diag.location.find("actor 's' (Add)"), std::string::npos);
  EXPECT_NE(diag.message.find("operand mismatch"), std::string::npos);
}

TEST(LintResolve, DtypeMismatch_HCG202) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef w = b.inport("w", DataType::kInt32, Shape{64});
  PortRef s = b.actor("s", "Mul", {x, w});
  b.outport("y", s);
  Model model = b.take();
  DiagnosticEngine diags;
  EXPECT_FALSE(analysis::lint_resolve(model, diags));
  EXPECT_TRUE(has_code(diags, "HCG202"));
}

TEST(LintResolve, InvalidActor_HCG203) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef c = b.actor("c", "Cast", {x});  // missing the 'to' parameter
  b.outport("y", c);
  Model model = b.take();
  DiagnosticEngine diags;
  EXPECT_FALSE(analysis::lint_resolve(model, diags));
  const Diagnostic& diag = find_diag(diags, "HCG203");
  EXPECT_NE(diag.message.find("'to'"), std::string::npos);
}

TEST(LintResolve, ReportsEveryFailureNotJustTheFirst) {
  // resolve_model() throws at the first bad actor; the linter reaches both.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef w = b.inport("w", DataType::kInt32, Shape{64});
  PortRef bad1 = b.actor("bad1", "Mul", {x, w});
  PortRef bad2 = b.actor("bad2", "Cast", {x});
  b.outport("y1", bad1);
  b.outport("y2", bad2);
  Model model = b.take();
  DiagnosticEngine diags;
  EXPECT_FALSE(analysis::lint_resolve(model, diags));
  EXPECT_TRUE(has_code(diags, "HCG202"));
  EXPECT_TRUE(has_code(diags, "HCG203"));
}

TEST(LintResolve, CleanModelResolvesInPlace) {
  Model model = benchmodels::batch_chain_model(3, 64);
  DiagnosticEngine diags;
  EXPECT_TRUE(analysis::lint_resolve(model, diags));
  EXPECT_EQ(diags.diagnostics().size(), 0u);
  for (const Actor& actor : model.actors()) {
    EXPECT_TRUE(actor.is_resolved()) << actor.name();
  }
}

// ---- HCG3xx: cgir verifier --------------------------------------------------

/// A minimal well-formed unit: one buffer, one scalar loop writing it.
cgir::TranslationUnit valid_unit() {
  cgir::TranslationUnit tu;
  cgir::BufferDecl buf;
  buf.name = "sig";
  buf.ctype = "float";
  buf.components = 8;
  buf.elem_bytes = 4;
  tu.buffers.push_back(buf);
  tu.init.opener = "void m_init(void) {";
  tu.step.opener = "void m_step(...) {";
  cgir::Stmt loop;
  loop.kind = cgir::Stmt::Kind::kLoop;
  loop.begin = 0;
  loop.end = 8;
  loop.body.push_back(cgir::Stmt::line(
      {cgir::Piece::element("sig", /*write=*/true),
       cgir::Piece::literal(" = 1.0f;")}));
  tu.step.body.push_back(loop);
  return tu;
}

TEST(CgirVerifier, ValidUnitIsClean) {
  EXPECT_TRUE(analysis::verify_unit(valid_unit()).empty());
}

TEST(CgirVerifier, OutOfBounds_HCG301) {
  cgir::TranslationUnit tu = valid_unit();
  tu.step.body[0].end = 9;  // one past the 8-element buffer
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG301");
  EXPECT_NE(diags[0].message.find("exceeds its extent of 8"),
            std::string::npos);
}

TEST(CgirVerifier, DuplicateLocal_HCG302) {
  cgir::TranslationUnit tu = valid_unit();
  cgir::Stmt def = cgir::Stmt::text_line("float v = 0.0f;");
  def.defines = "v";
  tu.step.body[0].body.push_back(def);
  tu.step.body[0].body.push_back(def);
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG302");
}

TEST(CgirVerifier, PendingHandoffLoadIsTolerated) {
  // The one sanctioned HCG302 exception: after loop fusion a pure load may
  // redefine the producer's register to read a buffer stored earlier in the
  // same fused body (copy forwarding erases it next).
  cgir::TranslationUnit tu = valid_unit();
  cgir::BufferDecl tmp = tu.buffers[0];
  tmp.name = "tmp";
  tu.buffers.push_back(tmp);
  cgir::Stmt def = cgir::Stmt::text_line("float32x4_t v = vdupq_n_f32(0);");
  def.defines = "v";
  cgir::Stmt store = cgir::Stmt::line(
      {cgir::Piece::literal("vst1q_f32(&"), cgir::Piece::element("tmp", true),
       cgir::Piece::literal(", "), cgir::Piece::local("v"),
       cgir::Piece::literal(");")});
  store.is_store = true;
  store.stores_var = "v";
  cgir::Stmt load = cgir::Stmt::line(
      {cgir::Piece::literal("float32x4_t "), cgir::Piece::local("v"),
       cgir::Piece::literal(" = vld1q_f32(&"),
       cgir::Piece::element("tmp", false), cgir::Piece::literal(");")});
  load.defines = "v";
  load.is_load = true;
  auto& body = tu.step.body[0].body;
  body.push_back(def);
  body.push_back(store);
  body.push_back(load);
  EXPECT_TRUE(analysis::verify_unit(tu).empty());

  // Without the earlier store of tmp the same load is a real duplicate.
  body.erase(body.end() - 2);
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG302");
}

TEST(CgirVerifier, LoopCoverage_HCG303) {
  // A vector loop whose trip is not a multiple of its stride.
  cgir::TranslationUnit tu = valid_unit();
  tu.step.body[0].step = 4;
  tu.step.body[0].end = 6;
  tu.step.body[0].vector_loop = true;
  auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG303");
  EXPECT_NE(diags[0].message.find("not a multiple"), std::string::npos);

  // An offset vector loop with no scalar remainder loop covering [0, begin).
  tu = valid_unit();
  tu.step.body[0].begin = 4;
  tu.step.body[0].step = 4;
  tu.step.body[0].vector_loop = true;
  diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG303");
  EXPECT_NE(diags[0].message.find("no earlier scalar loop"),
            std::string::npos);

  // Adding the remainder loop [0,4) in front makes the pair legal.
  cgir::Stmt remainder;
  remainder.kind = cgir::Stmt::Kind::kLoop;
  remainder.begin = 0;
  remainder.end = 4;
  remainder.body.push_back(tu.step.body[0].body[0]);
  tu.step.body.insert(tu.step.body.begin(), remainder);
  EXPECT_TRUE(analysis::verify_unit(tu).empty());
}

TEST(CgirVerifier, UndefinedStoreSource_HCG304) {
  cgir::TranslationUnit tu = valid_unit();
  cgir::Stmt store = cgir::Stmt::line(
      {cgir::Piece::element("sig", true), cgir::Piece::literal(" = "),
       cgir::Piece::local("ghost"), cgir::Piece::literal(";")});
  store.is_store = true;
  store.stores_var = "ghost";
  tu.step.body[0].body.push_back(store);
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG304");
}

TEST(CgirVerifier, UnknownBuffer_HCG305) {
  cgir::TranslationUnit tu = valid_unit();
  tu.step.body[0].body.push_back(cgir::Stmt::line(
      {cgir::Piece::element("ghost", true), cgir::Piece::literal(" = 1.0f;")}));
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG305");
}

TEST(CgirVerifier, LocalDefinedEarlierIsNotHCG305) {
  cgir::TranslationUnit tu = valid_unit();
  // A local array is accessed like a buffer once its definition is seen.
  cgir::Stmt def = cgir::Stmt::text_line("float acc[8];");
  def.defines = "acc";
  cgir::Stmt use = cgir::Stmt::line(
      {cgir::Piece::element("sig", true), cgir::Piece::literal(" = "),
       cgir::Piece::element("acc", false), cgir::Piece::literal(";")});
  tu.step.body[0].body.push_back(def);
  tu.step.body[0].body.push_back(use);
  EXPECT_TRUE(analysis::verify_unit(tu).empty());
}

TEST(CgirVerifier, ConstWrite_HCG306) {
  cgir::TranslationUnit tu = valid_unit();
  tu.buffers[0].is_const = true;
  const auto diags = analysis::verify_unit(tu);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG306");
}

TEST(CgirVerifier, DuplicateBuffer_HCG307) {
  cgir::TranslationUnit tu = valid_unit();
  tu.buffers.push_back(tu.buffers[0]);
  const auto diags = analysis::verify_unit(tu);
  // Reported once, not once per function walked.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "HCG307");
}

TEST(CgirVerifier, ArenaOverlap_HCG308) {
  std::vector<cgir::ArenaBinding> bindings;
  bindings.push_back({"arena0", "sig_a", 0, 4});
  bindings.push_back({"arena0", "sig_b", 5, 9});  // disjoint: fine
  EXPECT_TRUE(analysis::verify_arena_bindings(bindings).empty());
  bindings.push_back({"arena0", "sig_c", 4, 6});  // overlaps both
  const auto diags = analysis::verify_arena_bindings(bindings);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].code, "HCG308");
  EXPECT_NE(diags[0].message.find("live ranges overlap"), std::string::npos);
  // Different slots never conflict.
  bindings[2].slot = "arena1";
  EXPECT_TRUE(analysis::verify_arena_bindings(bindings).empty());
}

TEST(CgirVerifier, RequireValidUnitNamesTheBreakingPass) {
  cgir::TranslationUnit tu = valid_unit();
  tu.step.body[0].end = 9;
  const cgir::PassStats stats;
  try {
    analysis::require_valid_unit(tu, stats, "fuse_loops");
    FAIL() << "expected CodegenError";
  } catch (const CodegenError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after pass 'fuse_loops'"), std::string::npos);
    EXPECT_NE(what.find("HCG301"), std::string::npos);
  }
}

// ---- verifier wired into the -O1 pipeline -----------------------------------

/// Arms a fault spec for the test body, disarming afterwards.
struct ArmedFaults {
  explicit ArmedFaults(const std::string& spec) {
    faults::Registry::instance().configure(spec);
  }
  ~ArmedFaults() { faults::Registry::instance().clear(); }
};

codegen::EmitConfig verified_simulink_config() {
  codegen::EmitConfig config;
  config.tool_name = "simulink";
  config.batch_mode = codegen::BatchMode::kScattered;
  config.isa = &isa::builtin("neon_sim");
  config.opt_level = 1;
  config.reuse_buffers = true;
  config.verify_cgir = true;
  return config;
}

TEST(VerifiedPipeline, CleanRunRecordsEveryCheckpoint) {
  const Model model = resolved(benchmodels::batch_chain_model(3, 64));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, verified_simulink_config());
  const std::vector<std::string> expected = {
      "lower", "fuse_loops", "forward_copies", "eliminate_dead_buffers",
      "reuse_arena"};
  EXPECT_EQ(code.report.verified_passes, expected);
}

TEST(VerifiedPipeline, BrokenPassIsCaughtAndNamed) {
  // The cgir.pass fault site corrupts the unit right after the named pass
  // runs; the verifier must attribute the damage to exactly that pass.
  for (const char* pass : {"fuse_loops", "forward_copies"}) {
    ArmedFaults armed(std::string("cgir.pass:") + pass + "=fail");
    const Model model = resolved(benchmodels::batch_chain_model(3, 64));
    try {
      codegen::emit_model(model, verified_simulink_config());
      FAIL() << "expected CodegenError for corrupted pass " << pass;
    } catch (const CodegenError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("after pass '") + pass + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("HCG3"), std::string::npos) << what;
    }
  }
}

/// Clears HCG_VERIFY for one test body (ctest keeps it always-on) and
/// restores the previous value afterwards.
struct VerifyEnvOff {
  VerifyEnvOff() {
    if (const char* value = std::getenv("HCG_VERIFY")) saved = value;
    unsetenv("HCG_VERIFY");
  }
  ~VerifyEnvOff() {
    if (!saved.empty()) setenv("HCG_VERIFY", saved.c_str(), 1);
  }
  std::string saved;
};

TEST(VerifiedPipeline, VerifierOffDoesNotThrowOnCorruption) {
  // Without --verify-cgir the corruption flows through silently — the
  // verifier, not the emitter, is what catches it.
  VerifyEnvOff env_off;
  ArmedFaults armed("cgir.pass:fuse_loops=fail");
  codegen::EmitConfig config = verified_simulink_config();
  config.verify_cgir = false;
  const Model model = resolved(benchmodels::batch_chain_model(3, 64));
  EXPECT_NO_THROW(codegen::emit_model(model, config));
}

// ---- HCG4xx: vectorization remarks ------------------------------------------

/// A one-instruction ISA: `lanes` lanes of f32, Add only.
isa::VectorIsa tiny_isa(int width_bits, int lanes) {
  isa::VectorIsa table;
  table.name = "tiny";
  table.width_bits = width_bits;
  table.vtypes.push_back({DataType::kFloat32, lanes, "float32xN_t"});
  isa::Instruction add;
  add.name = "vadd";
  add.type = DataType::kFloat32;
  add.lanes = lanes;
  add.nodes.push_back(
      {BatchOp::kAdd,
       {{isa::PatternArg::Kind::kInput, 1, 0},
        {isa::PatternArg::Kind::kInput, 2, 0}}});
  add.input_slots = 2;
  add.code = "O1 = vadd(I1, I2);";
  table.instructions.push_back(add);
  return table;
}

Model add_chain(int n) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{n});
  PortRef w = b.inport("w", DataType::kFloat32, Shape{n});
  PortRef s = b.actor("s", "Add", {x, w});
  b.outport("y", s);
  return resolved(b.take());
}

TEST(LintVectorization, ViableRegion_HCG400) {
  const Model model = add_chain(64);
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG400");
  EXPECT_EQ(diag.severity, Severity::kNote);
  EXPECT_NE(diag.location.find("region {s}"), std::string::npos);
  EXPECT_NE(diag.message.find("4 lanes"), std::string::npos);
}

TEST(LintVectorization, RegionTooShort_HCG401) {
  const Model model = add_chain(2);  // 2 floats < one 128-bit vector
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG401");
  EXPECT_NE(diag.message.find("shorter than one 128-bit vector"),
            std::string::npos);
}

TEST(LintVectorization, BelowThreshold_HCG402) {
  const Model model = add_chain(64);
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 5, diags);
  const Diagnostic& diag = find_diag(diags, "HCG402");
  EXPECT_NE(diag.message.find("--threshold floor of 5"), std::string::npos);
}

TEST(LintVectorization, LaneMismatch_HCG403) {
  // A 128-bit table that only offers 2-lane f32: the plan wants 4 lanes,
  // the vtype disagrees, so the region stays scalar.
  const Model model = add_chain(64);
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, tiny_isa(128, 2), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG403");
  EXPECT_NE(diag.message.find("needs a uniform 4"), std::string::npos);
}

TEST(LintVectorization, MixedWidthChain_HCG404) {
  ModelBuilder b("m");
  PortRef a = b.inport("a", DataType::kInt32, Shape{64});
  PortRef w = b.inport("w", DataType::kInt32, Shape{64});
  PortRef s = b.actor("s", "Add", {a, w});
  PortRef nar = b.actor("nar", "Cast", {s}, {{"to", "i16"}});
  PortRef c = b.inport("c", DataType::kInt16, Shape{64});
  PortRef m = b.actor("m", "Mul", {nar, c});
  b.outport("y", m);
  const Model model = resolved(b.take());
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG404");
  EXPECT_NE(diag.location.find("'nar'"), std::string::npos);
  EXPECT_NE(diag.message.find("i32 -> i16"), std::string::npos);
}

TEST(LintVectorization, ScaleMismatch_HCG405) {
  // No catalog actor changes array length under resolution, so pin the
  // ports by hand: a "batch" actor consuming 64 elements, producing 32.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef a = b.actor("a", "Abs", {x});
  b.outport("y", a);
  Model model = resolved(b.take());
  Actor& abs_actor = model.actor(model.actor_by_name("a").id());
  abs_actor.set_ports({{DataType::kFloat32, Shape{64}}},
                      {{DataType::kFloat32, Shape{32}}});
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG405");
  EXPECT_NE(diag.message.find("64 -> 32"), std::string::npos);
}

TEST(LintVectorization, NonBatchSplit_HCG406) {
  // batch -> DCT -> batch: the intensive actor splits one chain in two.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{256});
  PortRef w = b.inport("w", DataType::kFloat32, Shape{256});
  PortRef pre = b.actor("pre", "Add", {x, w});
  PortRef mid = b.actor("mid", "DCT", {pre});
  PortRef post = b.actor("post", "Mul", {mid, w});
  b.outport("y", post);
  const Model model = resolved(b.take());
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, isa::builtin("neon"), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG406");
  EXPECT_NE(diag.location.find("'mid'"), std::string::npos);
  EXPECT_NE(diag.message.find("between 'pre' and 'post'"), std::string::npos);
}

TEST(LintVectorization, NoSimdOp_HCG407) {
  // tiny_isa knows Add only; a Mul actor has no single-instruction match.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape{64});
  PortRef w = b.inport("w", DataType::kFloat32, Shape{64});
  PortRef m = b.actor("m", "Mul", {x, w});
  b.outport("y", m);
  const Model model = resolved(b.take());
  DiagnosticEngine diags;
  analysis::lint_vectorization(model, tiny_isa(128, 4), 0, diags);
  const Diagnostic& diag = find_diag(diags, "HCG407");
  EXPECT_NE(diag.message.find("no single-instruction Mul"), std::string::npos);
}

TEST(LintModel, CleanChainYieldsOnlyTheVectorizedNote) {
  Model model = benchmodels::batch_chain_model(3, 64);
  analysis::LintOptions options;
  const isa::VectorIsa& neon = isa::builtin("neon");
  options.isa = &neon;
  DiagnosticEngine diags;
  analysis::lint_model(model, options, diags);
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].code, "HCG400");
  EXPECT_FALSE(diags.has_errors());
}

// ---- SARIF ------------------------------------------------------------------

TEST(Sarif, LevelsAndSkeleton) {
  EXPECT_EQ(analysis::sarif_level(Severity::kNote), "note");
  EXPECT_EQ(analysis::sarif_level(Severity::kRemark), "note");
  EXPECT_EQ(analysis::sarif_level(Severity::kWarning), "warning");
  EXPECT_EQ(analysis::sarif_level(Severity::kError), "error");

  DiagnosticEngine diags;
  diags.error("HCG102", "actor 'm' (Mul)", "input port 1 unconnected");
  const std::string sarif = analysis::to_sarif(diags.diagnostics(), "m.xml");
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"HCG102\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"m.xml\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\":\"actor 'm' (Mul)\""),
            std::string::npos);
  // Every stable code is published as a rule, findings or not.
  for (const auto& rule : analysis::diagnostic_rules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule.code) + "\""),
              std::string::npos);
  }
}

// ---- hcgc lint CLI contract -------------------------------------------------

struct CliResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

/// Runs hcgc through the shell; `env_prefix` ("VAR=x ") and `cwd` (empty =
/// inherit) shape the child like the robustness suite does.
CliResult run_lint_cli(const std::string& args,
                       const std::string& env_prefix = "",
                       const std::string& cwd = "") {
  TempDir dir;
  const auto out_path = dir.path() / "out.txt";
  std::string cmd;
  if (!cwd.empty()) cmd += "cd " + cwd + " && ";
  cmd += env_prefix + std::string(HCG_HCGC_PATH) + " " + args + " > " +
         out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::string output;
  try {
    output = read_file(out_path);
  } catch (const Error&) {
  }
  return CliResult{rc == -1 ? -1 : WEXITSTATUS(rc), output};
}

std::filesystem::path examples_dir() {
  return std::filesystem::path(HCG_EXAMPLES_DIR);
}

class LintCli : public ::testing::Test {
 protected:
  std::string write_model(const std::string& body) {
    const auto path = dir_.path() / "model.xml";
    write_file(path, body);
    return path.string();
  }
  TempDir dir_;
};

TEST_F(LintCli, WarningsExitZero) {
  const std::string model = write_model(R"(
<model name="warns">
  <actor name="x"    type="Inport" dtype="f32" shape="64"/>
  <actor name="live" type="Abs"/>
  <actor name="dead" type="Sqrt"/>
  <actor name="y"    type="Outport"/>
  <connect from="x"    to="live"/>
  <connect from="x"    to="dead"/>
  <connect from="live" to="y"/>
</model>)");
  const CliResult r = run_lint_cli("lint " + model);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("warning HCG104"), std::string::npos);
}

TEST_F(LintCli, WerrorPromotesToExitEight) {
  const std::string model = write_model(R"(
<model name="warns">
  <actor name="x"    type="Inport" dtype="f32" shape="64"/>
  <actor name="live" type="Abs"/>
  <actor name="dead" type="Sqrt"/>
  <actor name="y"    type="Outport"/>
  <connect from="x"    to="live"/>
  <connect from="x"    to="dead"/>
  <connect from="live" to="y"/>
</model>)");
  const CliResult r = run_lint_cli("lint --Werror " + model);
  EXPECT_EQ(r.exit_code, 8);
  EXPECT_NE(r.output.find("error HCG104"), std::string::npos);
}

TEST_F(LintCli, ErrorsExitEightAndReportEveryFinding) {
  const std::string model = write_model(R"(
<model name="broken">
  <actor name="x" type="Inport" dtype="f32" shape="64"/>
  <actor name="w" type="Inport" dtype="i32" shape="64"/>
  <actor name="m" type="Mul"/>
  <actor name="c" type="Cast"/>
  <actor name="y" type="Outport"/>
  <actor name="z" type="Outport"/>
  <connect from="x" to="m:0"/>
  <connect from="w" to="m:1"/>
  <connect from="x" to="c"/>
  <connect from="m" to="y"/>
  <connect from="c" to="z"/>
</model>)");
  const CliResult r = run_lint_cli("lint " + model);
  EXPECT_EQ(r.exit_code, 8);
  // One run reports both independent failures, unlike generate's first-throw.
  EXPECT_NE(r.output.find("HCG202"), std::string::npos);
  EXPECT_NE(r.output.find("HCG203"), std::string::npos);
}

TEST_F(LintCli, MixedWidthChainGetsActionableRemark) {
  const std::string model = write_model(R"(
<model name="mixed">
  <actor name="a"   type="Inport" dtype="i32" shape="1024"/>
  <actor name="b"   type="Inport" dtype="i32" shape="1024"/>
  <actor name="s"   type="Add"/>
  <actor name="nar" type="Cast" to="i16"/>
  <actor name="c"   type="Inport" dtype="i16" shape="1024"/>
  <actor name="m"   type="Mul"/>
  <actor name="y"   type="Outport"/>
  <connect from="a"   to="s:0"/>
  <connect from="b"   to="s:1"/>
  <connect from="s"   to="nar"/>
  <connect from="nar" to="m:0"/>
  <connect from="c"   to="m:1"/>
  <connect from="m"   to="y"/>
</model>)");
  const CliResult r = run_lint_cli("lint " + model);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("remark HCG404"), std::string::npos);
  EXPECT_NE(r.output.find("i32 -> i16"), std::string::npos);
  // --no-remarks silences HCG4xx but keeps the rest of the lint.
  const CliResult quiet = run_lint_cli("lint --no-remarks " + model);
  EXPECT_EQ(quiet.exit_code, 0);
  EXPECT_EQ(quiet.output.find("HCG404"), std::string::npos);
}

TEST_F(LintCli, BrokenPassNamedThroughCli) {
  const std::string model = write_model(R"(
<model name="chain">
  <actor name="a" type="Inport" dtype="f32" shape="64"/>
  <actor name="b" type="Inport" dtype="f32" shape="64"/>
  <actor name="s" type="Add"/>
  <actor name="y" type="Outport"/>
  <connect from="a" to="s:0"/>
  <connect from="b" to="s:1"/>
  <connect from="s" to="y"/>
</model>)");
  const CliResult r = run_lint_cli(
      "generate --verify-cgir --isa neon_sim " + model,
      "HCG_FAULTS=\"cgir.pass:eliminate_dead_buffers=fail\" ");
  EXPECT_EQ(r.exit_code, 6);
  EXPECT_NE(r.output.find("after pass 'eliminate_dead_buffers'"),
            std::string::npos);
  EXPECT_NE(r.output.find("HCG3"), std::string::npos);
}

TEST(LintExamples, GoldenSarifForFig4) {
  // Lint from inside the examples directory so the SARIF artifact URI is the
  // machine-independent relative path "fig4.xml".
  TempDir dir;
  const auto sarif_path = dir.path() / "fig4.sarif";
  const CliResult r =
      run_lint_cli("lint fig4.xml --sarif " + sarif_path.string(), "",
                   examples_dir().string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string got = read_file(sarif_path);
  const auto golden_path =
      std::filesystem::path(HCG_GOLDEN_DIR) / "fig4.sarif";
  if (std::getenv("HCG_UPDATE_GOLDEN")) {
    write_file(golden_path, got);
    GTEST_SKIP() << "updated " << golden_path;
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << "no golden SARIF; run with HCG_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(got, read_file(golden_path))
      << "SARIF output changed; regenerate with HCG_UPDATE_GOLDEN=1 if "
         "intentional";
}

TEST(LintExamples, WholeCorpusLintsClean) {
  // Every shipped example must stay free of lint errors (remarks/notes OK),
  // even under --Werror.
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(examples_dir())) {
    if (entry.path().extension() != ".xml") continue;
    ++seen;
    const CliResult r =
        run_lint_cli("lint --Werror " + entry.path().string());
    EXPECT_EQ(r.exit_code, 0)
        << entry.path().filename() << " has lint findings:\n" << r.output;
  }
  EXPECT_GE(seen, 3);
}

}  // namespace
}  // namespace hcg
