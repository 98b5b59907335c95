// Interval value-range analysis tests (docs/ANALYSIS.md): the interval
// domain primitives, one triggering model per HCG6xx code, UnitDelay
// widening, the range-driven lane-narrowing pass (HCG411/HCG412 and the
// regions_narrowed report counters), rank-2 mixed-dtype lint coverage, and
// the anti-drift check pinning diagnostic_rules() against the docs table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "actors/resolve.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/range.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "model/builder.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"

namespace hcg {
namespace {

using analysis::Diagnostic;
using analysis::DiagnosticEngine;
using analysis::Interval;
using analysis::RangeAnalysis;
using analysis::Severity;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool has_code(const DiagnosticEngine& diags, const std::string& code) {
  for (const Diagnostic& diag : diags.diagnostics()) {
    if (diag.code == code) return true;
  }
  return false;
}

const Diagnostic& find_diag(const DiagnosticEngine& diags,
                            const std::string& code) {
  for (const Diagnostic& diag : diags.diagnostics()) {
    if (diag.code == code) return diag;
  }
  throw Error("test: no diagnostic with code " + code);
}

/// Runs the range analysis with diagnostics on a resolved model.
RangeAnalysis analyze(const Model& model, DiagnosticEngine& diags) {
  return analysis::analyze_ranges(model, &diags);
}

/// The interval of a named actor's output 0.
Interval interval_of(const RangeAnalysis& ranges, const Model& model,
                     const std::string& name) {
  const Interval* iv = ranges.find(model.actor_by_name(name).id(), 0);
  if (iv == nullptr) throw Error("test: no interval for " + name);
  return *iv;
}

PortRef bounded_inport(ModelBuilder& b, const std::string& name, DataType type,
                       Shape shape, double lo, double hi) {
  PortRef ref = b.inport(name, type, std::move(shape));
  b.model().actor(ref.actor).set_param("range_min", std::to_string(lo));
  b.model().actor(ref.actor).set_param("range_max", std::to_string(hi));
  return ref;
}

// ---- interval domain primitives ---------------------------------------------

TEST(IntervalDomain, JoinIsTheHull) {
  const Interval a{-2.0, 5.0};
  const Interval b{3.0, 9.0};
  EXPECT_EQ(join(a, b), (Interval{-2.0, 9.0}));
  EXPECT_EQ(join(b, a), (Interval{-2.0, 9.0}));
  EXPECT_TRUE(a.inside(join(a, b)));
  EXPECT_TRUE(b.inside(join(a, b)));
}

TEST(IntervalDomain, TypeIntervalsMatchTheTypes) {
  EXPECT_EQ(analysis::type_interval(DataType::kInt16),
            (Interval{-32768.0, 32767.0}));
  EXPECT_EQ(analysis::type_interval(DataType::kUInt8), (Interval{0.0, 255.0}));
  EXPECT_EQ(analysis::type_interval(DataType::kFloat32),
            (Interval{-kInf, kInf}));
}

TEST(IntervalDomain, FitsUsesInwardRoundedBounds) {
  EXPECT_TRUE(analysis::interval_fits({-100.0, 100.0}, DataType::kInt8));
  EXPECT_FALSE(analysis::interval_fits({-200.0, 200.0}, DataType::kInt8));
  EXPECT_TRUE(analysis::interval_fits({-200.0, 200.0}, DataType::kInt16));
  EXPECT_FALSE(analysis::interval_fits({-1.0, 1.0}, DataType::kUInt8));
  // Every finite interval fits a float type; infinite ones fit only floats.
  EXPECT_TRUE(analysis::interval_fits({-kInf, kInf}, DataType::kFloat32));
  EXPECT_FALSE(analysis::interval_fits({-kInf, kInf}, DataType::kInt64));
}

TEST(IntervalDomain, BoundedNeedsBothEndpointsFinite) {
  // A half-infinite interval (Abs/Sqrt of an undeclared float) is not
  // actionable knowledge; the HCG6xx gate must reject it.
  EXPECT_FALSE(analysis::interval_bounded({0.0, kInf}, DataType::kFloat32));
  EXPECT_FALSE(analysis::interval_bounded({-kInf, 0.0}, DataType::kFloat64));
  EXPECT_TRUE(analysis::interval_bounded({-100.0, 100.0}, DataType::kInt32));
  // The full type range is top: nothing was learned.
  EXPECT_FALSE(
      analysis::interval_bounded({-32768.0, 32767.0}, DataType::kInt16));
}

// ---- propagation over models ------------------------------------------------

TEST(RangeAnalysis, RangepipeBoundsMatchTheDocumentedChain) {
  const Model model = resolved(benchmodels::rangepipe_model(32));
  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);

  EXPECT_EQ(interval_of(ranges, model, "d"), (Interval{-150.0, 150.0}));
  EXPECT_EQ(interval_of(ranges, model, "x"), (Interval{-3350.0, 3350.0}));
  EXPECT_EQ(interval_of(ranges, model, "z3"), (Interval{-11125.0, 11125.0}));
  EXPECT_EQ(interval_of(ranges, model, "clip"), (Interval{-11125.0, 400.0}));
  EXPECT_GT(ranges.bounded_outputs, 0);
  EXPECT_EQ(diags.count(Severity::kWarning), 0);
  EXPECT_EQ(diags.count(Severity::kError), 0);
}

TEST(RangeAnalysis, UndeclaredInputsStayAtTop) {
  const Model model = resolved(benchmodels::rangepipe_model(32, false));
  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  const Interval top = analysis::type_interval(DataType::kInt32);
  EXPECT_EQ(interval_of(ranges, model, "d"), top);
  EXPECT_EQ(interval_of(ranges, model, "x"), top);
  // Shr manufactures finite bounds even from top (z and e are provably
  // within ±2^30 and ±2^29), so the z3 = z2 + z sum is the one signal in
  // this graph that provably can exceed i32 — a true-positive HCG601.
  EXPECT_EQ(diags.count(Severity::kWarning), 1);
  const Diagnostic& diag = find_diag(diags, "HCG601");
  EXPECT_NE(diag.location.find("z3"), std::string::npos) << diag.location;
}

TEST(RangeAnalysis, GrowingDelayLoopWidensToTop) {
  // y(t+1) = y(t) + 1 through a UnitDelay: the state interval grows every
  // round, so widening must kick in and count the delay as widened.
  ModelBuilder b("grow");
  b.constant("one", DataType::kInt32, Shape{4}, "1");
  Model model = b.take();
  const ActorId add = model.add_actor("add", "Add");
  const ActorId d = model.add_actor("d", "UnitDelay");
  model.actor(d).set_param("dtype", "i32");
  model.actor(d).set_param("shape", "4");
  const ActorId y = model.add_actor("y", "Outport");
  model.connect(model.actor_by_name("one").id(), 0, add, 0);
  model.connect(d, 0, add, 1);
  model.connect(add, 0, d, 0);
  model.connect(add, 0, y, 0);
  resolve_model(model);

  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  EXPECT_EQ(ranges.widened_delays, 1);
  EXPECT_EQ(interval_of(ranges, model, "d"),
            analysis::type_interval(DataType::kInt32));
}

TEST(RangeAnalysis, StableDelayLoopKeepsItsFixpoint) {
  // y(t+1) = min(y(t) + 8, 10): the state reaches its fixpoint [0, 10] by
  // the second round — inside the widening patience — so no widening
  // happens and the bound survives.  (A slow-converging loop like +1
  // toward 10 would widen instead; see GrowingDelayLoopWidensToTop.)
  ModelBuilder b("stable");
  b.constant("one", DataType::kInt32, Shape{4}, "8");
  b.constant("cap", DataType::kInt32, Shape{4}, "10");
  Model model = b.take();
  const ActorId add = model.add_actor("add", "Add");
  const ActorId clip = model.add_actor("clip", "Min");
  const ActorId d = model.add_actor("d", "UnitDelay");
  model.actor(d).set_param("dtype", "i32");
  model.actor(d).set_param("shape", "4");
  const ActorId y = model.add_actor("y", "Outport");
  model.connect(model.actor_by_name("one").id(), 0, add, 0);
  model.connect(d, 0, add, 1);
  model.connect(add, 0, clip, 0);
  model.connect(model.actor_by_name("cap").id(), 0, clip, 1);
  model.connect(clip, 0, d, 0);
  model.connect(clip, 0, y, 0);
  resolve_model(model);

  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  EXPECT_EQ(ranges.widened_delays, 0);
  const Interval state = interval_of(ranges, model, "d");
  EXPECT_TRUE(state.inside(Interval{0.0, 10.0})) << state.to_string();
}

TEST(RangeAnalysis, RequiresAResolvedModel) {
  ModelBuilder b("raw");
  PortRef x = b.inport("x", DataType::kInt32, Shape{4});
  b.outport("y", b.actor("a", "Abs", {x}));
  const Model model = b.take();  // never resolved
  DiagnosticEngine diags;
  EXPECT_THROW(analyze(model, diags), Error);
}

// ---- HCG6xx triggering models -----------------------------------------------

TEST(RangeDiagnostics, PossibleSignedOverflow_HCG601) {
  ModelBuilder b("m");
  PortRef a =
      bounded_inport(b, "a", DataType::kInt16, Shape{8}, -30000.0, 30000.0);
  PortRef s = b.actor("s", "Add", {a, a});  // [-60000, 60000] exceeds i16
  b.outport("y", s);
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  analyze(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG601");
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("i16"), std::string::npos);
  EXPECT_FALSE(diag.related.empty()) << "producer location missing";
}

TEST(RangeDiagnostics, UnboundedOperandsSuppressHCG601) {
  // The same overflowing shape with no declared ranges: operands are top,
  // so the "did we actually learn something" gate keeps the lint quiet.
  ModelBuilder b("m");
  PortRef a = b.inport("a", DataType::kInt16, Shape{8});
  b.outport("y", b.actor("s", "Add", {a, a}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  analyze(model, diags);
  EXPECT_FALSE(has_code(diags, "HCG601"));
}

TEST(RangeDiagnostics, PossibleDivisionByZero_HCG602) {
  ModelBuilder b("m");
  PortRef num = b.inport("num", DataType::kFloat32, Shape{8});
  PortRef den =
      bounded_inport(b, "den", DataType::kFloat32, Shape{8}, -0.5, 0.5);
  b.outport("y", b.actor("q", "Div", {num, den}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  analyze(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG602");
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("zero"), std::string::npos);
  EXPECT_FALSE(diag.related.empty());
}

TEST(RangeDiagnostics, NonZeroDivisorIsClean) {
  ModelBuilder b("m");
  PortRef num = b.inport("num", DataType::kFloat32, Shape{8});
  PortRef den = bounded_inport(b, "den", DataType::kFloat32, Shape{8}, 0.5, 2.0);
  b.outport("y", b.actor("q", "Div", {num, den}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  analyze(model, diags);
  EXPECT_FALSE(has_code(diags, "HCG602"));
}

TEST(RangeDiagnostics, LossyNarrowingCast_HCG603) {
  ModelBuilder b("m");
  PortRef a =
      bounded_inport(b, "a", DataType::kInt32, Shape{8}, -1000.0, 1000.0);
  b.outport("y", b.actor("c", "Cast", {a}, {{"to", "i8"}}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  analyze(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG603");
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("i8"), std::string::npos);
}

TEST(RangeDiagnostics, ProvenFittingCastIsClean) {
  ModelBuilder b("m");
  PortRef a = bounded_inport(b, "a", DataType::kInt32, Shape{8}, -100.0, 100.0);
  b.outport("y", b.actor("c", "Cast", {a}, {{"to", "i8"}}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  EXPECT_FALSE(has_code(diags, "HCG603"));
  EXPECT_EQ(interval_of(ranges, model, "c"), (Interval{-100.0, 100.0}));
}

TEST(RangeDiagnostics, DeadSwitchBranch_HCG604) {
  ModelBuilder b("m");
  PortRef a = b.inport("a", DataType::kInt32, Shape{8});
  PortRef alt = b.inport("alt", DataType::kInt32, Shape{8});
  PortRef ctrl =
      bounded_inport(b, "ctrl", DataType::kInt32, Shape{8}, 1.0, 5.0);
  b.outport("y", b.actor("sel", "Switch", {a, alt, ctrl}));
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG604");
  EXPECT_EQ(diag.severity, Severity::kRemark);
  EXPECT_NE(diag.message.find("never"), std::string::npos);
  EXPECT_FALSE(diag.related.empty()) << "control producer location missing";
  // The dead branch's interval must not leak into the result.
  EXPECT_EQ(interval_of(ranges, model, "sel"),
            analysis::type_interval(DataType::kInt32));
}

TEST(RangeDiagnostics, ConstantFoldable_HCG605) {
  ModelBuilder b("m");
  PortRef two = b.constant("two", DataType::kInt32, Shape{8}, "2");
  PortRef g = b.actor("g", "Gain", {two}, {{"gain", "3"}});
  b.outport("y", g);
  const Model model = resolved(b.take());

  DiagnosticEngine diags;
  const RangeAnalysis ranges = analyze(model, diags);
  const Diagnostic& diag = find_diag(diags, "HCG605");
  EXPECT_EQ(diag.severity, Severity::kRemark);
  EXPECT_NE(diag.message.find('6'), std::string::npos);
  EXPECT_EQ(interval_of(ranges, model, "g"), (Interval{6.0, 6.0}));
}

// ---- lane narrowing (HCG411 / HCG412) ---------------------------------------

codegen::EmitConfig narrow_config(int opt_level) {
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.fold_scalar_expressions = true;
  config.reuse_buffers = true;
  config.opt_level = opt_level;
  return config;
}

bool report_has_code(const obs::Report& report, const std::string& code) {
  for (const auto& diag : report.diagnostics) {
    if (diag.code == code) return true;
  }
  return false;
}

TEST(LaneNarrowing, ProvenRangesNarrowTheRegion_HCG411) {
  const Model model = resolved(benchmodels::rangepipe_model(64));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, narrow_config(1));

  EXPECT_GE(code.report.regions_narrowed, 1);
  EXPECT_EQ(code.report.narrowing_blocked, 0);
  EXPECT_TRUE(report_has_code(code.report, "HCG411"));
  // Every region instruction runs at the narrow type: 8 i16 lanes.
  for (const std::string& ins : code.simd_instructions) {
    EXPECT_NE(ins.find("_s16"), std::string::npos) << ins;
  }
}

TEST(LaneNarrowing, UnprovenRangesBlockNarrowing_HCG412) {
  const Model model = resolved(benchmodels::rangepipe_model(64, false));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, narrow_config(1));

  EXPECT_EQ(code.report.regions_narrowed, 0);
  EXPECT_GE(code.report.narrowing_blocked, 1);
  EXPECT_TRUE(report_has_code(code.report, "HCG412"));
  // The remark names the first signal that does not fit: the undeclared
  // Inport the region reads.
  for (const auto& diag : code.report.diagnostics) {
    if (diag.code != "HCG412") continue;
    EXPECT_NE(diag.message.find("value range of 'a'"), std::string::npos)
        << diag.message;
  }
  for (const std::string& ins : code.simd_instructions) {
    EXPECT_NE(ins.find("_s32"), std::string::npos) << ins;
  }
}

TEST(LaneNarrowing, OffAtO0) {
  const Model model = resolved(benchmodels::rangepipe_model(64));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, narrow_config(0));
  EXPECT_EQ(code.report.regions_narrowed, 0);
  EXPECT_FALSE(report_has_code(code.report, "HCG411"));
}

// ---- rank-2 (matrix) models with mixed dtypes -------------------------------

TEST(LintRank2, MixedDtypeMatrixAddIsTolerantlyReported) {
  // Two rank-2 inports with different element types feed one Add: tolerant
  // resolution must report the actor (HCG202) and keep going to also
  // report an independent second failure, not stop at the first.
  ModelBuilder b("m");
  PortRef a = b.inport("a", DataType::kInt16, Shape{4, 8});
  PortRef c = b.inport("c", DataType::kInt32, Shape{4, 8});
  PortRef bad1 = b.actor("bad1", "Add", {a, c});
  PortRef f = b.inport("f", DataType::kFloat32, Shape{4, 8});
  PortRef bad2 = b.actor("bad2", "Mul", {f, c});
  b.outport("y1", bad1);
  b.outport("y2", bad2);
  Model model = b.take();

  DiagnosticEngine diags;
  EXPECT_FALSE(analysis::lint_resolve(model, diags));
  int mismatches = 0;
  for (const Diagnostic& diag : diags.diagnostics()) {
    if (diag.code == "HCG202") ++mismatches;
  }
  EXPECT_EQ(mismatches, 2);
}

TEST(LintRank2, CastBridgedMatrixPipelineLintsClean) {
  // The same mix made legal with an explicit widening Cast: the full lint
  // sequence resolves it, the range analysis runs over the rank-2 signals,
  // and no numeric-safety warning fires.
  ModelBuilder b("m");
  PortRef a = bounded_inport(b, "a", DataType::kInt16, Shape{4, 8}, -100, 100);
  PortRef c = bounded_inport(b, "c", DataType::kInt32, Shape{4, 8}, -200, 200);
  PortRef wide = b.actor("wide", "Cast", {a}, {{"to", "i32"}});
  PortRef s = b.actor("s", "Add", {wide, c});
  b.outport("y", s);
  Model model = b.take();

  DiagnosticEngine diags;
  analysis::LintOptions options;
  options.isa = &isa::builtin("neon_sim");
  const RangeAnalysis ranges = analysis::lint_model(model, options, diags);
  EXPECT_EQ(diags.count(Severity::kError), 0);
  EXPECT_EQ(diags.count(Severity::kWarning), 0);
  EXPECT_EQ(interval_of(ranges, model, "s"), (Interval{-300.0, 300.0}));
}

TEST(LintRank2, LossyMatrixCastWarns_HCG603) {
  // Rank-2 does not change the per-element transfer: a bounded i32 matrix
  // cast down to u8 with a negative range still warns.
  ModelBuilder b("m");
  PortRef a = bounded_inport(b, "a", DataType::kInt32, Shape{3, 5}, -40, 300);
  b.outport("y", b.actor("c", "Cast", {a}, {{"to", "u8"}}));
  Model model = b.take();

  DiagnosticEngine diags;
  analysis::LintOptions options;
  options.isa = &isa::builtin("neon_sim");
  analysis::lint_model(model, options, diags);
  EXPECT_TRUE(has_code(diags, "HCG603"));
  EXPECT_EQ(diags.count(Severity::kError), 0);
}

// ---- docs anti-drift --------------------------------------------------------

// Parses the `| HCGnnn | name | severity | meaning |` rows of the rules
// table in docs/ANALYSIS.md.
struct DocRule {
  std::string code;
  std::string name;
  std::string severity;
};

std::vector<DocRule> parse_docs_rules(const std::string& text) {
  std::vector<DocRule> rules;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("| HCG", 0) != 0) continue;
    std::vector<std::string> cells;
    size_t start = 1;
    while (start < line.size()) {
      size_t end = line.find('|', start);
      if (end == std::string::npos) break;
      std::string cell = line.substr(start, end - start);
      const size_t a = cell.find_first_not_of(' ');
      const size_t z = cell.find_last_not_of(' ');
      cells.push_back(a == std::string::npos ? ""
                                             : cell.substr(a, z - a + 1));
      start = end + 1;
    }
    if (cells.size() < 3) continue;
    rules.push_back({cells[0], cells[1], cells[2]});
  }
  return rules;
}

TEST(DocsAntiDrift, RulesTableMatchesTheRegistry) {
  const std::filesystem::path docs =
      std::filesystem::path(HCG_REPO_ROOT) / "docs" / "ANALYSIS.md";
  ASSERT_TRUE(std::filesystem::exists(docs)) << docs;
  const std::vector<DocRule> documented = parse_docs_rules(read_file(docs));
  const std::vector<analysis::DiagnosticRule>& registered =
      analysis::diagnostic_rules();

  ASSERT_EQ(documented.size(), registered.size())
      << "docs/ANALYSIS.md rules table and diagnostic_rules() disagree on "
         "the number of codes; update whichever is stale";

  for (size_t i = 0; i < registered.size(); ++i) {
    EXPECT_EQ(documented[i].code, registered[i].code)
        << "row " << i << ": table order must match the registry";
    EXPECT_EQ(documented[i].name, registered[i].name)
        << registered[i].code << ": name drifted";
    EXPECT_EQ(
        documented[i].severity,
        std::string(analysis::severity_name(registered[i].default_severity)))
        << registered[i].code << ": severity drifted";
  }
}

TEST(DocsAntiDrift, EveryRangeCodeHasADocsRowAndSarifRule) {
  const std::filesystem::path docs =
      std::filesystem::path(HCG_REPO_ROOT) / "docs" / "ANALYSIS.md";
  const std::vector<DocRule> documented = parse_docs_rules(read_file(docs));
  for (const char* code :
       {"HCG411", "HCG412", "HCG413", "HCG601", "HCG602", "HCG603",
        "HCG604", "HCG605"}) {
    EXPECT_NE(analysis::find_rule(code), nullptr) << code;
    const bool in_docs =
        std::any_of(documented.begin(), documented.end(),
                    [&](const DocRule& r) { return r.code == code; });
    EXPECT_TRUE(in_docs) << code << " missing from docs/ANALYSIS.md";
  }
}

}  // namespace
}  // namespace hcg
