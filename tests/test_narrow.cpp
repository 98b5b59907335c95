// Range-driven lane narrowing (analysis/narrow.hpp) through the emitter:
// how its one-region-per-round fixpoint re-forms regions, and the HCG413
// remark for ranges that fit a type the ISA cannot run.  The HCG411/HCG412
// basics are in tests/test_range.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "fuzz/generator.hpp"
#include "isa/builtin.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg {
namespace {

codegen::EmitConfig hcg_config(const char* isa, int opt_level) {
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin(isa);
  config.fold_scalar_expressions = true;
  config.reuse_buffers = true;
  config.opt_level = opt_level;
  return config;
}

// A rewrite changes which actors join one region, so regions are found
// again after every narrowing.  In this fuzz model the first scan finds four
// narrowable u8 regions, {a0, a1}, {a4}, {a6} and {a11}; once {a0, a1} runs
// at u8, a4 and a6 join one region, and three regions narrow, not four.
TEST(LaneNarrowing, RewriteReformsTheRegionsBehindIt) {
  fuzz::GeneratorConfig grammar;
  grammar.intensive = false;
  const Model model = resolved(fuzz::generate_model((1 << 20) + 192, grammar));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, hcg_config("neon_sim", 1));

  EXPECT_EQ(code.report.regions_narrowed, 3);
  bool joined = false;
  for (const auto& diag : code.report.diagnostics) {
    if (diag.code == "HCG411" &&
        diag.message.rfind("region {a4, a6}", 0) == 0) {
      joined = true;
    }
  }
  EXPECT_TRUE(joined) << "no HCG411 remark for the re-formed region {a4, a6}";

  if (!toolchain::compiler_available()) GTEST_SKIP() << "no C compiler";
  const std::vector<Tensor> inputs = benchmodels::workload(model, 7);
  Interpreter oracle(model);
  oracle.init();
  const std::vector<Tensor> expected = oracle.step(inputs);
  toolchain::CompiledModel compiled(code);
  compiled.init();
  const std::vector<Tensor> got = compiled.step_tensors(model, inputs);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].max_abs_difference(expected[i]), 0.0) << "output " << i;
  }
}

// avx2 has no 16-bit multiply by a scalar, so rangepipe's proven i16 ranges
// cannot be used; the refusal names the op and the type.
TEST(LaneNarrowing, MissingNarrowInstructionIsReported_HCG413) {
  const Model model = resolved(benchmodels::rangepipe_model(1024));
  const codegen::GeneratedCode code =
      codegen::emit_model(model, hcg_config("avx2", 2));

  EXPECT_EQ(code.report.regions_narrowed, 0);
  EXPECT_EQ(code.report.narrowing_blocked, 0);
  int remarks = 0;
  for (const auto& diag : code.report.diagnostics) {
    if (diag.code != "HCG413") continue;
    ++remarks;
    EXPECT_NE(diag.message.find("fit i16"), std::string::npos) << diag.message;
    EXPECT_NE(diag.message.find("no i16 instruction for MulC"),
              std::string::npos)
        << diag.message;
  }
  EXPECT_EQ(remarks, 1);
}

}  // namespace
}  // namespace hcg
