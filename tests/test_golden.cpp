// Golden-file regression tests: the exact generated source for each paper
// model and tool is pinned under tests/golden/, plus one -O2 farm model that
// pins the cgir pass pipeline at scale and one -O2 range-narrowed pipeline.  Any change to the emitters or the
// passes shows up as a reviewable diff.
//
// Algorithm 1's choices are timing-dependent, so each case pre-seeds the
// selection history with a pinned implementation — which doubles as a test
// that the history really does make generation reproducible.
//
// Regenerate after an intentional emitter change with:
//   HCG_UPDATE_GOLDEN=1 ./build/tests/hcg_integration_tests
//       --gtest_filter='*Golden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <ostream>

#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "support/fileio.hpp"

namespace hcg {
namespace {

struct GoldenCase {
  const char* name;   // golden file stem
  int model;          // index into paper_models(), kFarm64 or kRangepipe
  const char* tool;   // "hcg" | "simulink" | "dfsynth" | "scattered"
};

/// intensive_farm_model(64, false) under HCG -O2 on neon_sim.  The paper
/// models are small -O1 units; the farm lowers to 281 top-level step
/// statements, none of which fuse (each Gain loop follows the kernel call
/// feeding it), so its file pins the unfused statement order and the arena
/// slot naming.
constexpr int kFarm64 = -1;

/// rangepipe_model(1024) under HCG -O2 on neon_sim: pins range-driven lane
/// narrowing together with the -O2 fuse_cross_scale and localize_strips
/// rewrites of the boundary casts it inserts.
constexpr int kRangepipe = -2;

// Without this, gtest prints the parameter as raw bytes, which include the
// addresses of the string literals; the test IDs that ctest discovers would
// then change from build to build.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

constexpr GoldenCase kCases[] = {
    {"fft_hcg", 0, "hcg"},
    {"fft_dfsynth", 0, "dfsynth"},
    {"dct_simulink", 1, "simulink"},
    {"conv_hcg", 2, "hcg"},
    {"highpass_hcg", 3, "hcg"},
    {"highpass_scattered", 3, "scattered"},
    {"lowpass_simulink", 4, "simulink"},
    {"fir_hcg", 5, "hcg"},
    {"fir_dfsynth", 5, "dfsynth"},
    {"farm64_hcg_o2", kFarm64, "hcg"},
    {"rangepipe_hcg_o2", kRangepipe, "hcg"},
};

std::filesystem::path golden_dir() {
  return std::filesystem::path(HCG_GOLDEN_DIR);
}

/// Pins every intensive choice the paper models can make, so generation is
/// time-independent.
synth::SelectionHistory pinned_history() {
  synth::SelectionHistory history;
  history.store("FFT", DataType::kComplex64, {Shape({1024})},
                "fft_radix2_tab");
  history.store("DCT", DataType::kFloat32, {Shape({256})}, "dct_lee");
  history.store("Conv", DataType::kFloat32, {Shape({1024}), Shape({64})},
                "conv_blocked");
  return history;
}

/// Pins all 16 selection keys of intensive_farm_model(64, false): unpinned,
/// Algorithm 1 picks differently from one cold run to the next.
synth::SelectionHistory farm_history() {
  synth::SelectionHistory history;
  const char* const fft[] = {"fft_radix4", "fft_radix2_tab", "fft_dft",
                             "fft_radix2_tab"};
  const char* const dct[] = {"dct_lee", "dct_fft", "dct_naive", "dct_fft"};
  const char* const matmul[] = {"matmul_unrolled", "matmul_unrolled",
                                "matmul_unrolled", "matmul_generic"};
  for (int v = 0; v < 4; ++v) {
    history.store("FFT", DataType::kComplex64, {Shape({4 * (v + 1)})}, fft[v]);
    history.store("DCT", DataType::kFloat32, {Shape({8 * (v + 1)})}, dct[v]);
    history.store("Conv", DataType::kFloat32,
                  {Shape({256}), Shape({4 * (v + 1)})}, "conv_blocked");
    const Shape square({v + 2, v + 2});
    history.store("MatMul", DataType::kFloat32, {square, square}, matmul[v]);
  }
  return history;
}

std::string generate_case(const GoldenCase& c) {
  if (c.model == kFarm64) {
    synth::SelectionHistory history = farm_history();
    auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                            {}, /*opt_level=*/2);
    return tool->generate(benchmodels::intensive_farm_model(64, false)).source;
  }
  if (c.model == kRangepipe) {
    auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), nullptr,
                                            {}, /*opt_level=*/2);
    return tool->generate(benchmodels::rangepipe_model(1024)).source;
  }
  std::vector<Model> models = benchmodels::paper_models();
  const Model& model = models.at(static_cast<size_t>(c.model));
  synth::SelectionHistory history = pinned_history();
  std::unique_ptr<codegen::Generator> tool;
  if (std::string(c.tool) == "hcg") {
    tool = codegen::make_hcg_generator(isa::builtin("neon"), &history);
  } else if (std::string(c.tool) == "simulink") {
    tool = codegen::make_simulink_generator();
  } else if (std::string(c.tool) == "scattered") {
    tool = codegen::make_simulink_generator(&isa::builtin("sse"));
  } else {
    tool = codegen::make_dfsynth_generator();
  }
  return tool->generate(model).source;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, GeneratedSourceMatchesPinnedFile) {
  const GoldenCase& c = GetParam();
  const std::string source = generate_case(c);
  const auto path = golden_dir() / (std::string(c.name) + ".c");

  if (std::getenv("HCG_UPDATE_GOLDEN") != nullptr) {
    write_file(path, source);
    GTEST_SKIP() << "updated " << path;
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " missing — run once with HCG_UPDATE_GOLDEN=1";
  EXPECT_EQ(source, read_file(path))
      << "generated source for " << c.name
      << " changed; if intentional, regenerate with HCG_UPDATE_GOLDEN=1";
}

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Cases, Golden, ::testing::ValuesIn(kCases),
                         golden_name);

}  // namespace
}  // namespace hcg
