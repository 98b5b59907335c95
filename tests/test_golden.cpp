// Golden-file regression tests: the exact generated source for each paper
// model and tool is pinned under tests/golden/.  Any change to the emitters
// shows up as a reviewable diff.
//
// Algorithm 1's choices are timing-dependent, so each case pre-seeds the
// selection history with a pinned implementation — which doubles as a test
// that the history really does make generation reproducible.
//
// Regenerate after an intentional emitter change with:
//   HCG_UPDATE_GOLDEN=1 ./build/tests/hcg_integration_tests
//       --gtest_filter='Golden/*'
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
  int model;          // index into paper_models()
  const char* tool;   // "hcg" | "simulink" | "dfsynth" | "scattered"
};

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
};

std::filesystem::path golden_dir() {
  return std::filesystem::path(HCG_GOLDEN_DIR);
}

/// Pins every intensive choice the paper models can make, so generation is
/// time-independent.
synth::SelectionHistory pinned_history() {
  synth::SelectionHistory history;
  history.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix2");
  history.store("DCT", DataType::kFloat32, {Shape({256})}, "dct_lee");
  history.store("Conv", DataType::kFloat32, {Shape({1024}), Shape({64})},
                "conv_blocked");
  return history;
}

std::string generate_case(const GoldenCase& c) {
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
