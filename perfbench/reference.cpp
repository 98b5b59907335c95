#include "reference.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kStepElems = 1024;
constexpr int kCodegenItems = 400;

struct StepState {
  StepState() {
    for (std::size_t i = 0; i < kStepElems; ++i) {
      x[i] = 0.5f + static_cast<float>(i % 97) / 97.0f;
      y[i] = 1.0f;
      z[i] = 0.0f;
      h[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    }
  }
  float x[kStepElems];
  float y[kStepElems];
  float z[kStepElems];
  std::uint32_t h[kStepElems];
};

StepState& step_state() {
  static StepState state;
  return state;
}

/// Keeps the reference's results observable, so none of it is folded away.
volatile float g_step_sink = 0.0f;
volatile std::size_t g_codegen_sink = 0;

}  // namespace

void reference_step() {
  StepState& s = step_state();
  // Elementwise float and integer loops the compiler vectorizes, a stencil,
  // and a scalar loop with a data-dependent branch.  y converges to x and
  // stays in [0.5, 1.5]: no overflow, no denormals.
  for (std::size_t i = 0; i < kStepElems; ++i) {
    s.y[i] = 0.75f * s.y[i] + 0.25f * s.x[i];
  }
  for (std::size_t i = 0; i < kStepElems; ++i) {
    s.h[i] = (s.h[i] ^ (s.h[i] >> 13)) * 1664525u + 1013904223u;
  }
  for (std::size_t i = 1; i + 1 < kStepElems; ++i) {
    s.z[i] = 0.25f * s.y[i - 1] + 0.5f * s.y[i] + 0.25f * s.y[i + 1];
  }
  std::uint32_t odd = 0;
  for (std::size_t i = 0; i < kStepElems; ++i) {
    if (s.h[i] & 0x100u) {
      odd += s.h[i] >> 7;
    } else {
      odd ^= s.h[i];
    }
  }
  g_step_sink = s.z[kStepElems / 2] + static_cast<float>(odd & 1u);
}

void reference_codegen() {
  std::map<std::string, std::size_t> slots;
  std::vector<std::unique_ptr<std::string>> names;
  std::string text;
  std::uint32_t x = 12345;
  for (int i = 0; i < kCodegenItems; ++i) {
    x = x * 1664525u + 1013904223u;
    auto name = std::make_unique<std::string>("sig_" + std::to_string(x % 997));
    const auto [it, inserted] = slots.emplace(*name, slots.size());
    text += "  float " + *name + "[" + std::to_string(it->second) + "];\n";
    names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end(),
            [](const auto& a, const auto& b) { return *a < *b; });
  g_codegen_sink = text.size() + names.front()->size() + slots.size();
}

}  // namespace perfbench
