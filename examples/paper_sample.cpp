// The worked example of the paper (Figure 4 / Listing 1): builds the sample
// model, shows the dataflow graph Algorithm 2 constructs, and prints the
// SIMD loop it synthesizes — which maps to exactly the instructions the
// paper lists: vsubq_s32, vhaddq_s32, vmlaq_s32.
//
//   $ ./examples/paper_sample
#include <cstdio>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "cgir/cgir.hpp"
#include "codegen/generator.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "synth/batch.hpp"

int main() {
  using namespace hcg;

  Model model = resolved(benchmodels::paper_fig4_model(1024));
  const isa::VectorIsa& neon = isa::builtin("neon");

  std::printf("== Figure 4(b): the directed dataflow graph ==\n");
  auto regions = find_batch_regions(model, neon);
  for (const BatchRegion& region : regions) {
    std::printf("%s\n", region.graph.to_string().c_str());
  }

  std::printf("== Algorithm 2: iterative graph mapping ==\n");
  synth::BatchSynthResult result = synth::synthesize_batch(
      model, regions.at(0), neon,
      [&model](ActorId id, int) { return model.actor(id).name() + "_buf"; });
  std::printf("batch size %d, batch count %d, remainder %d\n",
              result.batch_size, result.batch_count, result.offset);
  std::printf("instructions selected (paper Listing 1: vsubq_s32, "
              "vhaddq_s32, vmlaq_s32):\n");
  for (const auto& name : result.instructions_used) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("\n== synthesized SIMD loop ==\n%s\n",
              cgir::print(result.loops).c_str());

  std::printf("== full generated translation unit (HCG) ==\n");
  auto generator = codegen::make_hcg_generator(neon);
  codegen::GeneratedCode code = generator->generate(model);
  std::printf("%s", code.source.c_str());
  return 0;
}
