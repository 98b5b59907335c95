// Algorithm 1 in action: for a range of FFT sizes, run the pre-calculation
// and print every candidate's measured cost plus the winner — the dynamic
// the paper's Figure 1 motivates (no implementation wins at every scale).
//
//   $ ./examples/fft_explorer [sizes...]
#include <cstdio>
#include <cstdlib>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "synth/intensive.hpp"

int main(int argc, char** argv) {
  using namespace hcg;

  std::vector<int> sizes = {16, 64, 256, 1024, 4096, 600, 1000};
  if (argc > 1) {
    sizes.clear();
    for (int i = 1; i < argc; ++i) sizes.push_back(std::atoi(argv[i]));
  }

  synth::SelectionHistory history;
  for (int n : sizes) {
    Model model = resolved(benchmodels::fft_model(n));
    const Actor& fft = model.actor_by_name("fft");

    synth::IntensiveSelection selection =
        synth::select_implementation(fft, history);

    std::printf("FFT size %5d -> %s%s\n", n, selection.impl->id.c_str(),
                selection.from_history ? "  (from history)" : "");
    for (const auto& [impl, seconds] : selection.measured_costs) {
      std::printf("    %-16s %10.2f us%s\n", impl.c_str(), seconds * 1e6,
                  impl == selection.impl->id ? "   <== selected" : "");
    }
  }

  std::printf("\nselection history after the sweep:\n%s",
              history.serialize().c_str());
  std::printf("\nre-running size %d hits the history:\n", sizes.front());
  Model model = resolved(benchmodels::fft_model(sizes.front()));
  auto again =
      synth::select_implementation(model.actor_by_name("fft"), history);
  std::printf("  %s (from_history=%s)\n", again.impl->id.c_str(),
              again.from_history ? "true" : "false");
  return 0;
}
