// Unit tests for Algorithm 1 (intensive-actor implementation selection with
// pre-calculation and selection history), the in-run SelectionMemo, the
// history under concurrent use, and byte-identical repeated generation.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/metrics.hpp"
#include "support/fileio.hpp"
#include "synth/intensive.hpp"

namespace hcg::synth {
namespace {

const Actor& fft_actor(Model& model) { return model.actor_by_name("fft"); }

// ---------------------------------------------------------------------------
// SelectionHistory
// ---------------------------------------------------------------------------

TEST(History, StoreLookupRoundTrip) {
  SelectionHistory h;
  EXPECT_FALSE(h.lookup("FFT", DataType::kComplex64, {Shape({1024})}));
  h.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix2");
  auto hit = h.lookup("FFT", DataType::kComplex64, {Shape({1024})});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "fft_radix2");
  EXPECT_EQ(h.size(), 1u);
}

TEST(History, KeyDistinguishesTypeAndSize) {
  SelectionHistory h;
  h.store("FFT", DataType::kComplex64, {Shape({1024})}, "a");
  EXPECT_FALSE(h.lookup("FFT", DataType::kComplex64, {Shape({512})}));
  EXPECT_FALSE(h.lookup("IFFT", DataType::kComplex64, {Shape({1024})}));
  EXPECT_FALSE(h.lookup("FFT", DataType::kComplex128, {Shape({1024})}));
  h.store("Conv", DataType::kFloat32, {Shape({100}), Shape({17})}, "b");
  EXPECT_FALSE(h.lookup("Conv", DataType::kFloat32,
                        {Shape({100}), Shape({18})}));
  EXPECT_TRUE(h.lookup("Conv", DataType::kFloat32,
                       {Shape({100}), Shape({17})}));
}

TEST(History, StoreOverwrites) {
  SelectionHistory h;
  h.store("FFT", DataType::kComplex64, {Shape({64})}, "old");
  h.store("FFT", DataType::kComplex64, {Shape({64})}, "new");
  EXPECT_EQ(*h.lookup("FFT", DataType::kComplex64, {Shape({64})}), "new");
  EXPECT_EQ(h.size(), 1u);
}

TEST(History, SerializeDeserializeRoundTrip) {
  SelectionHistory h;
  h.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix2");
  h.store("MatMul", DataType::kFloat32, {Shape({3, 3}), Shape({3, 3})},
          "matmul_unrolled");
  SelectionHistory again = SelectionHistory::deserialize(h.serialize());
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(*again.lookup("MatMul", DataType::kFloat32,
                          {Shape({3, 3}), Shape({3, 3})}),
            "matmul_unrolled");
}

TEST(History, DeserializeSkipsCommentsRejectsGarbage) {
  SelectionHistory ok = SelectionHistory::deserialize(
      "# comment\n\nFFT c64 16 -> fft_radix2\n");
  EXPECT_EQ(ok.size(), 1u);
  EXPECT_THROW(SelectionHistory::deserialize("no arrow here\n"), ParseError);
}

TEST(History, SaveLoadFile) {
  TempDir dir;
  SelectionHistory h;
  h.store("DCT", DataType::kFloat32, {Shape({256})}, "dct_lee");
  const auto path = dir.path() / "history.txt";
  h.save(path);
  SelectionHistory loaded = SelectionHistory::load(path);
  EXPECT_EQ(*loaded.lookup("DCT", DataType::kFloat32, {Shape({256})}),
            "dct_lee");
}

// ---------------------------------------------------------------------------
// generate_test_inputs
// ---------------------------------------------------------------------------

TEST(TestInputs, MatchSpecsAndAreDeterministic) {
  Model model = resolved(benchmodels::conv_model(64, 8));
  const Actor& conv = model.actor_by_name("conv");
  auto a = generate_test_inputs(conv, 7);
  auto b = generate_test_inputs(conv, 7);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].shape(), Shape({64}));
  EXPECT_EQ(a[1].shape(), Shape({8}));
  EXPECT_TRUE(a[0].bytes_equal(b[0]));
  auto c = generate_test_inputs(conv, 8);
  EXPECT_FALSE(a[0].bytes_equal(c[0]));
}

TEST(TestInputs, MatInvInputsAreInvertible) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({4, 4}));
  b.outport("y", b.actor("inv", "MatInv", {x}));
  Model model = resolved(b.take());
  auto inputs = generate_test_inputs(model.actor_by_name("inv"), 3);
  // Diagonal dominance: |a_ii| > sum of |a_ij|: bump is n+1 with entries in
  // [-1, 1), so each diagonal exceeds 4 while off-diagonals stay below 1.
  const float* m = inputs[0].as<float>();
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(std::abs(m[i * 4 + i]), 3.0f);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 1 selection
// ---------------------------------------------------------------------------

TEST(Select, Pow2FftPrefersFastImplementationOverGeneral) {
  Model model = resolved(benchmodels::fft_model(1024));
  SelectionHistory history;
  auto selection = select_implementation(fft_actor(model), history);
  ASSERT_NE(selection.impl, nullptr);
  EXPECT_FALSE(selection.from_history);
  // Radix-2/radix-4 must beat the naive DFT and Bluestein at 1024; we do not
  // pin the exact winner (radix2 vs radix4 vs mixed are close), but the
  // O(n^2) DFT must never win at this size.
  EXPECT_NE(selection.impl->id, "fft_dft");
  EXPECT_NE(selection.impl->id, "fft_bluestein");
  // Every eligible candidate was measured.
  EXPECT_EQ(selection.measured_costs.size(), 6u);
  EXPECT_GT(selection.measured_costs.at("fft_dft"),
            selection.measured_costs.at(selection.impl->id));
}

TEST(Select, NonPow2SizeFiltersPow2Candidates) {
  Model model = resolved(benchmodels::fft_model(600));  // 600 = 2^3*3*5^2
  SelectionHistory history;
  auto selection = select_implementation(fft_actor(model), history);
  // radix2/radix4 cannot handle 600 (canHandleDataSize filter).
  EXPECT_EQ(selection.measured_costs.count("fft_radix2"), 0u);
  EXPECT_EQ(selection.measured_costs.count("fft_radix4"), 0u);
  EXPECT_GE(selection.measured_costs.size(), 2u);  // dft, mixed, bluestein
  EXPECT_NE(selection.impl->id, "fft_radix2");
}

TEST(Select, HistoryHitSkipsPreCalculation) {
  Model model = resolved(benchmodels::fft_model(256));
  SelectionHistory history;
  history.store("FFT", DataType::kComplex64, {Shape({256})}, "fft_bluestein");
  auto selection = select_implementation(fft_actor(model), history);
  EXPECT_TRUE(selection.from_history);
  EXPECT_EQ(selection.impl->id, "fft_bluestein");  // honored verbatim
  EXPECT_TRUE(selection.measured_costs.empty());
}

TEST(Select, StaleHistoryEntryTriggersFreshPreCalculation) {
  Model model = resolved(benchmodels::fft_model(256));
  SelectionHistory history;
  history.store("FFT", DataType::kComplex64, {Shape({256})}, "no_such_impl");
  auto selection = select_implementation(fft_actor(model), history);
  EXPECT_FALSE(selection.from_history);
  EXPECT_FALSE(selection.measured_costs.empty());
  // The stale entry was overwritten with the fresh choice.
  EXPECT_EQ(*history.lookup("FFT", DataType::kComplex64, {Shape({256})}),
            selection.impl->id);
}

TEST(Select, HistoryNamingADeletedKernelIsRemeasured) {
  // conv_saxpy left the library once conv_blocked beat it at every swept
  // size; a history file written before that still names it.
  Model model = resolved(benchmodels::conv_model(256, 8));
  const std::vector<Shape> shapes = {Shape({256}), Shape({8})};
  SelectionHistory history;
  history.store("Conv", DataType::kFloat32, shapes, "conv_saxpy");
  auto selection = select_implementation(model.actor_by_name("conv"), history);
  EXPECT_FALSE(selection.from_history);
  EXPECT_EQ(selection.measured_costs.count("conv_saxpy"), 0u);
  EXPECT_TRUE(selection.measured_costs.count("conv_blocked"));
  EXPECT_NE(selection.impl->id, "conv_saxpy");
  EXPECT_EQ(*history.lookup("Conv", DataType::kFloat32, shapes),
            selection.impl->id);
}

TEST(Select, KernelsArePrimedOncePerProcess) {
  // The untimed priming call runs before a kernel's first race in the
  // process, never again: a second race at another size primes nothing.
  obs::Counter& primed =
      obs::Registry::instance().counter("synth.precalc.primed");
  Model first = resolved(benchmodels::conv_model(64, 4));
  SelectionHistory history;
  auto selection = select_implementation(first.actor_by_name("conv"), history);
  ASSERT_FALSE(selection.measured_costs.empty());
  const std::uint64_t after_first = primed.value();
  EXPECT_GT(after_first, 0u);
  Model second = resolved(benchmodels::conv_model(96, 5));
  selection = select_implementation(second.actor_by_name("conv"), history);
  ASSERT_FALSE(selection.from_history);
  EXPECT_EQ(primed.value(), after_first);
}

TEST(Select, SelectionIsStoredForReuse) {
  Model model = resolved(benchmodels::dct_model(128));
  SelectionHistory history;
  auto first = select_implementation(model.actor_by_name("dct"), history);
  EXPECT_FALSE(first.from_history);
  auto second = select_implementation(model.actor_by_name("dct"), history);
  EXPECT_TRUE(second.from_history);
  EXPECT_EQ(first.impl->id, second.impl->id);
}

TEST(Select, SmallMatrixPrefersSpecializedKernels) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({3, 3}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({3, 3}));
  b.outport("o", b.actor("mm", "MatMul", {x, y}));
  Model model = resolved(b.take());
  SelectionHistory history;
  auto selection = select_implementation(model.actor_by_name("mm"), history);
  // Both candidates measured; the unrolled kernel is eligible at n=3.
  EXPECT_EQ(selection.measured_costs.size(), 2u);
  EXPECT_TRUE(selection.measured_costs.count("matmul_unrolled"));
}

TEST(Select, LargeMatrixOnlyGenericEligible) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({8, 8}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({8, 8}));
  b.outport("o", b.actor("mm", "MatMul", {x, y}));
  Model model = resolved(b.take());
  SelectionHistory history;
  auto selection = select_implementation(model.actor_by_name("mm"), history);
  EXPECT_EQ(selection.impl->id, "matmul_generic");
  EXPECT_EQ(selection.measured_costs.size(), 1u);
}

TEST(Select, ConvLongKernelLandsOnFasterThanDirectChoice) {
  // With a 256-tap kernel over 1024 samples the FFT convolution should win
  // comfortably; at minimum, the chosen impl must not be slower than direct.
  Model model = resolved(benchmodels::conv_model(1024, 256));
  SelectionHistory history;
  auto selection = select_implementation(model.actor_by_name("conv"), history);
  const double chosen = selection.measured_costs.at(selection.impl->id);
  const double direct = selection.measured_costs.at("conv_direct");
  EXPECT_LE(chosen, direct);
}

TEST(Select, IdentifiesInverseTransformsSeparately) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kComplex64, Shape({128}));
  b.outport("y", b.actor("ifft", "IFFT", {x}));
  Model model = resolved(b.take());
  SelectionHistory history;
  auto selection = select_implementation(model.actor_by_name("ifft"), history);
  EXPECT_EQ(selection.impl->actor_type, "IFFT");
  EXPECT_TRUE(history.lookup("IFFT", DataType::kComplex64, {Shape({128})}));
}

TEST(Select, Pow2FftScreensTheDft) {
  // At n=1024 the O(n^2) DFT's warm-up alone costs far more than kScreenRatio
  // times the fastest warm-up: it is screened, yet keeps its cold time.
  Model model = resolved(benchmodels::fft_model(1024));
  SelectionHistory history;
  auto selection = select_implementation(fft_actor(model), history);
  ASSERT_TRUE(selection.measured_costs.count("fft_dft"));
  EXPECT_EQ(selection.timed_samples.at("fft_dft"), 0);
  EXPECT_GE(selection.timed_samples.at(selection.impl->id), 2);
}

// ---------------------------------------------------------------------------
// race_candidates, driven by fake per-call wall/CPU times
// ---------------------------------------------------------------------------

/// Per-call costs in microseconds; `warmup_wall_scale` inflates the wall time
/// of warm-ups only (a preempted first call).  Records every measure request.
struct FakeKernels {
  std::vector<double> cpu_us;
  std::vector<double> warmup_wall_scale;
  std::vector<std::vector<int>> requests;  // per candidate: calls per request

  RaceResult race() {
    warmup_wall_scale.resize(cpu_us.size(), 1.0);
    requests.assign(cpu_us.size(), {});
    return race_candidates(cpu_us.size(), [this](std::size_t i, int calls) {
      const bool warmup = requests[i].empty();
      requests[i].push_back(calls);
      CallTiming t;
      t.cpu_seconds = cpu_us[i] * 1e-6 * calls;
      t.wall_seconds = t.cpu_seconds * (warmup ? warmup_wall_scale[i] : 1.0);
      return std::optional<CallTiming>(t);
    });
  }
};

TEST(Race, ClearLosersRunOnlyTheirWarmup) {
  FakeKernels k{{1.0, 1.02, 10.0, 100.0}, {}, {}};
  const RaceResult race = k.race();
  EXPECT_EQ(race.winner, 0);
  EXPECT_TRUE(race.lanes[2].screened);
  EXPECT_TRUE(race.lanes[3].screened);
  EXPECT_EQ(k.requests[2].size(), 1u);
  EXPECT_EQ(k.requests[3].size(), 1u);
  EXPECT_EQ(race.lanes[2].samples, 0);
  EXPECT_DOUBLE_EQ(race.lanes[3].best_seconds, 100e-6);  // the cold call
  for (int i : {0, 1}) {
    EXPECT_FALSE(race.lanes[i].screened) << i;
    EXPECT_FALSE(race.lanes[i].dropped) << i;
    EXPECT_EQ(race.lanes[i].samples, kRepetitions) << i;
  }
  // 1 µs per call: each sample batches ceil(2 µs / 1 µs) calls, and the
  // reported time stays per call.
  EXPECT_EQ(race.lanes[0].calls_per_sample, 2);
  EXPECT_EQ(k.requests[0][1], 2);
  EXPECT_DOUBLE_EQ(race.lanes[0].best_seconds, 1e-6);
}

TEST(Race, PreemptedWarmupIsNotScreened) {
  // 20x wall on the winner's warm-up, but the same CPU time: it stays in.
  FakeKernels k{{1.0, 1.3}, {20.0, 1.0}, {}};
  const RaceResult race = k.race();
  EXPECT_FALSE(race.lanes[0].screened);
  EXPECT_EQ(race.lanes[0].samples, kRepetitions);
  EXPECT_EQ(race.winner, 0);
}

TEST(Race, SlowSurvivorDroppedAfterItsSecondSample) {
  FakeKernels k{{1.0, 1.6}, {}, {}};
  const RaceResult race = k.race();
  EXPECT_FALSE(race.lanes[1].screened);
  EXPECT_TRUE(race.lanes[1].dropped);
  EXPECT_EQ(race.lanes[1].samples, 2);
  EXPECT_EQ(race.lanes[0].samples, kRepetitions);
  EXPECT_EQ(race.winner, 0);
}

TEST(Race, TinyKernelsBatchUpToTheCap) {
  FakeKernels k{{0.001, 0.002}, {}, {}};
  const RaceResult race = k.race();
  EXPECT_EQ(race.lanes[0].calls_per_sample, kMaxCallsPerSample);
  EXPECT_EQ(race.lanes[1].calls_per_sample, kMaxCallsPerSample);
  EXPECT_EQ(race.winner, 0);
}

TEST(Race, BudgetStopsLongKernelsAfterOneSample) {
  // 3 ms per call: the first sample spends the 2 ms budget.
  FakeKernels k{{3000.0}, {}, {}};
  const RaceResult race = k.race();
  EXPECT_EQ(race.lanes[0].samples, 1);
  EXPECT_EQ(race.winner, 0);
}

TEST(Race, FailedCandidatesNeverWin) {
  std::vector<int> warmups(3, 0);
  const RaceResult race =
      race_candidates(3, [&](std::size_t i, int calls) {
        ++warmups[i];
        if (i == 0) return std::optional<CallTiming>();  // fails in warm-up
        CallTiming t;
        t.cpu_seconds = t.wall_seconds = (i == 1 ? 5e-6 : 6e-6) * calls;
        return std::optional<CallTiming>(t);
      });
  EXPECT_TRUE(race.lanes[0].failed);
  EXPECT_EQ(warmups[0], 1);
  EXPECT_EQ(race.winner, 1);
  EXPECT_EQ(race_candidates(0, {}).winner, -1);
}

TEST(Select, ReportNamesEveryEligibleCandidate) {
  // tools/kernel_sweep.py builds Figure 1 and E11 from the report's
  // intensive[].candidates: each must be an implementation whose can_handle
  // accepts the shape, every such implementation must be there, and each
  // must carry a measured time.
  ModelBuilder b("matmul3");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({3, 3}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({3, 3}));
  b.outport("o", b.actor("mm", "MatMul", {x, y}));
  std::vector<Model> models;
  models.push_back(benchmodels::fft_model(600));
  models.push_back(benchmodels::fft_model(1024));
  models.push_back(benchmodels::conv_model(1024, 256));
  models.push_back(b.take());
  for (const Model& model : models) {
    SCOPED_TRACE(model.name());
    SelectionHistory history;
    codegen::EmitConfig config;
    config.isa = &isa::builtin("neon_sim");
    config.select_intensive = true;
    config.history = &history;
    const codegen::GeneratedCode code = codegen::emit_model(model, config);
    ASSERT_FALSE(code.report.intensive.empty());
    const obs::ReportIntensive& entry = code.report.intensive[0];

    const Model resolved_model = resolved(model);
    const Actor& actor = resolved_model.actor_by_name(entry.actor);
    const DataType dtype = actor.input(0).type;
    std::vector<Shape> shapes;
    for (const PortSpec& in : actor.inputs()) shapes.push_back(in.shape);
    std::set<std::string> eligible;
    for (const kernels::KernelImpl* impl :
         kernels::CodeLibrary::instance().implementations(actor.type(),
                                                          dtype)) {
      if (impl->can_handle(dtype, shapes)) eligible.insert(impl->id);
    }
    std::set<std::string> reported;
    for (const obs::ReportCandidate& candidate : entry.candidates) {
      EXPECT_GT(candidate.ms, 0.0) << candidate.impl;
      reported.insert(candidate.impl);
    }
    EXPECT_EQ(entry.candidates.size(), reported.size());
    EXPECT_EQ(reported, eligible);
    EXPECT_GE(eligible.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// SelectionHistory under contention
// ---------------------------------------------------------------------------

TEST(ParallelHistory, HammerFromEightThreads) {
  SelectionHistory history;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr int kKeySpace = 32;
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int k = (t * 7 + op) % kKeySpace;
        const Shape shape({16 << (k / 8)});
        const std::string type = "FFT" + std::to_string(k % 8);
        if (op % 3 == 0) {
          history.store(type, DataType::kComplex64, {shape},
                        "impl" + std::to_string(k));
        } else {
          (void)history.lookup(type, DataType::kComplex64, {shape});
          lookups.fetch_add(1);
        }
        if (op % 97 == 0) {
          (void)history.serialize();  // concurrent reader of the whole map
          (void)history.size();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every (type, shape) combination was stored at least once.
  EXPECT_EQ(history.size(), static_cast<std::size_t>(kKeySpace));
  // Statistics did not lose updates.
  EXPECT_EQ(history.hits() + history.misses(), lookups.load());
  // The text form round-trips.
  SelectionHistory copy = SelectionHistory::deserialize(history.serialize());
  EXPECT_EQ(copy.size(), history.size());
}

// ---------------------------------------------------------------------------
// SelectionMemo: duplicate keys in one generation share one measurement
// ---------------------------------------------------------------------------

codegen::EmitConfig farm_config(SelectionHistory* history) {
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.select_intensive = true;
  config.history = history;
  config.fold_scalar_expressions = true;
  config.reuse_buffers = true;
  return config;
}

// The SingleFlight suite name predates SelectionMemo; the assertions are
// about the memo.
TEST(SingleFlight, DuplicateKeysMeasureOnce) {
  // 32 actors over 16 distinct (type, dtype, shapes) keys.
  const Model model = benchmodels::intensive_farm_model(32, false);
  obs::Counter& precalc =
      obs::Registry::instance().counter("synth.precalc.runs");
  obs::Counter& dedup =
      obs::Registry::instance().counter("synth.pool.dedup_hits");
  const std::uint64_t precalc_before = precalc.value();
  const std::uint64_t dedup_before = dedup.value();

  codegen::GeneratedCode code =
      codegen::emit_model(model, farm_config(nullptr));

  EXPECT_EQ(code.intensive_choices.size(), 32u);
  // Every distinct key ran exactly one pre-calculation sweep...
  EXPECT_EQ(precalc.value() - precalc_before, 16u);
  // ...and every duplicate shared it through the memo.
  EXPECT_EQ(dedup.value() - dedup_before, 16u);
  // Duplicates resolved to the same implementation as the first request.
  for (int i = 0; i < 16; ++i) {
    const std::string kinds[] = {"fft", "dct", "conv", "mm"};
    const std::string name = kinds[i % 4] + std::to_string(i);
    const std::string dup_name = kinds[i % 4] + std::to_string(i + 16);
    ASSERT_TRUE(code.intensive_choices.count(name)) << name;
    ASSERT_TRUE(code.intensive_choices.count(dup_name)) << dup_name;
    EXPECT_EQ(code.intensive_choices.at(name),
              code.intensive_choices.at(dup_name));
  }
}

TEST(SingleFlight, MemoizesAtOneJob) {
  // Generation runs on one thread; the in-run memo must still collapse
  // duplicates, even when no persistent history is attached.
  const Model dup_model = benchmodels::intensive_farm_model(40, false);
  obs::Counter& precalc =
      obs::Registry::instance().counter("synth.precalc.runs");
  const std::uint64_t before = precalc.value();
  codegen::GeneratedCode code =
      codegen::emit_model(dup_model, farm_config(nullptr));
  EXPECT_EQ(code.intensive_choices.size(), 40u);
  EXPECT_EQ(precalc.value() - before, 16u);  // 40 actors, 16 distinct keys
}

// ---------------------------------------------------------------------------
// Determinism: two generations of one model give identical bytes
// ---------------------------------------------------------------------------

/// Four disconnected Add/Mul chains over f32[64]: four independent batch
/// regions for Algorithm 2.
Model multi_region_model() {
  ModelBuilder b("four_chains");
  for (int chain = 0; chain < 4; ++chain) {
    const std::string tag = std::to_string(chain);
    PortRef x = b.inport("x" + tag, DataType::kFloat32, Shape{64});
    PortRef w = b.inport("w" + tag, DataType::kFloat32, Shape{64});
    PortRef a = b.actor("add" + tag, "Add", {x, w});
    PortRef m = b.actor("mul" + tag, "Mul", {a, w});
    PortRef s = b.actor("sub" + tag, "Sub", {m, x});
    b.outport("y" + tag, s);
  }
  return b.take();
}

TEST(ParallelDeterminism, BatchRegionsByteIdenticalAcrossJobs) {
  const Model model = multi_region_model();
  codegen::GeneratedCode first =
      codegen::emit_model(model, farm_config(nullptr));
  codegen::GeneratedCode second =
      codegen::emit_model(model, farm_config(nullptr));
  EXPECT_EQ(first.source, second.source);
  EXPECT_EQ(first.simd_instructions, second.simd_instructions);
  EXPECT_EQ(first.fused_regions, second.fused_regions);
}

TEST(ParallelDeterminism, IntensiveByteIdenticalWithWarmHistory) {
  const Model model = benchmodels::intensive_farm_model(24, true);

  // Warm the history once (selections pinned from here on).
  SelectionHistory history;
  codegen::emit_model(model, farm_config(&history));
  EXPECT_EQ(history.size(), 24u);
  history.reset_stats();

  codegen::GeneratedCode first =
      codegen::emit_model(model, farm_config(&history));
  codegen::GeneratedCode second =
      codegen::emit_model(model, farm_config(&history));

  // Both runs answered every actor from the warm history...
  EXPECT_EQ(history.misses(), 0u);
  EXPECT_EQ(history.hits(), 48u);
  // ...and produced byte-identical C.
  EXPECT_EQ(first.source, second.source);
  EXPECT_EQ(first.intensive_choices, second.intensive_choices);
}

}  // namespace
}  // namespace hcg::synth
