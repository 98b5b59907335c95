#include "synth/intensive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_set>

#include "actors/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace hcg::synth {

namespace {

/// Seed for generateTestInput.
constexpr std::uint64_t kTestInputSeed = 0x4c4f54;

std::vector<Shape> input_shapes(const Actor& actor) {
  std::vector<Shape> shapes;
  for (const PortSpec& in : actor.inputs()) shapes.push_back(in.shape);
  return shapes;
}

void fill_random(Tensor& t, Rng& rng, bool diagonally_dominant) {
  const DataType comp = component_type(t.type());
  const int components = is_complex(t.type()) ? t.elements() * 2 : t.elements();
  for (int i = 0; i < components; ++i) {
    const double v = rng.uniform_real(-1.0, 1.0);
    if (comp == DataType::kFloat32) {
      t.as<float>()[i] = static_cast<float>(v);
    } else if (comp == DataType::kFloat64) {
      t.as<double>()[i] = v;
    } else {
      t.set_double(i, static_cast<double>(rng.uniform_int(-100, 100)));
    }
  }
  if (diagonally_dominant && t.shape().rank() == 2) {
    const int n = t.shape().dims[0];
    for (int i = 0; i < n; ++i) {
      const double bump = n + 1.0;
      if (comp == DataType::kFloat32) {
        t.as<float>()[i * n + i] += static_cast<float>(bump);
      } else if (comp == DataType::kFloat64) {
        t.as<double>()[i * n + i] += bump;
      }
    }
  }
}

/// Degraded-mode bookkeeping for one dropped candidate: warning log and the
/// failure record on the selection.
void drop_candidate(IntensiveSelection& result, const Actor& actor,
                    const std::string& impl_id, const char* reason,
                    const std::string& detail) {
  log_warn("synth") << "Algorithm 1: dropping candidate " << impl_id
                    << " for " << actor.type() << " '" << actor.name()
                    << "' (" << reason << "): " << detail;
  result.failures.push_back({impl_id, reason, detail});
}

/// Calls `impl` once, untimed, the first time this process races it, so no
/// warm-up screen sees first-call costs (cold code pages, first libm or
/// allocator use), which can be many times a warm call and screen out a
/// winner.  Once per process, not once per race.
void prime_once(const kernels::KernelImpl& impl,
                const std::vector<const Tensor*>& inputs, Tensor* output) {
  static obs::Counter& primed_metric =
      obs::Registry::instance().counter("synth.precalc.primed");
  static std::mutex mutex;
  static std::unordered_set<const kernels::KernelImpl*> primed;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!primed.insert(&impl).second) return;
  }
  primed_metric.add();
  kernels::run_kernel(impl, inputs, output);
}

}  // namespace

RaceResult race_candidates(std::size_t candidates,
                           const RaceMeasure& measure) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RaceResult race;
  race.lanes.resize(candidates);

  // (1) One warm-up call each: validates the kernel at this size, sizes its
  // timed samples and screens clear losers by CPU time.
  std::vector<CallTiming> warmups(candidates);
  double fastest_cpu = kInf;
  for (std::size_t i = 0; i < candidates; ++i) {
    const std::optional<CallTiming> warmup = measure(i, 1);
    if (!warmup) {
      race.lanes[i].failed = true;
      continue;
    }
    warmups[i] = *warmup;
    fastest_cpu = std::min(fastest_cpu, warmup->cpu_seconds);
  }
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < candidates; ++i) {
    RaceLane& lane = race.lanes[i];
    if (lane.failed) continue;
    if (fastest_cpu > 0.0 &&
        warmups[i].cpu_seconds > kScreenRatio * fastest_cpu) {
      lane.screened = true;
      lane.best_seconds = warmups[i].wall_seconds;
      continue;
    }
    const double wall = warmups[i].wall_seconds;
    lane.calls_per_sample =
        wall > 0.0 ? static_cast<int>(std::min<double>(
                         std::ceil(kMinSampleSeconds / wall),
                         kMaxCallsPerSample))
                   : kMaxCallsPerSample;
    survivors.push_back(i);
  }

  // (2) Rotating rounds over the survivors; a lane leaves when it fails,
  // when it is dropped, or when its samples have used the budget.
  std::vector<double> spent(candidates, 0.0);
  for (int round = 0; round < kRepetitions; ++round) {
    for (std::size_t k = 0; k < survivors.size(); ++k) {
      const std::size_t i = survivors[(round + k) % survivors.size()];
      RaceLane& lane = race.lanes[i];
      if (lane.failed || lane.dropped || spent[i] >= kMeasureBudgetSeconds) {
        continue;
      }
      const std::optional<CallTiming> sample =
          measure(i, lane.calls_per_sample);
      if (!sample) {
        lane.failed = true;
        continue;
      }
      spent[i] += sample->wall_seconds;
      lane.best_seconds = std::min(
          lane.best_seconds, sample->wall_seconds / lane.calls_per_sample);
      ++lane.samples;
    }
    double leader = kInf;
    for (std::size_t i : survivors) {
      const RaceLane& lane = race.lanes[i];
      if (!lane.failed && !lane.dropped) {
        leader = std::min(leader, lane.best_seconds);
      }
    }
    for (std::size_t i : survivors) {
      RaceLane& lane = race.lanes[i];
      if (!lane.failed && lane.samples >= 2 &&
          lane.best_seconds > kDropRatio * leader) {
        lane.dropped = true;
      }
    }
  }

  // (3) The fastest remaining survivor; candidate order breaks exact ties.
  for (std::size_t i : survivors) {
    const RaceLane& lane = race.lanes[i];
    if (lane.failed || lane.dropped) continue;
    if (race.winner < 0 ||
        lane.best_seconds < race.lanes[race.winner].best_seconds) {
      race.winner = static_cast<int>(i);
    }
  }
  return race;
}

std::vector<Tensor> generate_test_inputs(const Actor& actor,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const bool dominant = actor.type() == "MatInv" || actor.type() == "MatDet";
  std::vector<Tensor> inputs;
  for (const PortSpec& in : actor.inputs()) {
    Tensor t = make_tensor(in);
    fill_random(t, rng, dominant);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

IntensiveSelection select_implementation(const Actor& actor,
                                         SelectionHistory& history) {
  HCG_TRACE_SCOPE("synth.intensive");
  static obs::Counter& precalc_metric =
      obs::Registry::instance().counter("synth.precalc.runs");
  require(actor.is_resolved(), "select_implementation: unresolved actor");
  const DataType dtype = actor.input(0).type;
  const std::vector<Shape> shapes = input_shapes(actor);
  const kernels::CodeLibrary& library = kernels::CodeLibrary::instance();

  IntensiveSelection result;

  // Lines 3-6: preliminary lightweight search over the synthesis history.
  if (auto hit = history.lookup(actor.type(), dtype, shapes)) {
    const kernels::KernelImpl* impl = library.find(*hit, dtype);
    if (impl != nullptr && impl->can_handle(dtype, shapes)) {
      result.impl = impl;
      result.from_history = true;
      return result;
    }
    // A stale entry (library changed since it was stored): fall through to
    // a fresh pre-calculation, which will overwrite it.
  }
  precalc_metric.add();

  // Lines 7-8: load the code library and default to the general impl.
  std::vector<const kernels::KernelImpl*> impls =
      library.implementations(actor.type(), dtype);
  if (impls.empty()) {
    throw SynthesisError("no implementations for intensive actor type '" +
                         actor.type() + "' with element type " +
                         std::string(short_name(dtype)));
  }
  result.impl = &library.general_implementation(actor.type(), dtype);

  // Line 10: generateTestInput.
  const std::vector<Tensor> inputs =
      generate_test_inputs(actor, kTestInputSeed);
  std::vector<const Tensor*> input_ptrs;
  for (const Tensor& t : inputs) input_ptrs.push_back(&t);
  Tensor output = make_tensor(actor.output(0));

  // Lines 11-17: filter, measure, keep the cheapest.  A candidate that
  // fails — for real or through an armed precalc.measure fault — is dropped
  // with a warning instead of aborting the run (degraded mode).
  std::vector<const kernels::KernelImpl*> entrants;
  for (const kernels::KernelImpl* impl : impls) {
    if (!impl->can_handle(dtype, shapes)) continue;  // lines 12-13
    switch (faults::probe("precalc.measure", impl->id)) {
      case faults::Action::kNone:
        entrants.push_back(impl);
        break;
      case faults::Action::kFail:
        drop_candidate(result, actor, impl->id, "compile",
                       "injected candidate compile failure");
        break;
      case faults::Action::kTimeout:
        drop_candidate(result, actor, impl->id, "timeout",
                       "injected measurement timeout");
        break;
      default:  // kThrow / kTorn: a simulated candidate crash
        drop_candidate(result, actor, impl->id, "crash",
                       "injected candidate crash");
        break;
    }
  }
  const RaceResult race = race_candidates(
      entrants.size(),
      [&](std::size_t i, int calls) -> std::optional<CallTiming> {
        try {
          prime_once(*entrants[i], input_ptrs, &output);
          const double cpu_start = thread_cpu_seconds();
          Stopwatch wall;
          for (int call = 0; call < calls; ++call) {
            kernels::run_kernel(*entrants[i], input_ptrs, &output);
          }
          CallTiming timing;
          timing.wall_seconds = wall.elapsed_seconds();
          timing.cpu_seconds = thread_cpu_seconds() - cpu_start;
          return timing;
        } catch (const std::exception& e) {
          drop_candidate(result, actor, entrants[i]->id, "exception",
                         e.what());
          return std::nullopt;
        }
      });
  for (std::size_t i = 0; i < entrants.size(); ++i) {
    const RaceLane& lane = race.lanes[i];
    if (lane.failed) continue;
    result.measured_costs[entrants[i]->id] = lane.best_seconds;
    result.timed_samples[entrants[i]->id] = lane.samples;
  }
  if (race.winner >= 0) result.impl = entrants[race.winner];  // lines 15-17

  if (result.measured_costs.empty() && !result.failures.empty()) {
    // Every candidate that could handle the size failed: the general
    // implementation (already in result.impl since line 8) carries the run.
    result.degraded = true;
    log_warn("synth") << "Algorithm 1: all " << result.failures.size()
                      << " candidate(s) for " << actor.type() << " '"
                      << actor.name() << "' failed; falling back to reference "
                      << result.impl->id;
  }

  // Line 18: storeSelection.  A degraded fallback is deliberately not
  // memoized — the failure may be transient, and a poisoned warm cache
  // would silently pin the slow reference implementation forever.
  if (!result.degraded) {
    history.store(actor.type(), dtype, shapes, result.impl->id);
  }
  log_debug("synth") << "Algorithm 1: " << actor.type() << "/"
              << short_name(dtype) << " size " << shapes[0].to_string()
              << " -> " << result.impl->id;
  return result;
}

IntensiveSelection SelectionMemo::select(const Actor& actor,
                                         SelectionHistory& history) {
  // The name predates SelectionMemo (it counted a thread pool's dedup) and
  // stays because perfbench reads it.
  static obs::Counter& dedup_metric =
      obs::Registry::instance().counter("synth.pool.dedup_hits");
  require(actor.is_resolved(), "SelectionMemo: unresolved actor");
  const std::string key =
      selection_key(actor.type(), actor.input(0).type, input_shapes(actor));
  if (auto it = done_.find(key); it != done_.end()) {
    ++dedup_hits_;
    dedup_metric.add();
    IntensiveSelection result = it->second;
    result.deduped = true;
    return result;
  }
  IntensiveSelection result = select_implementation(actor, history);
  done_.emplace(key, result);
  return result;
}

}  // namespace hcg::synth
