#include "synth/intensive.hpp"

#include <limits>

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

/// Timed repetitions per candidate; the minimum is taken.
constexpr int kRepetitions = 3;
/// Per-candidate measurement budget: once the timed repetitions have used
/// this much wall clock the loop stops early (at least one repetition always
/// runs).  Long kernel runs are noise-robust, so extra repetitions would only
/// stretch code generation.
constexpr double kMeasureBudgetSeconds = 2e-3;
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

/// Degraded-mode bookkeeping for one dropped candidate: warning log, the
/// per-reason failure metrics, and the failure record on the selection.
void drop_candidate(IntensiveSelection& result, const Actor& actor,
                    const std::string& impl_id, const char* reason,
                    const std::string& detail) {
  static obs::Counter& failures_metric =
      obs::Registry::instance().counter("synth.precalc.candidate_failures");
  failures_metric.add();
  obs::Registry::instance()
      .counter(std::string("synth.precalc.candidate_failures.") + reason)
      .add();
  log_warn("synth") << "Algorithm 1: dropping candidate " << impl_id
                    << " for " << actor.type() << " '" << actor.name()
                    << "' (" << reason << "): " << detail;
  result.failures.push_back({impl_id, reason, detail});
}

}  // namespace

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
  static obs::Counter& stale_metric =
      obs::Registry::instance().counter("synth.history.stale");
  static obs::Counter& precalc_metric =
      obs::Registry::instance().counter("synth.precalc.runs");
  static obs::Counter& candidate_metric =
      obs::Registry::instance().counter("synth.precalc.candidates");
  static obs::Histogram& candidate_ns_metric =
      obs::Registry::instance().histogram("synth.precalc.candidate_ns");
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
    stale_metric.add();
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
  double min_cost = std::numeric_limits<double>::infinity();
  for (const kernels::KernelImpl* impl : impls) {
    if (!impl->can_handle(dtype, shapes)) continue;  // lines 12-13
    switch (faults::probe("precalc.measure", impl->id)) {
      case faults::Action::kNone:
        break;
      case faults::Action::kFail:
        drop_candidate(result, actor, impl->id, "compile",
                       "injected candidate compile failure");
        continue;
      case faults::Action::kTimeout:
        drop_candidate(result, actor, impl->id, "timeout",
                       "injected measurement timeout");
        continue;
      default:  // kThrow / kTorn: a simulated candidate crash
        drop_candidate(result, actor, impl->id, "crash",
                       "injected candidate crash");
        continue;
    }
    double best = std::numeric_limits<double>::infinity();
    try {
      // Warm-up run (also validates the kernel doesn't blow up on this
      // size).
      kernels::run_kernel(*impl, input_ptrs, &output);
      Stopwatch budget;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        Stopwatch timer;
        kernels::run_kernel(*impl, input_ptrs, &output);
        best = std::min(best, timer.elapsed_seconds());
        if (budget.elapsed_seconds() >= kMeasureBudgetSeconds) {
          break;  // slow kernel: one long run is already noise-robust
        }
      }
    } catch (const std::exception& e) {
      drop_candidate(result, actor, impl->id, "exception", e.what());
      continue;
    }
    result.measured_costs[impl->id] = best;
    candidate_metric.add();
    candidate_ns_metric.observe(best * 1e9);
    if (best < min_cost) {  // lines 15-17
      min_cost = best;
      result.impl = impl;
    }
  }

  if (result.measured_costs.empty() && !result.failures.empty()) {
    // Every candidate that could handle the size failed: the general
    // implementation (already in result.impl since line 8) carries the run.
    static obs::Counter& fallback_metric =
        obs::Registry::instance().counter("synth.precalc.fallbacks");
    fallback_metric.add();
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
