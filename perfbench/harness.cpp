#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "fuzz/differential.hpp"
#include "isa/builtin.hpp"
#include "model/loader.hpp"
#include "obs/metrics.hpp"
#include "reference.hpp"
#include "vm/interpreter.hpp"

namespace perfbench {

using namespace hcg;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Oracle steps per check: the second step runs on the delay state the
/// first one left, so a wrong state update shows.
constexpr int kOracleSteps = 2;

}  // namespace

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

double paired_ratio(const std::vector<double>& num,
                    const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < num.size() && i < den.size(); ++i) {
    if (std::isnan(num[i]) || std::isnan(den[i])) continue;
    ratios.push_back(num[i] / den[i]);
  }
  return ratios.empty() ? std::nan("") : median(std::move(ratios));
}

// ---- failure accounting ----------------------------------------------------

void Ledger::fail(std::string_view what, std::string_view why) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "FAIL %.*s: %.*s\n", static_cast<int>(what.size()),
               what.data(), static_cast<int>(why.size()), why.data());
}

void Ledger::wrong(std::string_view what, std::string_view why) {
  correct = false;
  fail(what, why);
}

// ---- results ---------------------------------------------------------------

void Results::add(std::string name, double value, std::string unit,
                  std::string detail) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(detail)});
}

void Results::not_applicable(std::string name, std::string reason) {
  skipped_.emplace_back(std::move(name), std::move(reason));
}

void Results::print(const Ledger& ledger) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  for (const auto& [name, reason] : skipped_) {
    std::printf("metric %-32s %14s %-6s %s\n", name.c_str(), "n/a", "",
                reason.c_str());
  }
  std::printf("fail_frac %.6g (%d of %d attempted)\n", ledger.fail_frac(),
              ledger.failed, ledger.attempted);
  std::string json = "{\"correct\": ";
  json += ledger.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- compiled cells --------------------------------------------------------

std::string_view cell_name(CellKind kind) {
  switch (kind) {
    case CellKind::kHcgO2: return "hcg_o2";
    case CellKind::kHcgO1: return "hcg_o1";
    case CellKind::kHcgAvx2: return "hcg_avx2";
    case CellKind::kSimulink: return "simulink";
    case CellKind::kDfsynth: return "dfsynth";
    case CellKind::kHcgO2Prof: return "hcg_o2_prof";
  }
  return "?";
}

bool is_baseline(CellKind kind) {
  return kind == CellKind::kSimulink || kind == CellKind::kDfsynth;
}

const Cell* Case::find(CellKind kind, int draw) const {
  for (const Cell& cell : cells) {
    if (cell.kind == kind && cell.draw == draw) return &cell;
  }
  return nullptr;
}

std::unique_ptr<Case> make_case(Model model, std::uint64_t seed, int draws,
                                SetupCost& cost) {
  auto c = std::make_unique<Case>(resolved(std::move(model)), draws);
  c->inputs = benchmodels::workload(c->model, seed);
  for (const Tensor& t : c->inputs) c->in_ptrs.push_back(t.data());
  for (ActorId id : c->model.outports()) {
    c->outputs.push_back(make_tensor(c->model.actor(id).input(0)));
  }
  for (Tensor& t : c->outputs) c->out_ptrs.push_back(t.data());

  const Clock::time_point start = Clock::now();
  Interpreter oracle(c->model);
  oracle.init();
  for (int k = 0; k < kOracleSteps; ++k) {
    c->expected.push_back(oracle.step(c->inputs));
  }
  cost.oracle_ms += ms_since(start);
  return c;
}

namespace {

std::unique_ptr<codegen::Generator> make_generator(
    CellKind kind, synth::SelectionHistory& history) {
  switch (kind) {
    case CellKind::kHcgO2:
      return codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                         {}, 2);
    case CellKind::kHcgO1:
      return codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                         {}, 1);
    case CellKind::kHcgAvx2:
      return codegen::make_hcg_generator(isa::builtin("avx2"), &history, {},
                                         2);
    case CellKind::kSimulink:
      return codegen::make_simulink_generator();
    case CellKind::kDfsynth:
      return codegen::make_dfsynth_generator();
    case CellKind::kHcgO2Prof:
      return codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                         {}, 2, /*profile_gen=*/true);
  }
  return nullptr;
}

/// Steps a freshly initialized binary through the oracle's steps; records a
/// disagreement in `ledger` and returns false on the first mismatch.
bool agrees_with_oracle(const Case& c, toolchain::CompiledModel& bin,
                        const std::string& what, Ledger& ledger) {
  bin.init();
  for (int k = 0; k < kOracleSteps; ++k) {
    std::vector<Tensor> got = bin.step_tensors(c.model, c.inputs);
    for (std::size_t i = 0; i < got.size(); ++i) {
      std::string why;
      if (!fuzz::tensors_close(c.expected[k][i], got[i], &why)) {
        ledger.wrong(what, "disagrees with the oracle at step " +
                               std::to_string(k) + ", outport " +
                               std::to_string(i) + ": " + why);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void build_cells(const std::vector<CellRequest>& requests, int jobs,
                 Ledger& ledger, SetupCost& cost) {
  struct Pending {
    Case* c;
    Cell cell;
    std::string what;
    std::string error;
  };
  std::vector<Pending> pending;
  Clock::time_point start = Clock::now();
  for (const CellRequest& request : requests) {
    Pending p{request.c, Cell{},
              request.c->model.name() + "/" +
                  std::string(cell_name(request.kind)) + "#" +
                  std::to_string(request.draw),
              {}};
    p.cell.kind = request.kind;
    p.cell.draw = request.draw;
    try {
      p.cell.code =
          make_generator(request.kind, request.c->histories[request.draw])
              ->generate(request.c->model);
    } catch (const std::exception& e) {
      ledger.fail(p.what, e.what());
      continue;
    }
    pending.push_back(std::move(p));
  }
  cost.codegen_ms += ms_since(start);

  // The C compiles are independent processes; run up to `jobs` at once.
  start = Clock::now();
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < std::max(1, jobs); ++w) {
      workers.emplace_back([&pending, &next] {
        for (std::size_t i = next++; i < pending.size(); i = next++) {
          Pending& p = pending[i];
          try {
            toolchain::CompileOptions options;
            options.opt_flags = "-O2";
            if (p.cell.kind == CellKind::kHcgO2Prof) {
              options.extra_flags.push_back("-DHCG_PROF");
            }
            p.cell.bin =
                std::make_unique<toolchain::CompiledModel>(p.cell.code, options);
          } catch (const std::exception& e) {
            p.error = e.what();
          }
        }
      });
    }
  }
  cost.cc_ms += ms_since(start);

  for (Pending& p : pending) {
    if (!p.error.empty()) {
      ledger.fail(p.what, p.error);
      continue;
    }
    if (agrees_with_oracle(*p.c, *p.cell.bin, p.what, ledger)) {
      ledger.ok();
      p.c->cells.push_back(std::move(p.cell));
    }
  }
}

bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

/// Seconds one call of `fn` takes: the fastest of three.
template <typename Fn>
double fastest_call_s(Fn&& fn) {
  double once_s = 1e30;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    once_s = std::min(
        once_s, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return once_s;
}

int batch_for(double sample_s, double once_s) {
  return static_cast<int>(
      std::clamp(std::ceil(sample_s / std::max(once_s, 1e-9)), 1.0, 1e6));
}

}  // namespace

StepTimer::StepTimer(std::vector<std::unique_ptr<Case>>& cases,
                     double sample_s) {
  for (auto& c : cases) {
    cases_.push_back(c.get());
    for (Cell& cell : c->cells) {
      cell.bin->init();
      cell.batch = batch_for(sample_s, fastest_call_s([&] {
                               cell.bin->step(c->in_ptrs, c->out_ptrs);
                             }));
    }
  }
  ref_batch_ = batch_for(sample_s, fastest_call_s(reference_step));
}

double StepTimer::reference_sample_ns() const {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < ref_batch_; ++i) reference_step();
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         ref_batch_;
}

void StepTimer::run_block(double budget_s) {
  if (cases_.empty()) return;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  do {
    for (std::size_t k = 0; k < cases_.size(); ++k) {
      Case& c = *cases_[(round_ + k) % cases_.size()];
      const double ref_ns = reference_sample_ns();
      for (std::size_t j = 0; j < c.cells.size(); ++j) {
        Cell& cell = c.cells[(round_ + j) % c.cells.size()];
        // Every sample starts from the initial state, so delay feedback
        // cannot drift the values (and the cost) over a long run.
        cell.bin->init();
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < cell.batch; ++i) {
          cell.bin->step(c.in_ptrs, c.out_ptrs);
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
        cell.samples_ns.push_back(ns / cell.batch);
        cell.ref_ns.push_back(ref_ns);
      }
    }
    ++round_;
  } while (Clock::now() < deadline);
}

// ---- codegen sampling --------------------------------------------------------

CodegenSampler::CodegenSampler(const std::vector<std::string>& xml_models)
    : xml_models_(xml_models) {
  stats_.cold_ms.resize(xml_models.size());
  stats_.warm_ms.resize(xml_models.size());
  stats_.ref_ms.resize(xml_models.size());
}

void CodegenSampler::run_block(double budget_s, Ledger& ledger) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  do {
    run_pass(ledger);
  } while (Clock::now() < deadline);
}

void CodegenSampler::run_pass(Ledger& ledger) {
  obs::Counter& precalc = obs::Registry::instance().counter("synth.precalc.runs");
  obs::Counter& dedup =
      obs::Registry::instance().counter("synth.pool.dedup_hits");
  const isa::VectorIsa& neon = isa::builtin("neon_sim");

  CodegenStats& stats = stats_;
  const bool first = passes_++ == 0;
  for (std::size_t m = 0; m < xml_models_.size(); ++m) {
    const std::string what = "codegen#" + std::to_string(m);
    Clock::time_point start = Clock::now();
    reference_codegen();
    stats.ref_ms[m].push_back(ms_since(start));
    try {
      // Cold: load + generate with an empty history, so Algorithm 1
      // measures its candidates and fills it.
      synth::SelectionHistory history;
      const std::uint64_t precalc_before = precalc.value();
      const std::uint64_t dedup_before = dedup.value();
      start = Clock::now();
      Model model = load_model(xml_models_[m]);
      const double load_ms = ms_since(start);
      codegen::GeneratedCode code =
          codegen::make_hcg_generator(neon, &history, {}, 2)
              ->generate(model);
      const double cold_ms = ms_since(start);
      stats.cold_ms[m].push_back(cold_ms);
      ++stats.cold_samples;
      stats.load_ms += load_ms;
      stats.generate_ms += cold_ms - load_ms;
      for (const obs::ReportPhase& phase : code.report.phases) {
        stats.phase_ms[phase.name] += phase.ms;
      }
      if (first) {
        const obs::Report& r = code.report;
        stats.precalc_runs +=
            static_cast<double>(precalc.value() - precalc_before);
        stats.dedup_hits += static_cast<double>(dedup.value() - dedup_before);
        for (const obs::ReportIntensive& choice : r.intensive) {
          for (const obs::ReportCandidate& cand : choice.candidates) {
            stats.candidate_ms += cand.ms;
          }
        }
        stats.code_bytes += static_cast<double>(code.source.size());
        stats.static_buffer_bytes +=
            static_cast<double>(code.static_buffer_bytes);
        stats.fused_regions += code.fused_regions;
        stats.simd_instructions +=
            static_cast<double>(code.simd_instructions.size());
        for (const obs::ReportRegion& region : r.regions) {
          stats.region_nodes += region.nodes;
          if (region.used_simd) stats.simd_region_nodes += region.nodes;
        }
        stats.regions_narrowed += r.regions_narrowed;
        stats.loops_fused += r.loops_fused;
        stats.copies_elided += r.copies_elided;
        stats.cross_scale_fused += r.cross_scale_fused;
        stats.loops_tiled += r.loops_tiled;
        stats.strips_localized += r.strips_localized;
        stats.arena_bytes_saved += static_cast<double>(r.arena_bytes_saved);
      }

      // Warm: the same with the history the cold run filled, so
      // Algorithm 1 only reads it.
      history.reset_stats();
      start = Clock::now();
      Model warm_model = load_model(xml_models_[m]);
      codegen::GeneratedCode warm =
          codegen::make_hcg_generator(neon, &history, {}, 2)
              ->generate(warm_model);
      stats.warm_ms[m].push_back(ms_since(start));
      if (first) {
        stats.warm_lookups +=
            static_cast<double>(history.hits() + history.misses());
        stats.warm_hits += static_cast<double>(history.hits());
      }
      ledger.ok();
      ledger.ok();
    } catch (const std::exception& e) {
      ledger.fail(what, e.what());
      // Keep one entry per pass, so samples stay aligned with passes.
      const auto passes_so_far = static_cast<std::size_t>(passes_);
      stats.cold_ms[m].resize(passes_so_far, std::nan(""));
      stats.warm_ms[m].resize(passes_so_far, std::nan(""));
    }
  }
}

}  // namespace perfbench
