#include "fuzz/differential.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "actors/resolve.hpp"
#include "analysis/range.hpp"
#include "analysis/verifier.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg::fuzz {

namespace {

std::unique_ptr<codegen::Generator> make_variant_tool(const Variant& v) {
  if (v.tool == "hcg") {
    return codegen::make_hcg_generator(isa::builtin(v.isa), nullptr, {},
                                       v.opt_level);
  }
  if (v.tool == "simulink") return codegen::make_simulink_generator();
  if (v.tool == "simulink-sc") {
    return codegen::make_simulink_generator(&isa::builtin(v.isa));
  }
  if (v.tool == "dfsynth") return codegen::make_dfsynth_generator();
  throw InternalError("fuzz: unknown variant tool '" + v.tool + "'");
}

/// Runs one matrix cell.  `fault_spec` non-empty marks a harness-armed
/// degraded-mode sweep, where clean hcg::Error failures are the contract
/// being *met*, not a finding.  `ambient_faults` marks env-armed sabotage
/// (the armed-miscompile drill), where every abnormality is a finding.
std::optional<Finding> run_variant(
    const Model& m, const Variant& variant, std::uint64_t seed,
    const std::vector<std::vector<Tensor>>& inputs,
    const std::vector<std::vector<Tensor>>& expected,
    const std::string& fault_spec) {
  auto finding = [&](Outcome outcome, std::string detail) {
    Finding f;
    f.seed = seed;
    f.variant = variant;
    f.outcome = outcome;
    f.detail = std::move(detail);
    f.fault_spec = fault_spec;
    f.signature = failure_signature(outcome, variant, f.detail, fault_spec);
    return f;
  };
  const bool tolerate_clean_errors = !fault_spec.empty();
  try {
    auto tool = make_variant_tool(variant);
    codegen::GeneratedCode code = tool->generate(m);
    toolchain::CompiledModel compiled(code);
    compiled.init();
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      std::vector<Tensor> got = compiled.step_tensors(m, inputs[k]);
      for (std::size_t i = 0; i < got.size(); ++i) {
        std::string why;
        if (!tensors_close(expected[k][i], got[i], &why)) {
          return finding(Outcome::kDivergence,
                         "outport " + std::to_string(i) + " step " +
                             std::to_string(k) + ": " + why);
        }
      }
    }
    return std::nullopt;
  } catch (const CodegenError& e) {
    if (tolerate_clean_errors) return std::nullopt;
    return finding(Outcome::kVerifierReject, e.what());
  } catch (const Error& e) {
    if (tolerate_clean_errors) return std::nullopt;
    return finding(Outcome::kError, e.what());
  } catch (const std::exception& e) {
    // Even a harness-armed sweep must not see exceptions from outside the
    // hcg::Error hierarchy — that is a crash, not a clean degraded path.
    return finding(Outcome::kError, e.what());
  }
}

/// Interval-soundness cross-check (docs/ANALYSIS.md): every component the
/// oracle just produced must lie inside the interval analyze_ranges
/// predicted for that wire.  `corrupt` — set when the analysis.range fault
/// probe is armed — collapses every predicted interval to an empty one, so
/// the sweep can prove this check actually fires.
std::optional<std::string> range_escape(const Model& m,
                                        const analysis::RangeAnalysis& ranges,
                                        const Interpreter& oracle, int step,
                                        bool corrupt) {
  for (const Actor& actor : m.actors()) {
    for (int port = 0; port < actor.output_count(); ++port) {
      const analysis::Interval* predicted = ranges.find(actor.id(), port);
      if (predicted == nullptr) continue;
      analysis::Interval bound = *predicted;
      if (corrupt) bound = analysis::Interval{1.0, -1.0};  // empty
      const Tensor& t = oracle.value(actor.id(), port);
      const bool f32 = component_type(t.type()) == DataType::kFloat32;
      const int components =
          is_complex(t.type()) ? t.elements() * 2 : t.elements();
      for (int i = 0; i < components; ++i) {
        double v;
        if (is_complex(t.type()) || is_float(t.type())) {
          v = f32 ? t.as<float>()[i] : t.as<double>()[i];
        } else {
          v = t.get_double(i);
        }
        if (std::isnan(v)) continue;  // NaN has no order; intervals bound
                                      // only the ordered values
        if (bound.contains(v)) continue;
        return "actor '" + actor.name() + "' port " + std::to_string(port) +
               " step " + std::to_string(step) + " element " +
               std::to_string(i) + ": oracle value " + std::to_string(v) +
               " escaped predicted " + bound.to_string();
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kAgreed: return "agreed";
    case Outcome::kDivergence: return "divergence";
    case Outcome::kVerifierReject: return "verifier-reject";
    case Outcome::kError: return "error";
    case Outcome::kGeneratorBug: return "generator-bug";
    case Outcome::kRangeUnsound: return "range-unsound";
  }
  return "unknown";
}

std::string Variant::label() const {
  std::string out = tool;
  if (!isa.empty()) out += "/" + isa;
  out += "/O" + std::to_string(opt_level);
  return out;
}

std::vector<Variant> variant_matrix(const HarnessConfig& config) {
  std::vector<Variant> matrix;
  for (const std::string& isa : config.isas) {
    for (int level : config.opt_levels) {
      matrix.push_back(Variant{"hcg", isa, level});
    }
  }
  if (config.baselines) {
    matrix.push_back(Variant{"simulink", "", 0});
    matrix.push_back(Variant{"dfsynth", "", 0});
    for (const std::string& isa : config.isas) {
      matrix.push_back(Variant{"simulink-sc", isa, 0});
    }
  }
  return matrix;
}

std::string failure_signature(Outcome outcome, const Variant& variant,
                              std::string_view detail,
                              std::string_view fault_spec) {
  std::string sig = std::string(outcome_name(outcome));
  sig += ':';
  sig += variant.label();
  if (!fault_spec.empty()) {
    sig += ":";
    sig += fault_spec;
  }
  if (outcome == Outcome::kVerifierReject) {
    // "... after pass 'fuse_loops': ..." — the pass name is structural and
    // survives minimization; the rest of the message embeds buffer/actor
    // names that do not.
    const std::string_view marker = "after pass '";
    const std::size_t at = detail.find(marker);
    if (at != std::string_view::npos) {
      const std::size_t begin = at + marker.size();
      const std::size_t end = detail.find('\'', begin);
      if (end != std::string_view::npos) {
        sig += ":";
        sig += detail.substr(begin, end - begin);
      }
    }
  }
  return sig;
}

bool tensors_close(const Tensor& expected, const Tensor& got,
                   std::string* why) {
  if (expected.type() != got.type() || !(expected.shape() == got.shape())) {
    if (why != nullptr) *why = "type/shape mismatch";
    return false;
  }
  if (is_integer(expected.type())) {
    if (expected.bytes_equal(got)) return true;
    for (int i = 0; i < expected.elements(); ++i) {
      if (expected.get_int(i) != got.get_int(i)) {
        if (why != nullptr) {
          *why = "element " + std::to_string(i) + ": expected " +
                 std::to_string(expected.get_int(i)) + ", got " +
                 std::to_string(got.get_int(i));
        }
        return false;
      }
    }
    return true;
  }
  // Float / complex: absolute floor plus a relative band scaled by the
  // largest expected magnitude — reassociation, fp contraction, and
  // different-but-correct summation orders in intensive kernels are not
  // miscompiles, while corruption (zeroed/garbage lanes) blows well past
  // this for the bounded values the generator produces.
  const int components =
      is_complex(expected.type()) ? expected.elements() * 2
                                  : expected.elements();
  const bool f32 = component_type(expected.type()) == DataType::kFloat32;
  double max_mag = 0.0;
  for (int i = 0; i < components; ++i) {
    const double a = f32 ? expected.as<float>()[i] : expected.as<double>()[i];
    if (std::isfinite(a)) max_mag = std::max(max_mag, std::fabs(a));
  }
  const double tol = 1e-2 + 1e-3 * max_mag;
  for (int i = 0; i < components; ++i) {
    const double a = f32 ? expected.as<float>()[i] : expected.as<double>()[i];
    const double b = f32 ? got.as<float>()[i] : got.as<double>()[i];
    if (std::isnan(a) && std::isnan(b)) continue;
    if (!std::isfinite(a) || !std::isfinite(b)) {
      if (a == b) continue;
    } else if (std::fabs(a - b) <= tol) {
      continue;
    }
    if (why != nullptr) {
      *why = "component " + std::to_string(i) + ": expected " +
             std::to_string(a) + ", got " + std::to_string(b) +
             " (tol " + std::to_string(tol) + ")";
    }
    return false;
  }
  return true;
}

std::vector<Finding> check_model(const Model& model, std::uint64_t seed,
                                 const HarnessConfig& config,
                                 int* variants_run) {
  std::vector<Finding> findings;
  Model m("empty");
  try {
    m = resolved(model);
  } catch (const Error& e) {
    Finding f;
    f.seed = seed;
    f.outcome = Outcome::kGeneratorBug;
    f.detail = e.what();
    f.variant = Variant{"resolve", "", 0};
    f.signature =
        failure_signature(f.outcome, f.variant, f.detail, f.fault_spec);
    findings.push_back(std::move(f));
    return findings;
  }

  // The range analysis runs once per model; its predictions are then
  // cross-checked against every value the oracle produces below.  A model it
  // refuses to analyze is itself a finding — lint and narrowing both depend
  // on it accepting anything that resolves.
  analysis::RangeAnalysis ranges;
  bool ranges_ok = false;
  try {
    ranges = analysis::analyze_ranges(m, nullptr);
    ranges_ok = true;
  } catch (const Error& e) {
    Finding f;
    f.seed = seed;
    f.outcome = Outcome::kError;
    f.detail = e.what();
    f.variant = Variant{"range", "", 0};
    f.signature =
        failure_signature(f.outcome, f.variant, f.detail, f.fault_spec);
    findings.push_back(std::move(f));
  }
  const bool corrupt_ranges =
      faults::probe("analysis.range", m.name()) != faults::Action::kNone;

  const int steps = std::max(1, config.steps);
  std::vector<std::vector<Tensor>> inputs, expected;
  Interpreter oracle(m);
  oracle.init();
  bool range_reported = false;
  for (int k = 0; k < steps; ++k) {
    inputs.push_back(
        benchmodels::workload(m, seed * 131 + static_cast<std::uint64_t>(k)));
    expected.push_back(oracle.step(inputs.back()));
    if (!ranges_ok || range_reported) continue;
    if (auto why = range_escape(m, ranges, oracle, k, corrupt_ranges)) {
      Finding f;
      f.seed = seed;
      f.variant = Variant{"range", "", 0};
      f.outcome = Outcome::kRangeUnsound;
      f.detail = std::move(*why);
      f.signature =
          failure_signature(f.outcome, f.variant, f.detail, f.fault_spec);
      findings.push_back(std::move(f));
      range_reported = true;  // one per seed; later steps repeat the story
    }
  }

  int cells = 0;
  for (const Variant& variant : variant_matrix(config)) {
    ++cells;
    if (auto f = run_variant(m, variant, seed, inputs, expected, "")) {
      findings.push_back(std::move(*f));
    }
  }

  // Degraded-mode sweep: one site at a time, against the most-optimized hcg
  // cell.  Skipped when the environment armed its own faults (the two rule
  // sets would clobber each other) and restored from the environment after.
  if (config.sweep_faults && !faults::Registry::instance().active() &&
      !config.isas.empty()) {
    Variant cell{"hcg", config.isas.front(), 2};
    if (!config.opt_levels.empty()) cell.opt_level = config.opt_levels.back();
    for (const faults::SiteInfo& site : faults::site_catalog()) {
      // cgir.pass corrupts the IR *by design*; silent wrong output is the
      // expected result unless the verifier is on to catch it.
      if (site.site == "cgir.pass" && !analysis::verify_env_enabled()) continue;
      const std::string spec = std::string(site.site) + "=fail";
      faults::Registry::instance().configure(spec);
      ++cells;
      auto f = run_variant(m, cell, seed, inputs, expected, spec);
      faults::Registry::instance().configure_from_env();
      if (f) findings.push_back(std::move(*f));
    }
  }

  if (variants_run != nullptr) *variants_run += cells;
  return findings;
}

SeedResult run_seed(std::uint64_t seed, const HarnessConfig& config) {
  SeedResult result;
  result.seed = seed;
  Model model = generate_model(seed, config.generator);
  result.findings = check_model(model, seed, config, &result.variants_run);
  return result;
}

}  // namespace hcg::fuzz
