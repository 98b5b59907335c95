#include "analysis/diagnostics.hpp"

#include "support/error.hpp"

namespace hcg::analysis {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kRemark:
      return "remark";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

const std::vector<DiagnosticRule>& diagnostic_rules() {
  static const std::vector<DiagnosticRule> rules = {
      // ---- HCG1xx: model structure -------------------------------------
      {"HCG101", "unknown-actor-type",
       "actor type is not in the actor catalog", Severity::kError},
      {"HCG102", "unconnected-input",
       "actor input port has no incoming connection", Severity::kError},
      {"HCG103", "invalid-port",
       "connection references a port the actor type does not have",
       Severity::kError},
      {"HCG104", "dead-actor",
       "actor output feeds nothing and is never observed", Severity::kWarning},
      {"HCG105", "delay-free-cycle",
       "dependency cycle with no UnitDelay on it", Severity::kError},
      {"HCG106", "no-outport",
       "model has no Outport; generated step() computes nothing observable",
       Severity::kWarning},
      {"HCG110", "isa-width-mismatch",
       "a vtype's lanes x element size disagrees with the table's declared "
       "register width",
       Severity::kError},
      {"HCG111", "isa-duplicate-entry",
       "an .isa table declares the same vtype/load/store/op entry twice",
       Severity::kError},

      // ---- HCG2xx: graph / type resolution -----------------------------
      {"HCG201", "width-mismatch",
       "operand shapes (element counts) disagree at an actor",
       Severity::kError},
      {"HCG202", "dtype-mismatch",
       "operand element types disagree at an actor", Severity::kError},
      {"HCG203", "invalid-actor",
       "actor rejected by port/type resolution", Severity::kError},

      // ---- HCG3xx: cgir verifier ----------------------------------------
      {"HCG301", "buffer-out-of-bounds",
       "elementwise access exceeds the buffer's declared extent",
       Severity::kError},
      {"HCG302", "duplicate-local",
       "two statements in one scope define the same local", Severity::kError},
      {"HCG303", "loop-coverage",
       "vector/remainder loop pair does not cover the region width exactly",
       Severity::kError},
      {"HCG304", "undefined-local",
       "statement stores a local no earlier statement defined",
       Severity::kError},
      {"HCG305", "unknown-buffer",
       "access references a buffer that is neither declared nor a step local",
       Severity::kError},
      {"HCG306", "const-write",
       "statement writes a buffer declared const", Severity::kError},
      {"HCG307", "duplicate-buffer",
       "two buffer declarations share one name", Severity::kError},
      {"HCG308", "arena-overlap",
       "arena rebinding put two live ranges in one slot that overlap in time",
       Severity::kError},
      {"HCG309", "strip-coverage",
       "strip-mined lane loop does not cover exactly one stride of its "
       "outer loop",
       Severity::kError},
      {"HCG310", "predicated-coverage",
       "predicated loop does not cover exactly [0, n) by itself, or sits "
       "next to a scalar remainder it makes redundant",
       Severity::kError},

      // ---- HCG4xx: vectorization remarks --------------------------------
      {"HCG400", "region-vectorized",
       "batch region will be implemented with SIMD instructions",
       Severity::kNote},
      {"HCG401", "region-too-short",
       "array length is below one vector register, Algorithm 2 declines",
       Severity::kRemark},
      {"HCG402", "region-below-threshold",
       "region node count is below the --threshold floor", Severity::kRemark},
      {"HCG403", "lane-mismatch",
       "ISA offers no uniform lane count for the region's element types",
       Severity::kRemark},
      {"HCG404", "mixed-width-chain",
       "element bit-width changes inside a batch chain, splitting the region",
       Severity::kRemark},
      {"HCG405", "scale-mismatch",
       "array lengths change inside a batch chain, splitting the region",
       Severity::kRemark},
      {"HCG406", "non-batch-split",
       "a non-batch actor interrupts a batch chain", Severity::kRemark},
      {"HCG407", "no-simd-op",
       "the ISA has no single-instruction implementation for this op/type",
       Severity::kRemark},
      {"HCG408", "fused-across-scale",
       "-O2 strip-mined a scalar loop into an adjacent vector loop's shape "
       "and fused the pair",
       Severity::kRemark},
      {"HCG411", "region-narrowed",
       "proven value ranges let a batch region run at a narrower element "
       "type with more SIMD lanes",
       Severity::kRemark},
      {"HCG412", "narrowing-blocked",
       "a batch region would narrow but the value range could not be proven "
       "to fit the narrower type",
       Severity::kRemark},
      {"HCG413", "narrowing-unsupported",
       "a batch region's value ranges fit a narrower type, but the ISA has "
       "no instruction for one of its ops at that type",
       Severity::kRemark},

      // ---- HCG5xx: runtime profiling (docs/PROFILING.md) ----------------
      {"HCG501", "costmodel-mispredict",
       "measured runtime of a profiled site deviates from Algorithm 1's "
       "selection-time cost beyond the error threshold",
       Severity::kRemark},
      {"HCG502", "profile-degraded",
       "runtime profiling could not run; the report has no runtime_profile "
       "section",
       Severity::kWarning},

      // ---- HCG6xx: value-range analysis (src/analysis/range.hpp) --------
      {"HCG601", "possible-signed-overflow",
       "a signed integer result range provably exceeds its element type; "
       "values wrap at runtime",
       Severity::kWarning},
      {"HCG602", "possible-division-by-zero",
       "a divisor's value range contains zero", Severity::kWarning},
      {"HCG603", "lossy-narrowing-cast",
       "a cast input's value range does not fit the target type",
       Severity::kWarning},
      {"HCG604", "dead-switch-branch",
       "a Switch control range proves one data input is never selected",
       Severity::kRemark},
      {"HCG605", "constant-foldable",
       "an actor's output is provably a single constant; the subgraph "
       "feeding it can be folded at generation time",
       Severity::kRemark},
  };
  return rules;
}

const DiagnosticRule* find_rule(std::string_view code) {
  for (const DiagnosticRule& rule : diagnostic_rules()) {
    if (rule.code == code) return &rule;
  }
  return nullptr;
}

void DiagnosticEngine::add(Diagnostic diag) {
  if (werror_ && diag.severity == Severity::kWarning) {
    diag.severity = Severity::kError;
  }
  diags_.push_back(std::move(diag));
}

namespace {

Diagnostic make(std::string_view code, Severity severity, std::string location,
                std::string message) {
  require(find_rule(code) != nullptr,
          "diagnostic code '" + std::string(code) + "' is not registered");
  Diagnostic diag;
  diag.code = std::string(code);
  diag.severity = severity;
  diag.location = std::move(location);
  diag.message = std::move(message);
  return diag;
}

}  // namespace

void DiagnosticEngine::note(std::string_view code, std::string location,
                            std::string message) {
  add(make(code, Severity::kNote, std::move(location), std::move(message)));
}

void DiagnosticEngine::remark(std::string_view code, std::string location,
                              std::string message) {
  add(make(code, Severity::kRemark, std::move(location), std::move(message)));
}

void DiagnosticEngine::warning(std::string_view code, std::string location,
                               std::string message) {
  add(make(code, Severity::kWarning, std::move(location), std::move(message)));
}

void DiagnosticEngine::error(std::string_view code, std::string location,
                             std::string message) {
  add(make(code, Severity::kError, std::move(location), std::move(message)));
}

int DiagnosticEngine::count(Severity severity) const {
  int n = 0;
  for (const Diagnostic& diag : diags_) {
    if (diag.severity == severity) ++n;
  }
  return n;
}

std::string DiagnosticEngine::render(std::string_view subject) const {
  std::string out;
  for (const Diagnostic& diag : diags_) {
    out += subject;
    if (!diag.location.empty()) {
      out += ": ";
      out += diag.location;
    }
    out += ": ";
    out += severity_name(diag.severity);
    out += " ";
    out += diag.code;
    out += ": ";
    out += diag.message;
    out += "\n";
  }
  if (!diags_.empty()) {
    out += std::string(subject) + ": " + summary() + "\n";
  }
  return out;
}

std::string DiagnosticEngine::summary() const {
  const struct {
    Severity severity;
    const char* singular;
    const char* plural;
  } kinds[] = {
      {Severity::kError, "error", "errors"},
      {Severity::kWarning, "warning", "warnings"},
      {Severity::kRemark, "remark", "remarks"},
      {Severity::kNote, "note", "notes"},
  };
  std::string out;
  for (const auto& kind : kinds) {
    const int n = count(kind.severity);
    if (n == 0) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(n) + " " + (n == 1 ? kind.singular : kind.plural);
  }
  return out.empty() ? "no findings" : out;
}

}  // namespace hcg::analysis
