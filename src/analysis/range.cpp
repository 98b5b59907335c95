#include "analysis/range.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "actors/batch_op.hpp"
#include "actors/catalog.hpp"
#include "actors/exec.hpp"
#include "model/schedule.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Above this magnitude a double no longer represents every integer, so
/// integer interval endpoints must be rounded outward by one ulp.
constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53

double round_down(double v) {
  if (std::isfinite(v) && std::fabs(v) >= kExactIntLimit) {
    return std::nextafter(v, -kInf);
  }
  return v;
}

double round_up(double v) {
  if (std::isfinite(v) && std::fabs(v) >= kExactIntLimit) {
    return std::nextafter(v, kInf);
  }
  return v;
}

std::string actor_loc(const Actor& actor) {
  return "actor '" + actor.name() + "' (" + actor.type() + ")";
}

/// Formats a bound: integers without a fraction, everything else with
/// enough digits to be unambiguous.
std::string bound_string(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < kExactIntLimit) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream out;
  out.precision(9);
  out << v;
  return out.str();
}

// ---- float outward rounding -----------------------------------------------

/// The oracle computes in f32/f64 while the analysis computes in double, so
/// every float bound gets a relative-epsilon band (scaled by `terms`, the
/// number of accumulated operations, for intensive reductions), an absolute
/// floor for results near zero, a flush-to-zero guard, and ±inf saturation
/// where an f32 op would overflow to infinity at runtime.
Interval inflate_float(Interval r, DataType type, double terms = 1.0) {
  const bool f32 = component_type(type) == DataType::kFloat32;
  const double rel = (f32 ? 1e-5 : 1e-12) * std::max(1.0, terms);
  const double abs = f32 ? 1e-35 : 1e-300;
  if (std::isfinite(r.lo)) r.lo -= std::fabs(r.lo) * rel + abs;
  if (std::isfinite(r.hi)) r.hi += std::fabs(r.hi) * rel + abs;
  if (f32) {
    if (r.lo < -FLT_MAX) r.lo = -kInf;
    if (r.hi > FLT_MAX) r.hi = kInf;
    // A denormal-only bound may flush to zero on some backends.
    if (r.lo > 0.0 && r.lo < FLT_MIN) r.lo = 0.0;
    if (r.hi < 0.0 && r.hi > -FLT_MIN) r.hi = 0.0;
  }
  if (r.lo > r.hi) std::swap(r.lo, r.hi);
  return r;
}

// ---- interval arithmetic on the real line ---------------------------------

Interval iv_add(const Interval& a, const Interval& b) {
  return {round_down(a.lo + b.lo), round_up(a.hi + b.hi)};
}

Interval iv_sub(const Interval& a, const Interval& b) {
  return {round_down(a.lo - b.hi), round_up(a.hi - b.lo)};
}

/// inf * 0 is NaN in IEEE but 0 on the real line extended for interval
/// arithmetic; treat it as 0 so top intervals multiply sanely.
double mul_term(double x, double y) {
  if ((x == 0.0 && std::isinf(y)) || (y == 0.0 && std::isinf(x))) return 0.0;
  return x * y;
}

Interval iv_mul(const Interval& a, const Interval& b) {
  const double p[4] = {mul_term(a.lo, b.lo), mul_term(a.lo, b.hi),
                       mul_term(a.hi, b.lo), mul_term(a.hi, b.hi)};
  return {round_down(std::min({p[0], p[1], p[2], p[3]})),
          round_up(std::max({p[0], p[1], p[2], p[3]}))};
}

/// Quotient bounds for a divisor interval that excludes zero.
Interval iv_div_nonzero(const Interval& a, const Interval& b) {
  const double q[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
  return {std::min({q[0], q[1], q[2], q[3]}),
          std::max({q[0], q[1], q[2], q[3]})};
}

Interval iv_abs(const Interval& a) {
  if (a.lo >= 0.0) return a;
  if (a.hi <= 0.0) return {-a.hi, -a.lo};
  return {0.0, std::max(-a.lo, a.hi)};
}

Interval iv_min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval iv_max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// Smallest 2^k - 1 >= x (for the nonnegative bitwise-or/xor bound); top
/// signal when x is out of uint64 range.
double next_pow2_minus1(double x) {
  if (!(x >= 0.0)) return 0.0;
  if (x >= 9.2e18) return kInf;  // caller's type bound will cap it
  std::uint64_t v = static_cast<std::uint64_t>(x);
  std::uint64_t m = 1;
  while (m - 1 < v && m != 0) m <<= 1;
  return m == 0 ? kInf : static_cast<double>(m - 1);
}

// ---- evaluation context ----------------------------------------------------

struct Ctx {
  const Model& model;
  RangeAnalysis& result;
  DiagnosticEngine* diags = nullptr;  // non-null only on the reporting pass

  const Interval& in(const Actor& actor, int port) const {
    const Connection conn = *model.incoming(actor.id(), port);
    return result.intervals.at({conn.src, conn.src_port});
  }

  /// Location of the actor producing `actor`'s input `port`, for the
  /// relatedLocations half of a two-actor diagnostic.
  std::string producer_loc(const Actor& actor, int port) const {
    const Connection conn = *model.incoming(actor.id(), port);
    return actor_loc(model.actor(conn.src));
  }

  bool inputs_bounded(const Actor& actor) const {
    for (int port = 0; port < actor.input_count(); ++port) {
      if (!interval_bounded(in(actor, port), actor.input(port).type)) {
        return false;
      }
    }
    return actor.input_count() > 0;
  }
};

void emit(Ctx& ctx, std::string_view code, Severity severity,
          const Actor& actor, std::string message, std::string related) {
  if (ctx.diags == nullptr) return;
  Diagnostic diag;
  diag.code = std::string(code);
  diag.severity = severity;
  diag.location = actor_loc(actor);
  diag.message = std::move(message);
  diag.related = std::move(related);
  ctx.diags->add(std::move(diag));
}

/// Clamps an integer real-valued result to its type: inside the type range
/// it is exact; outside, the runtime wraps (two's-complement, matching both
/// the VM oracle and generated code under -fwrapv), so the result widens to
/// top — and, for signed types with genuinely bounded operands, that is the
/// HCG601 possible-signed-overflow warning.
Interval int_result(Ctx& ctx, const Actor& actor, Interval real) {
  const DataType type = actor.output(0).type;
  const Interval top = type_interval(type);
  if (real.inside(top)) return real;
  if (is_signed_int(type) && ctx.inputs_bounded(actor)) {
    emit(ctx, "HCG601", Severity::kWarning, actor,
         "result range " + real.to_string() + " exceeds " +
             std::string(short_name(type)) + " " + top.to_string() +
             "; values wrap at runtime",
         ctx.producer_loc(actor, 0));
  }
  return top;
}

/// The effective scalar constant of a Gain/Bias actor: the runtime casts
/// the double parameter to the signal's element type before operating
/// (eval_scalar's kMulC/kAddC), so the analysis mirrors that cast.  Returns
/// false when the cast itself is out of range (the transfer then gives up
/// and returns top).
bool effective_constant(const Actor& actor, std::string_view param,
                        DataType type, double* out) {
  const double raw = parse_double(actor.param(param));
  if (is_float(type)) {
    *out = component_type(type) == DataType::kFloat32
               ? static_cast<double>(static_cast<float>(raw))
               : raw;
    return true;
  }
  const double truncated = std::trunc(raw);
  if (!interval_fits({truncated, truncated}, type)) return false;
  *out = truncated;
  return true;
}

Interval eval_elementwise(Ctx& ctx, const Actor& actor) {
  const BatchOp op = batch_op_for_actor_type(actor.type());
  const DataType type = actor.output(0).type;
  const Interval top = type_interval(type);
  const bool floating = is_float(type);
  auto finish = [&](Interval real) {
    return floating ? inflate_float(real, type) : int_result(ctx, actor, real);
  };

  // kSel reads ctrl from port 2 and never mixes lanes: the result is one of
  // the two data operands, so the transfer is the join — unless the control
  // interval proves one branch dead (HCG604).
  if (op == BatchOp::kSel) {
    const Interval& a = ctx.in(actor, 0);
    const Interval& b = ctx.in(actor, 1);
    const Interval& ctrl = ctx.in(actor, 2);
    if (ctrl.lo > 0.0) {
      emit(ctx, "HCG604", Severity::kRemark, actor,
           "control range " + ctrl.to_string() +
               " is always positive; the second input (port 1) is never "
               "selected",
           ctx.producer_loc(actor, 2));
      return a;
    }
    if (ctrl.hi <= 0.0) {
      emit(ctx, "HCG604", Severity::kRemark, actor,
           "control range " + ctrl.to_string() +
               " is never positive; the first input (port 0) is never "
               "selected",
           ctx.producer_loc(actor, 2));
      return b;
    }
    return join(a, b);
  }

  if (op == BatchOp::kCast) {
    const Interval& a = ctx.in(actor, 0);
    const DataType from = actor.input(0).type;
    if (interval_fits(a, type)) {
      // Float -> int truncates toward zero; widen to whole integers so the
      // truncated endpoints stay covered.
      if (is_float(from) && is_integer(type)) {
        return {std::floor(a.lo), std::ceil(a.hi)};
      }
      if (floating) return inflate_float(a, type);
      return a;
    }
    if (interval_bounded(a, from)) {
      emit(ctx, "HCG603", Severity::kWarning, actor,
           "input range " + a.to_string() + " does not fit " +
               std::string(short_name(type)) + " " + top.to_string() +
               "; the cast loses values",
           ctx.producer_loc(actor, 0));
    }
    return top;
  }

  const Interval& a = ctx.in(actor, 0);
  switch (op) {
    case BatchOp::kAdd:
      return finish(iv_add(a, ctx.in(actor, 1)));
    case BatchOp::kSub:
      return finish(iv_sub(a, ctx.in(actor, 1)));
    case BatchOp::kMul:
      return finish(iv_mul(a, ctx.in(actor, 1)));
    case BatchOp::kDiv:
    case BatchOp::kRecp: {
      const int divisor_port = op == BatchOp::kDiv ? 1 : 0;
      const Interval numer =
          op == BatchOp::kDiv ? a : Interval{1.0, 1.0};
      const Interval& denom = ctx.in(actor, divisor_port);
      if (denom.contains(0.0)) {
        if (interval_bounded(denom, actor.input(divisor_port).type)) {
          emit(ctx, "HCG602", Severity::kWarning, actor,
               "divisor range " + denom.to_string() +
                   " contains zero; the division can produce ±inf or NaN",
               ctx.producer_loc(actor, divisor_port));
        }
        return {-kInf, kInf};
      }
      return inflate_float(iv_div_nonzero(numer, denom), type);
    }
    case BatchOp::kMin:
      return finish(iv_min(a, ctx.in(actor, 1)));
    case BatchOp::kMax:
      return finish(iv_max(a, ctx.in(actor, 1)));
    case BatchOp::kAbd:
      // |a - b|; the runtime computes the difference in the (wrapping)
      // element type, so the result is only exact when the real-valued
      // absolute difference fits — int_result widens to top otherwise.
      return finish(iv_abs(iv_sub(a, ctx.in(actor, 1))));
    case BatchOp::kAbs:
      // abs(INT_MIN) wraps back to INT_MIN; iv_abs's upper bound exceeds
      // the type range in exactly that case, so int_result covers it.
      return finish(iv_abs(a));
    case BatchOp::kSqrt: {
      // sqrt of a negative is NaN (no interval represents it; the fuzz
      // cross-check skips NaN), so the bound covers the nonnegative part.
      Interval real{std::sqrt(std::max(0.0, a.lo)),
                    std::sqrt(std::max(0.0, a.hi))};
      return inflate_float(real, type);
    }
    case BatchOp::kAnd: {
      const Interval& b = ctx.in(actor, 1);
      if (a.lo < 0.0 || b.lo < 0.0) return top;
      return {0.0, std::min(a.hi, b.hi)};
    }
    case BatchOp::kOr: {
      const Interval& b = ctx.in(actor, 1);
      if (a.lo < 0.0 || b.lo < 0.0) return top;
      Interval real{std::max(a.lo, b.lo),
                    next_pow2_minus1(std::max(a.hi, b.hi))};
      return real.inside(top) ? real : top;
    }
    case BatchOp::kXor: {
      const Interval& b = ctx.in(actor, 1);
      if (a.lo < 0.0 || b.lo < 0.0) return top;
      Interval real{0.0, next_pow2_minus1(std::max(a.hi, b.hi))};
      return real.inside(top) ? real : top;
    }
    case BatchOp::kNot: {
      // ~x is exactly -x-1 (signed) / max-x (unsigned): monotone and
      // range-preserving, so the transfer is exact.
      if (is_signed_int(type)) return {-a.hi - 1.0, -a.lo - 1.0};
      const Interval t = type_interval(type);
      return {round_down(t.hi - a.hi), round_up(t.hi - a.lo)};
    }
    case BatchOp::kShl: {
      const double factor =
          std::pow(2.0, static_cast<double>(actor.int_param("amount")));
      return finish(iv_mul(a, {factor, factor}));
    }
    case BatchOp::kShr: {
      // Arithmetic shift: floor division by 2^amount, exact and in-range.
      const double factor =
          std::pow(2.0, static_cast<double>(actor.int_param("amount")));
      return {round_down(std::floor(a.lo / factor)),
              round_up(std::floor(a.hi / factor))};
    }
    case BatchOp::kMulC: {
      double c = 0.0;
      if (!effective_constant(actor, "gain", type, &c)) return top;
      return finish(iv_mul(a, {c, c}));
    }
    case BatchOp::kAddC: {
      double c = 0.0;
      if (!effective_constant(actor, "bias", type, &c)) return top;
      return finish(iv_add(a, {c, c}));
    }
    default:
      return top;
  }
}

/// Conservative norm bounds for the intensive kernels: each output element
/// is a sum of at most `terms` products of inputs with unit-magnitude (or
/// input-magnitude) factors, so ±(terms * M) bounds it.  Complex signals
/// are bounded per scalar component, where one DFT component mixes both
/// components of every input element — hence the factor 2.  MatInv and
/// MatDet have no useful closed-form bound and stay top.
Interval eval_intensive(Ctx& ctx, const Actor& actor) {
  const std::string& type = actor.type();
  const DataType out_type = actor.output(0).type;
  const Interval top = type_interval(out_type);

  auto magnitude = [&](int port) {
    const Interval& iv = ctx.in(actor, port);
    return std::max(std::fabs(iv.lo), std::fabs(iv.hi));
  };

  const double n0 = static_cast<double>(actor.input(0).shape.elements());
  double bound = kInf;
  double terms = n0;
  if (type == "FFT" || type == "IFFT" || type == "FFT2D" ||
      type == "IFFT2D" || type == "DCT" || type == "IDCT" ||
      type == "DCT2D" || type == "IDCT2D") {
    bound = 2.0 * n0 * magnitude(0);
  } else if (type == "Conv" || type == "Conv2D") {
    const double n1 = static_cast<double>(actor.input(1).shape.elements());
    terms = std::min(n0, n1);
    bound = terms * magnitude(0) * magnitude(1);
  } else if (type == "MatMul") {
    const Shape& shape = actor.input(0).shape;
    terms = static_cast<double>(shape.dims.empty() ? 1 : shape.dims[0]);
    bound = terms * magnitude(0) * magnitude(1);
  } else {
    return top;  // MatInv, MatDet, anything new: no bound claimed
  }
  if (!std::isfinite(bound)) return top;
  return inflate_float({-bound, bound}, out_type, terms);
}

Interval eval_constant(const Actor& actor) {
  const DataType type = actor.output(0).type;
  Tensor value = constant_tensor(actor);
  const int components =
      is_complex(type) ? value.elements() * 2 : value.elements();
  Interval iv{kInf, -kInf};
  for (int i = 0; i < components; ++i) {
    double v = 0.0;
    if (is_complex(type)) {
      v = component_type(type) == DataType::kFloat32
              ? static_cast<double>(value.as<float>()[i])
              : value.as<double>()[i];
    } else {
      v = value.get_double(i);
    }
    iv.lo = std::min(iv.lo, v);
    iv.hi = std::max(iv.hi, v);
  }
  if (iv.lo > iv.hi) return type_interval(type);
  return iv;
}

Interval eval_inport(const Actor& actor) {
  const DataType type = actor.output(0).type;
  const Interval top = type_interval(type);
  if (!actor.has_param("range_min") && !actor.has_param("range_max")) {
    return top;
  }
  Interval iv{actor.double_param_or("range_min", top.lo),
              actor.double_param_or("range_max", top.hi)};
  iv.lo = std::max(iv.lo, top.lo);
  iv.hi = std::min(iv.hi, top.hi);
  if (iv.lo > iv.hi) return top;  // nonsense declaration: ignore it
  return iv;
}

/// One propagation pass in firing order.  Delay outputs are pre-seeded from
/// `delay_state` before the pass, so consumers that fire before the delay
/// actor see the current-step state.
void propagate(Ctx& ctx, const std::vector<ActorId>& order,
               const std::map<ActorId, Interval>& delay_state) {
  for (const auto& [id, state] : delay_state) {
    ctx.result.intervals[{id, 0}] = state;
  }
  for (ActorId id : order) {
    const Actor& actor = ctx.model.actor(id);
    const std::string& type = actor.type();
    if (type == "Outport") continue;  // sink: no output signal
    if (type == "UnitDelay") continue;  // pre-seeded above
    Interval iv;
    if (type == "Inport") {
      iv = eval_inport(actor);
    } else if (type == "Constant") {
      iv = eval_constant(actor);
    } else if (actor_type_info(type).intensive) {
      iv = eval_intensive(ctx, actor);
    } else if (actor_type_info(type).elementwise) {
      iv = eval_elementwise(ctx, actor);
      // A computing actor with a provably constant output marks a
      // constant-foldable subgraph (floats rarely qualify: their bounds
      // carry the outward-rounding band).
      if (iv.singleton() && ctx.diags != nullptr) {
        emit(ctx, "HCG605", Severity::kRemark, actor,
             "output is provably the constant " + bound_string(iv.lo) +
                 "; the subgraph feeding it can be folded at generation "
                 "time",
             "");
      }
    } else {
      iv = type_interval(actor.output(0).type);
    }
    for (int port = 0; port < actor.output_count(); ++port) {
      ctx.result.intervals[{id, port}] = iv;
    }
  }
}

}  // namespace

std::string Interval::to_string() const {
  return "[" + bound_string(lo) + ", " + bound_string(hi) + "]";
}

Interval join(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval type_interval(DataType type) {
  switch (type) {
    case DataType::kInt8: return {-128.0, 127.0};
    case DataType::kInt16: return {-32768.0, 32767.0};
    case DataType::kInt32: return {-2147483648.0, 2147483647.0};
    case DataType::kInt64:
      // 2^63-1 is not a double; the nearest double above is 2^63 (outward).
      return {-9223372036854775808.0, 9223372036854775808.0};
    case DataType::kUInt8: return {0.0, 255.0};
    case DataType::kUInt16: return {0.0, 65535.0};
    case DataType::kUInt32: return {0.0, 4294967295.0};
    case DataType::kUInt64: return {0.0, 18446744073709551616.0};  // 2^64
    case DataType::kFloat32:
    case DataType::kFloat64:
    case DataType::kComplex64:
    case DataType::kComplex128:
      return {-kInf, kInf};
  }
  return {-kInf, kInf};
}

bool interval_fits(const Interval& iv, DataType type) {
  if (!std::isfinite(iv.lo) || !std::isfinite(iv.hi)) {
    return is_float(type) || is_complex(type);
  }
  if (is_float(type) || is_complex(type)) return true;
  // Inward-rounded 64-bit bounds: type_interval rounds outward (sound for
  // containment of runtime values) which must not leak into "fits".
  double lo = type_interval(type).lo;
  double hi = type_interval(type).hi;
  if (type == DataType::kInt64) hi = 9223372036854774784.0;   // < 2^63-1
  if (type == DataType::kUInt64) hi = 18446744073709549568.0;  // < 2^64-1
  return iv.lo >= lo && iv.hi <= hi;
}

bool interval_bounded(const Interval& iv, DataType type) {
  // Both endpoints must be finite: a half-infinite interval (Abs or Sqrt of
  // an undeclared float input gives [0, inf]) is not actionable knowledge,
  // and warning on it would flag every such chain in a range-free model.
  if (!std::isfinite(iv.lo) || !std::isfinite(iv.hi)) return false;
  const Interval top = type_interval(type);
  return iv.lo > top.lo || iv.hi < top.hi;
}

const Interval* RangeAnalysis::find(ActorId actor, int port) const {
  const auto it = intervals.find({actor, port});
  return it == intervals.end() ? nullptr : &it->second;
}

RangeAnalysis analyze_ranges(const Model& resolved, DiagnosticEngine* diags) {
  for (const Actor& actor : resolved.actors()) {
    require(actor.is_resolved(),
            "analyze_ranges: model must be resolved first");
  }
  const std::vector<ActorId> order = schedule(resolved);

  RangeAnalysis result;
  Ctx ctx{resolved, result, nullptr};

  // Delay fixpoint with widening: state starts at the initial value [0, 0]
  // and absorbs the fed interval after every pass.  Joins only grow, so the
  // iteration is monotone; after kWidenAfter unstable rounds a still-growing
  // state is widened straight to top, which stabilizes the next round.
  constexpr int kWidenAfter = 3;
  constexpr int kMaxRounds = 8;
  std::map<ActorId, Interval> delay_state;
  for (ActorId id : resolved.actors_of_type("UnitDelay")) {
    delay_state.emplace(id, Interval{0.0, 0.0});
  }
  for (int round = 0; round < kMaxRounds && !delay_state.empty(); ++round) {
    propagate(ctx, order, delay_state);
    bool changed = false;
    for (auto& [id, state] : delay_state) {
      const Actor& actor = resolved.actor(id);
      const Interval fed = ctx.in(actor, 0);
      Interval next = join(state, fed);
      const Interval top = type_interval(actor.output(0).type);
      if (!(next == state) && round >= kWidenAfter - 1) {
        next = top;
        ++result.widened_delays;
      }
      if (!(next == state)) {
        state = next;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Reporting pass: one final propagation with diagnostics enabled, over
  // the stabilized delay states (so HCG6xx findings are emitted exactly
  // once and against the fixpoint intervals).
  ctx.diags = diags;
  propagate(ctx, order, delay_state);

  result.actors_analyzed = resolved.actor_count();
  for (const Actor& actor : resolved.actors()) {
    for (int port = 0; port < actor.output_count(); ++port) {
      const Interval* iv = result.find(actor.id(), port);
      if (iv != nullptr &&
          interval_bounded(*iv, actor.output(port).type)) {
        ++result.bounded_outputs;
      }
    }
  }
  return result;
}

}  // namespace hcg::analysis
