#include "actors/resolve.hpp"

#include "actors/batch_op.hpp"
#include "actors/catalog.hpp"
#include "model/schedule.hpp"
#include "support/error.hpp"

namespace hcg {

namespace {

[[noreturn]] void fail(const Actor& actor, const std::string& message) {
  throw ModelError("actor '" + actor.name() + "' (" + actor.type() + "): " +
                   message);
}

PortSpec spec_from_params(const Actor& actor) {
  if (!actor.has_param("dtype") || !actor.has_param("shape")) {
    fail(actor, "requires 'dtype' and 'shape' parameters");
  }
  PortSpec spec;
  spec.type = parse_datatype(actor.param("dtype"));
  spec.shape = Shape::parse(actor.param("shape"));
  return spec;
}

void check_square_matrix(const Actor& actor, const PortSpec& in) {
  if (in.shape.rank() != 2 || in.shape.dims[0] != in.shape.dims[1]) {
    fail(actor, "requires a square matrix input, got " + in.to_string());
  }
  if (!is_float(in.type)) {
    fail(actor, "matrix actors require a float element type");
  }
}

/// Derives the output specs for `actor` given its resolved input specs.
std::vector<PortSpec> infer_outputs(const Actor& actor,
                                    const std::vector<PortSpec>& in) {
  const std::string& type = actor.type();

  if (type == "Inport" || type == "Constant") return {spec_from_params(actor)};
  if (type == "Outport") return {};

  if (type == "UnitDelay") {
    // A delay may sit on a feedback loop, so its output type cannot be
    // inferred from its input at schedule time; it must be declared.
    return {spec_from_params(actor)};
  }

  if (type == "Cast") {
    if (!actor.has_param("to")) fail(actor, "requires a 'to' parameter");
    PortSpec out;
    out.type = parse_datatype(actor.param("to"));
    out.shape = in[0].shape;
    if (is_complex(in[0].type) || is_complex(out.type)) {
      fail(actor, "cannot cast complex signals");
    }
    return {out};
  }

  const ActorTypeInfo& info = actor_type_info(type);

  if (info.elementwise) {
    const BatchOp op = batch_op_for_actor_type(type);
    for (int port = 1; port < arity(op); ++port) {
      if (!(in[static_cast<size_t>(port)] == in[0])) {
        fail(actor, "operand mismatch: " + in[0].to_string() + " vs " +
                        in[static_cast<size_t>(port)].to_string());
      }
    }
    if (!op_supports_type(op, in[0].type)) {
      fail(actor, "op not defined for element type " +
                      std::string(short_name(in[0].type)));
    }
    if (has_immediate(op)) {
      long long amount = actor.int_param_or("amount", -1);
      if (amount < 0 || amount >= bit_width(in[0].type)) {
        fail(actor, "shift 'amount' must be in [0, " +
                        std::to_string(bit_width(in[0].type) - 1) + "]");
      }
    }
    if (op == BatchOp::kMulC && !actor.has_param("gain")) {
      fail(actor, "requires a 'gain' parameter");
    }
    if (op == BatchOp::kAddC && !actor.has_param("bias")) {
      fail(actor, "requires a 'bias' parameter");
    }
    return {in[0]};
  }

  if (type == "FFT" || type == "IFFT") {
    if (in[0].type != DataType::kComplex64 || in[0].shape.rank() != 1) {
      fail(actor, "requires a c64 vector input, got " + in[0].to_string());
    }
    return {in[0]};
  }
  if (type == "FFT2D" || type == "IFFT2D") {
    if (in[0].type != DataType::kComplex64 || in[0].shape.rank() != 2) {
      fail(actor, "requires a c64 matrix input, got " + in[0].to_string());
    }
    return {in[0]};
  }
  if (type == "DCT" || type == "IDCT") {
    if (!is_float(in[0].type) || in[0].shape.rank() != 1) {
      fail(actor, "requires a float vector input, got " + in[0].to_string());
    }
    return {in[0]};
  }
  if (type == "DCT2D") {
    if (!is_float(in[0].type) || in[0].shape.rank() != 2) {
      fail(actor, "requires a float matrix input, got " + in[0].to_string());
    }
    return {in[0]};
  }
  if (type == "Conv") {
    if (!is_float(in[0].type) || in[0].shape.rank() != 1 ||
        in[1].shape.rank() != 1 || in[0].type != in[1].type) {
      fail(actor, "requires two float vectors of the same element type");
    }
    PortSpec out = in[0];
    out.shape = Shape{in[0].shape.dims[0] + in[1].shape.dims[0] - 1};
    return {out};
  }
  if (type == "Conv2D") {
    if (!is_float(in[0].type) || in[0].shape.rank() != 2 ||
        in[1].shape.rank() != 2 || in[0].type != in[1].type) {
      fail(actor, "requires two float matrices of the same element type");
    }
    PortSpec out = in[0];
    out.shape = Shape{in[0].shape.dims[0] + in[1].shape.dims[0] - 1,
                      in[0].shape.dims[1] + in[1].shape.dims[1] - 1};
    return {out};
  }
  if (type == "MatMul") {
    check_square_matrix(actor, in[0]);
    if (!(in[0] == in[1])) {
      fail(actor, "operand mismatch: " + in[0].to_string() + " vs " +
                      in[1].to_string());
    }
    return {in[0]};
  }
  if (type == "MatInv") {
    check_square_matrix(actor, in[0]);
    return {in[0]};
  }
  if (type == "MatDet") {
    check_square_matrix(actor, in[0]);
    PortSpec out;
    out.type = in[0].type;
    out.shape = Shape{};
    return {out};
  }

  fail(actor, "no inference rule (unknown actor type?)");
}

/// Shared resolution loop.  With `on_failure == nullptr` (strict mode) the
/// first ModelError propagates; with a callback (tolerant mode, the linter)
/// each directly-failing actor is reported once and actors downstream of a
/// failure are skipped silently.  Returns true when every actor resolved.
bool resolve_actors(Model& model, const ResolveFailureFn* on_failure) {
  const std::vector<ActorId> order = schedule(model);
  bool all_ok = true;

  // Catches ModelError (bad structure/types) and ParseError (malformed
  // dtype/shape parameter values); InternalError is a bug and always
  // propagates, as does everything in strict mode.
  auto tolerate = [&](const Actor& actor, const Error& error) {
    if (on_failure == nullptr ||
        dynamic_cast<const InternalError*>(&error) != nullptr) {
      throw;  // rethrows the in-flight exception; only called from a catch
    }
    all_ok = false;
    (*on_failure)(actor, error.what());
  };

  // Delays self-declare their spec, so resolve them first: a consumer on a
  // feedback loop may legally fire before the delay in the schedule.
  for (Actor& actor : model.actors()) {
    if (actor.type() != "UnitDelay") continue;
    try {
      actor.set_ports({spec_from_params(actor)}, {spec_from_params(actor)});
    } catch (const Error& error) {
      tolerate(actor, error);
    }
  }

  for (ActorId id : order) {
    Actor& actor = model.actor(id);
    if (actor.type() == "UnitDelay") continue;
    try {
      const ActorTypeInfo& info = actor_type_info(actor.type());

      std::vector<PortSpec> in_specs;
      in_specs.reserve(static_cast<size_t>(info.input_count));
      bool skip_downstream = false;
      for (int port = 0; port < info.input_count; ++port) {
        auto conn = model.incoming(id, port);
        if (!conn) {
          fail(actor, "input port " + std::to_string(port) + " is unconnected");
        }
        const Actor& src = model.actor(conn->src);
        if (!src.is_resolved()) {
          // Strict mode: only possible for feedback through a delay, which
          // declares itself.  Tolerant mode: the schedule puts every non-delay
          // source first, so an unresolved source means it already failed —
          // this actor is collateral, not independently broken.
          if (on_failure != nullptr) {
            skip_downstream = true;
            break;
          }
          fail(actor, "source '" + src.name() + "' is unresolved (feedback "
                      "loops must pass through a UnitDelay)");
        }
        if (conn->src_port >= src.output_count()) {
          fail(actor, "source '" + src.name() + "' has no output port " +
                          std::to_string(conn->src_port));
        }
        in_specs.push_back(src.output(conn->src_port));
      }
      if (skip_downstream) {
        all_ok = false;
        continue;
      }

      std::vector<PortSpec> out_specs = infer_outputs(actor, in_specs);
      actor.set_ports(std::move(in_specs), std::move(out_specs));
    } catch (const Error& error) {
      tolerate(actor, error);
    }
  }

  // Post-pass: a UnitDelay declares its spec; verify the wire feeding it
  // agrees (skipped when the feed is itself a casualty of an earlier
  // failure).
  for (Actor& actor : model.actors()) {
    if (actor.type() != "UnitDelay" || !actor.is_resolved()) continue;
    auto conn = model.incoming(actor.id(), 0);
    require(conn.has_value(), "resolved UnitDelay lost its input");
    const Actor& src = model.actor(conn->src);
    if (!src.is_resolved() || conn->src_port >= src.output_count()) {
      all_ok = false;
      continue;
    }
    const PortSpec& fed = src.output(conn->src_port);
    if (!(fed == actor.output(0))) {
      const std::string message =
          "actor '" + actor.name() + "' (UnitDelay): declared " +
          actor.output(0).to_string() + " but is fed " + fed.to_string();
      if (on_failure == nullptr) throw ModelError(message);
      all_ok = false;
      (*on_failure)(actor, message);
    }
  }
  return all_ok;
}

}  // namespace

void resolve_model(Model& model) {
  resolve_actors(model, nullptr);

  // Every connection must reference live ports, even on dead branches the
  // resolution loop never pulled from.
  for (const Connection& c : model.connections()) {
    const Actor& src = model.actor(c.src);
    const Actor& dst = model.actor(c.dst);
    if (c.src_port >= src.output_count()) {
      throw ModelError("connection from '" + src.name() +
                       "' references missing output port " +
                       std::to_string(c.src_port));
    }
    if (c.dst_port >= actor_type_info(dst.type()).input_count) {
      throw ModelError("connection to '" + dst.name() +
                       "' references missing input port " +
                       std::to_string(c.dst_port));
    }
  }
}

Model resolved(Model model) {
  resolve_model(model);
  return model;
}

bool resolve_model_tolerant(Model& model, const ResolveFailureFn& on_failure) {
  require(static_cast<bool>(on_failure),
          "resolve_model_tolerant needs a failure callback");
  return resolve_actors(model, &on_failure);
}

}  // namespace hcg
