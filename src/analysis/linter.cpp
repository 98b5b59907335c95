#include "analysis/linter.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "actors/batch_op.hpp"
#include "actors/catalog.hpp"
#include "actors/resolve.hpp"
#include "graph/regions.hpp"
#include "model/schedule.hpp"
#include "support/error.hpp"

namespace hcg::analysis {
namespace {

std::string actor_loc(const Actor& actor) {
  return "actor '" + actor.name() + "' (" + actor.type() + ")";
}

std::string join_names(const Model& model, const std::vector<ActorId>& ids) {
  std::string out;
  for (ActorId id : ids) {
    if (!out.empty()) out += ", ";
    out += model.actor(id).name();
  }
  return out;
}

// ---- HCG105: delay-free cycles ---------------------------------------------

/// Kahn's algorithm over non-delay edges, mirroring schedule() but reporting
/// the leftover (cyclic) actors instead of throwing.
std::vector<ActorId> delay_free_cycle_members(const Model& model) {
  const int n = model.actor_count();
  std::vector<int> pending(static_cast<size_t>(n), 0);
  for (const Connection& c : model.connections()) {
    if (is_delay_type(model.actor(c.src).type())) continue;
    ++pending[static_cast<size_t>(c.dst)];
  }
  std::vector<ActorId> ready;
  for (ActorId id = 0; id < n; ++id) {
    if (pending[static_cast<size_t>(id)] == 0) ready.push_back(id);
  }
  int fired = 0;
  while (!ready.empty()) {
    const ActorId id = ready.back();
    ready.pop_back();
    ++fired;
    for (const Connection& c : model.outgoing_all(id)) {
      if (is_delay_type(model.actor(c.src).type())) continue;
      if (--pending[static_cast<size_t>(c.dst)] == 0) ready.push_back(c.dst);
    }
  }
  std::vector<ActorId> stuck;
  if (fired == n) return stuck;
  for (ActorId id = 0; id < n; ++id) {
    if (pending[static_cast<size_t>(id)] > 0) stuck.push_back(id);
  }
  return stuck;
}

// ---- HCG104: dead actors ----------------------------------------------------

/// Actors from which no path (through any connection, delays included)
/// reaches an Outport.  With no Outport at all the set would be everything,
/// so the caller skips this check and HCG106 reports the real problem.
std::vector<ActorId> unobserved_actors(const Model& model) {
  std::vector<bool> live(static_cast<size_t>(model.actor_count()), false);
  std::vector<ActorId> stack = model.outports();
  for (ActorId id : stack) live[static_cast<size_t>(id)] = true;
  while (!stack.empty()) {
    const ActorId id = stack.back();
    stack.pop_back();
    for (const Connection& c : model.connections()) {
      if (c.dst != id || live[static_cast<size_t>(c.src)]) continue;
      live[static_cast<size_t>(c.src)] = true;
      stack.push_back(c.src);
    }
  }
  std::vector<ActorId> dead;
  for (const Actor& actor : model.actors()) {
    if (!live[static_cast<size_t>(actor.id())]) dead.push_back(actor.id());
  }
  return dead;
}

// ---- HCG2xx helpers ---------------------------------------------------------

/// Strips resolve_model's "actor 'name' (Type): " prefix when present, so
/// the diagnostic location (which already carries it) is not duplicated.
std::string strip_actor_prefix(const Actor& actor, const std::string& message) {
  const std::string prefix = actor_loc(actor) + ": ";
  if (message.rfind(prefix, 0) == 0) return message.substr(prefix.size());
  return message;
}

/// "i32[1024] vs f32[1024]" -> HCG202 (same shape, different type);
/// "i32[512] vs i32[1024]" -> HCG201; anything unparseable -> HCG203.
std::string classify_operand_mismatch(const std::string& operands) {
  const std::size_t vs = operands.find(" vs ");
  if (vs == std::string::npos) return "HCG203";
  const std::string lhs = operands.substr(0, vs);
  const std::string rhs = operands.substr(vs + 4);
  const std::size_t lb = lhs.find('[');
  const std::size_t rb = rhs.find('[');
  if (lb == std::string::npos || rb == std::string::npos) return "HCG203";
  if (lhs.substr(lb) != rhs.substr(rb)) return "HCG201";
  if (lhs.substr(0, lb) != rhs.substr(0, rb)) return "HCG202";
  return "HCG203";
}

// ---- HCG4xx helpers ---------------------------------------------------------

/// Re-derives is_region_candidate()'s verdict for a batch actor the region
/// builder left out, as a (code, message) explanation.
std::pair<std::string, std::string> explain_excluded_batch_actor(
    const Model& model, const Actor& actor, const isa::VectorIsa& isa) {
  const PortSpec& out = actor.output(0);
  for (int port = 0; port < actor.input_count(); ++port) {
    const PortSpec& in = actor.input(port);
    if (bit_width(in.type) != bit_width(out.type)) {
      return {"HCG404",
              "element width changes " + std::string(short_name(in.type)) +
                  " -> " + std::string(short_name(out.type)) +
                  " inside the batch chain; regions need one bit-width, so "
                  "this actor is translated conventionally"};
    }
    if (in.shape.elements() != out.shape.elements()) {
      return {"HCG405",
              "array length changes " + std::to_string(in.shape.elements()) +
                  " -> " + std::to_string(out.shape.elements()) +
                  " inside the batch chain; regions need one I/O scale, so "
                  "this actor is translated conventionally"};
    }
  }
  const BatchOp op = batch_op_for_actor_type(actor.type());
  if (!isa.supports(op, actor.input(0).type, out.type)) {
    return {"HCG407",
            "ISA '" + isa.name + "' has no single-instruction " +
                std::string(op_name(op)) + " on " +
                std::string(short_name(out.type)) +
                "; the actor is translated conventionally"};
  }
  (void)model;
  return {"HCG407",
          "actor was excluded from every batch region; no single-instruction "
          "implementation applies"};
}

}  // namespace

void lint_structure(const Model& model, DiagnosticEngine& diags) {
  // HCG101 + HCG102: per-actor catalog and input wiring.
  for (const Actor& actor : model.actors()) {
    if (!is_known_actor_type(actor.type())) {
      diags.error("HCG101", actor_loc(actor),
                  "unknown actor type '" + actor.type() +
                      "'; not in the actor catalog (see `hcgc isa --actors`)");
      continue;
    }
    const ActorTypeInfo& info = actor_type_info(actor.type());
    for (int port = 0; port < info.input_count; ++port) {
      if (!model.incoming(actor.id(), port)) {
        diags.error("HCG102", actor_loc(actor),
                    "input port " + std::to_string(port) +
                        " has no incoming connection");
      }
    }
  }

  // HCG103: every connection must land on ports the endpoint types declare.
  for (const Connection& c : model.connections()) {
    const Actor& src = model.actor(c.src);
    const Actor& dst = model.actor(c.dst);
    const std::string loc =
        "connection '" + src.name() + "' -> '" + dst.name() + "'";
    if (is_known_actor_type(src.type()) &&
        c.src_port >= actor_type_info(src.type()).output_count) {
      diags.error("HCG103", loc,
                  "references output port " + std::to_string(c.src_port) +
                      " but type " + src.type() + " has " +
                      std::to_string(actor_type_info(src.type()).output_count) +
                      " output(s)");
    }
    if (is_known_actor_type(dst.type()) &&
        c.dst_port >= actor_type_info(dst.type()).input_count) {
      diags.error("HCG103", loc,
                  "references input port " + std::to_string(c.dst_port) +
                      " but type " + dst.type() + " has " +
                      std::to_string(actor_type_info(dst.type()).input_count) +
                      " input(s)");
    }
  }

  // HCG105: cycles no UnitDelay breaks.
  const std::vector<ActorId> stuck = delay_free_cycle_members(model);
  if (!stuck.empty()) {
    diags.error("HCG105", "",
                "delay-free dependency cycle through {" +
                    join_names(model, stuck) +
                    "}; feedback loops must pass through a UnitDelay");
  }

  // HCG106 / HCG104: observability of outputs.
  if (model.outports().empty()) {
    diags.warning("HCG106", "",
                  "model has no Outport; the generated step() computes "
                  "nothing observable");
  } else {
    for (ActorId id : unobserved_actors(model)) {
      diags.warning("HCG104", actor_loc(model.actor(id)),
                    "no path from this actor reaches an Outport; its code "
                    "is dead weight in step()");
    }
  }
}

bool lint_resolve(Model& model, DiagnosticEngine& diags) {
  const auto on_failure = [&](const Actor& actor, const std::string& message) {
    // Skip failures lint_structure already reported under an HCG1xx code.
    if (!is_known_actor_type(actor.type())) return;
    if (message.find("is unconnected") != std::string::npos) return;
    if (message.find("has no output port") != std::string::npos) return;

    const std::string detail = strip_actor_prefix(actor, message);
    const std::size_t tag = detail.find("operand mismatch: ");
    if (tag != std::string::npos) {
      const std::string code = classify_operand_mismatch(
          detail.substr(tag + std::string("operand mismatch: ").size()));
      diags.error(code, actor_loc(actor), detail);
      return;
    }
    diags.error("HCG203", actor_loc(actor), detail);
  };
  try {
    return resolve_model_tolerant(model, on_failure);
  } catch (const ModelError&) {
    // No firing order exists (delay-free cycle); HCG105 covers it.
    return false;
  }
}

RangeAnalysis lint_ranges(const Model& model, DiagnosticEngine& diags) {
  return analyze_ranges(model, &diags);
}

void lint_vectorization(const Model& model, const isa::VectorIsa& isa,
                        int min_nodes_for_simd, DiagnosticEngine& diags) {
  const std::vector<BatchRegion> regions = find_batch_regions(model, isa);
  const auto lanes_of = [&isa](DataType type) { return isa.lanes(type); };

  std::set<ActorId> in_region;
  for (const BatchRegion& region : regions) {
    in_region.insert(region.actors.begin(), region.actors.end());
  }

  // Per-region plan outcome (mirrors Algorithm 2's early exits exactly).
  for (const BatchRegion& region : regions) {
    const Dataflow& graph = region.graph;
    const std::string loc = "region {" + join_names(model, region.actors) + "}";
    const RegionVectorPlan plan = plan_region_vectorization(
        region, isa.capability(), min_nodes_for_simd);
    if (plan.viable) {
      if (plan.predicated) {
        // Scalable ISA: one predicated loop covers everything — there is no
        // remainder to warn about, so no blocker phrasing here.
        diags.note("HCG400", loc,
                   "vectorized with " + isa.name +
                       ": one predicated vector-length-agnostic loop over " +
                       std::to_string(graph.length()) +
                       " element(s), no scalar remainder");
      } else {
        diags.note("HCG400", loc,
                   "vectorized with " + isa.name + ": " +
                       std::to_string(plan.lanes) + " lanes, " +
                       std::to_string(plan.batch_count) +
                       " vector iteration(s)" +
                       (plan.offset > 0
                            ? ", scalar remainder of " +
                                  std::to_string(plan.offset) + " element(s)"
                            : ""));
      }
      continue;
    }
    // Predicated plans never fail on length (any n >= 1 is coverable), so
    // the too-short remark below — remainder-based phrasing — only applies
    // to fixed-width tables.
    if (!plan.predicated && (plan.lanes <= 0 || plan.batch_count < 1)) {
      diags.remark(
          "HCG401", loc,
          "array length " + std::to_string(graph.length()) +
              " is shorter than one " + std::to_string(isa.width_bits) +
              "-bit vector (" + std::to_string(std::max(plan.lanes, 0)) +
              " lanes of " + std::to_string(graph.data_bit_width()) +
              "-bit elements); the region stays scalar");
      continue;
    }
    if (graph.node_count() < min_nodes_for_simd) {
      diags.remark("HCG402", loc,
                   "region has " + std::to_string(graph.node_count()) +
                       " node(s), below the --threshold floor of " +
                       std::to_string(min_nodes_for_simd) +
                       "; SIMD setup would not pay off");
      continue;
    }
    for (const DfgNode& node : graph.nodes()) {
      if (lanes_of(node.out_type) != plan.lanes) {
        diags.remark("HCG403", loc,
                     "ISA '" + isa.name + "' offers " +
                         std::to_string(lanes_of(node.out_type)) +
                         " lane(s) for " +
                         std::string(short_name(node.out_type)) + " at '" +
                         model.actor(node.actor).name() + "' but the region "
                         "needs a uniform " +
                         std::to_string(plan.lanes) + "; the region stays "
                         "scalar");
        break;
      }
    }
  }

  // Batch actors the region builder had to leave out entirely.
  for (const Actor& actor : model.actors()) {
    if (in_region.count(actor.id())) continue;
    if (classify(model, actor.id()) != ActorKind::kBatch) continue;
    const auto [code, message] =
        explain_excluded_batch_actor(model, actor, isa);
    diags.remark(code, actor_loc(actor), message);
  }

  // HCG406: a non-batch actor wedged between two region members splits what
  // would otherwise be one chain.
  for (const Actor& actor : model.actors()) {
    if (in_region.count(actor.id())) continue;
    const ActorKind kind = classify(model, actor.id());
    if (kind == ActorKind::kSource || kind == ActorKind::kSink ||
        kind == ActorKind::kBatch) {
      continue;
    }
    ActorId upstream = kNoActor;
    ActorId downstream = kNoActor;
    for (const Connection& c : model.connections()) {
      if (c.dst == actor.id() && in_region.count(c.src)) upstream = c.src;
      if (c.src == actor.id() && in_region.count(c.dst)) downstream = c.dst;
    }
    if (upstream != kNoActor && downstream != kNoActor) {
      diags.remark("HCG406", actor_loc(actor),
                   "non-batch actor splits the batch chain between '" +
                       model.actor(upstream).name() + "' and '" +
                       model.actor(downstream).name() +
                       "'; the regions on each side vectorize separately");
    }
  }
}

RangeAnalysis lint_model(Model& model, const LintOptions& options,
                         DiagnosticEngine& diags) {
  lint_structure(model, diags);
  const bool resolved = lint_resolve(model, diags);
  RangeAnalysis ranges;
  if (resolved) {
    ranges = lint_ranges(model, diags);
  }
  if (resolved && options.isa != nullptr && options.remarks) {
    lint_vectorization(model, *options.isa, options.min_nodes_for_simd, diags);
  }
  return ranges;
}

}  // namespace hcg::analysis
