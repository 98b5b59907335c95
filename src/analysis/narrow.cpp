#include "analysis/narrow.hpp"

#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "actors/batch_op.hpp"
#include "actors/resolve.hpp"

namespace hcg::analysis {

namespace {

/// Narrower same-signedness integer candidates, narrowest first.
std::vector<DataType> narrowing_candidates(DataType cur) {
  const bool s = is_signed_int(cur);
  std::vector<DataType> out;
  for (DataType t : {s ? DataType::kInt8 : DataType::kUInt8,
                     s ? DataType::kInt16 : DataType::kUInt16,
                     s ? DataType::kInt32 : DataType::kUInt32}) {
    if (bit_width(t) < bit_width(cur)) out.push_back(t);
  }
  return out;
}

/// The one element type of a uniform integer chain of 16 bits or more.  A
/// same-width Cast (e.g. i32 to f32) gives a region two element types, and
/// narrowing a mixed chain is not expressible as one retype.
std::optional<DataType> narrowable_type(const BatchRegion& region) {
  const DataType cur = region.graph.nodes().front().out_type;
  if (!is_integer(cur) || bit_width(cur) < 16) return std::nullopt;
  for (const DfgNode& node : region.graph.nodes()) {
    if (node.out_type != cur) return std::nullopt;
  }
  for (const DfgExternal& ext : region.graph.externals()) {
    if (ext.type != cur) return std::nullopt;
  }
  return cur;
}

/// What the narrowing check concluded for one region.
struct Decision {
  enum class Kind { kNone, kNarrow, kBlocked, kUnsupported };
  Kind kind = Kind::kNone;
  DataType cur = DataType::kInt32;
  DataType to = DataType::kInt32;
  /// kBlocked: the first signal whose range does not fit `to`;
  /// kUnsupported: the op (and actor) the ISA has no `to` instruction for.
  std::string culprit;
};

class Narrower {
 public:
  Narrower(Model& model, const isa::VectorIsa& isa, int min_nodes_for_simd)
      : model_(model), isa_(isa), min_nodes_(min_nodes_for_simd) {}

  NarrowingResult run() {
    NarrowingResult out;
    const std::string where = model_.name() + ": regions";
    // A rewrite moves wires that other regions' snapshots may reference,
    // so each round rewrites one region, then finds regions and ranges
    // again.  Rewritten chains are skipped, which bounds the rounds by the
    // region count.  The last round rewrote nothing: its decisions stand.
    std::vector<Decision> decisions;
    for (bool rewrote = true; rewrote;) {
      rewrote = false;
      out.ranges = analyze_ranges(model_, nullptr);
      out.regions = find_batch_regions(model_, isa_);
      decisions.clear();
      for (const BatchRegion& region : out.regions) {
        Decision d = classify(region, out.ranges);
        if (d.kind != Decision::Kind::kNarrow) {
          decisions.push_back(std::move(d));
          continue;
        }
        rewrite(region, d.cur, d.to);
        resolve_model(model_);
        narrowed_.insert(region.actors.begin(), region.actors.end());
        ++out.regions_narrowed;
        out.remarks.remark(
            "HCG411", where,
            "region {" + names(region) + "} re-planned at " + name(d.to) +
                " (" + std::to_string(isa_.lanes(d.to)) + " lanes, was " +
                name(d.cur) + " at " + std::to_string(isa_.lanes(d.cur)) +
                "): proven value ranges fit the narrower type");
        rewrote = true;
        break;
      }
    }
    for (size_t r = 0; r < decisions.size(); ++r) {
      const Decision& d = decisions[r];
      const std::string region = "region {" + names(out.regions[r]) + "}";
      if (d.kind == Decision::Kind::kBlocked) {
        ++out.narrowing_blocked;
        out.remarks.remark(
            "HCG412", where,
            region + " could use more SIMD lanes at " + name(d.to) +
                ", but the value range of '" + d.culprit +
                "' could not be proven to fit; declare Inport "
                "range_min/range_max to enable narrowing");
      } else if (d.kind == Decision::Kind::kUnsupported) {
        out.remarks.remark(
            "HCG413", where,
            region + " has value ranges that fit " + name(d.to) +
                ", but isa '" + isa_.name + "' has no " + name(d.to) +
                " instruction for " + d.culprit + "; the region stays at " +
                name(d.cur));
      }
    }
    return out;
  }

 private:
  static std::string name(DataType type) {
    return std::string(short_name(type));
  }

  /// Narrows to the narrowest candidate both the ISA and the ranges allow.
  /// Otherwise the region is blocked at the narrowest candidate only the
  /// ranges refuse, or else unsupported at the narrowest candidate whose
  /// ranges fit but for which the ISA lacks an op.
  Decision classify(const BatchRegion& region,
                    const RangeAnalysis& ranges) const {
    const std::optional<DataType> cur = narrowable_type(region);
    if (!cur) return {};
    for (ActorId id : region.actors) {
      if (narrowed_.count(id)) return {};
    }
    Decision blocked, unsupported;
    for (DataType nar : narrowing_candidates(*cur)) {
      const IsaFit fit = isa_fit(region, *cur, nar);
      if (!fit.ok && fit.missing == nullptr) continue;
      const std::string misfit = first_misfit(region, ranges, nar);
      if (fit.ok && misfit.empty()) {
        return {Decision::Kind::kNarrow, *cur, nar, {}};
      }
      if (fit.ok && blocked.kind == Decision::Kind::kNone) {
        blocked = {Decision::Kind::kBlocked, *cur, nar, misfit};
      }
      if (!fit.ok && misfit.empty() &&
          unsupported.kind == Decision::Kind::kNone) {
        const Actor& actor = model_.actor(fit.missing->actor);
        unsupported = {Decision::Kind::kUnsupported, *cur, nar,
                       std::string(op_name(fit.missing->op)) + " (actor '" +
                           actor.name() + "', " + actor.type() + ")"};
      }
    }
    return blocked.kind != Decision::Kind::kNone ? blocked : unsupported;
  }

  struct IsaFit {
    bool ok = false;
    const DfgNode* missing = nullptr;  // set when a node's op is the refusal
  };

  /// Everything except the value-range proof that narrowing one region to
  /// `nar` needs: more lanes than the current type, a viable plan at the
  /// narrow width, a single-instruction implementation for every node, and
  /// representable scalar constants / in-range shift immediates.
  IsaFit isa_fit(const BatchRegion& region, DataType cur, DataType nar) const {
    const int lanes_nar = isa_.lanes(nar);
    if (lanes_nar <= 0 || lanes_nar <= isa_.lanes(cur)) return {};
    if (!isa_.predicated(nar) && region.graph.length() < lanes_nar) return {};
    if (region.graph.node_count() < min_nodes_) return {};
    for (const DfgNode& node : region.graph.nodes()) {
      if (!isa_.supports(node.op, nar, nar)) return {false, &node};
      for (const ValueRef& operand : node.operands) {
        if (operand.kind == ValueRef::Kind::kScalarConst) {
          const double t = std::trunc(operand.scalar);
          if (!interval_fits({t, t}, nar)) return {};
        }
        if (operand.kind == ValueRef::Kind::kImmediate &&
            operand.imm >= bit_width(nar)) {
          return {};
        }
      }
    }
    return {true, nullptr};
  }

  /// The value-range proof: names the first array entering the region, or
  /// node result, whose interval does not provably fit `nar` ("" when all
  /// fit).  A node interval that would wrap at the *current* width is top,
  /// which never fits, so a region that passes computes identical values at
  /// either width.
  std::string first_misfit(const BatchRegion& region,
                           const RangeAnalysis& ranges, DataType nar) const {
    auto fits = [&](ActorId actor, int port) {
      const Interval* iv = ranges.find(actor, port);
      return iv != nullptr && interval_fits(*iv, nar);
    };
    for (const DfgExternal& ext : region.graph.externals()) {
      if (fits(ext.src, ext.src_port)) continue;
      const std::string& src = model_.actor(ext.src).name();
      return ext.src_port == 0 ? src
                               : src + ":" + std::to_string(ext.src_port);
    }
    for (const DfgNode& node : region.graph.nodes()) {
      if (!fits(node.actor, 0)) return model_.actor(node.actor).name();
    }
    return {};
  }

  /// Splices Cast actors around one region so it re-resolves at `nar`:
  /// a Cast-down on every external input signal, a Cast-up back to `cur`
  /// on every signal leaving the region.  A Constant feeding only this
  /// region is instead retyped in place — its value provably fits `nar`,
  /// and folding the conversion into the initializer avoids a per-step
  /// cast pass over the whole array.  The region's own actors keep their
  /// types param-free (elementwise actors inherit operand types), so
  /// re-resolution retypes the whole chain.
  void rewrite(const BatchRegion& region, DataType cur, DataType nar) {
    const std::set<ActorId> members(region.actors.begin(),
                                    region.actors.end());
    for (const DfgExternal& ext : region.graph.externals()) {
      Actor& producer = model_.actor(ext.src);
      if (producer.type() == "Constant") {
        bool all_in_region = true;
        for (const Connection& c : model_.outgoing_all(ext.src)) {
          all_in_region &= members.count(c.dst) > 0;
        }
        if (all_in_region) {
          producer.set_param("dtype", short_name(nar));
          continue;
        }
      }
      const std::vector<Connection> consumers =
          model_.outgoing(ext.src, ext.src_port);
      const ActorId down = add_cast(nar);
      model_.connect(ext.src, ext.src_port, down, 0);
      for (const Connection& c : consumers) {
        if (members.count(c.dst)) {
          model_.rewire_input(c.dst, c.dst_port, down, 0);
        }
      }
    }
    for (int node_index : region.graph.outputs()) {
      const ActorId src = region.graph.node(node_index).actor;
      ActorId up = kNoActor;
      for (const Connection& c : model_.outgoing(src, 0)) {
        if (members.count(c.dst)) continue;
        if (up == kNoActor) {
          up = add_cast(cur);
          model_.connect(src, 0, up, 0);
        }
        model_.rewire_input(c.dst, c.dst_port, up, 0);
      }
    }
  }

  /// Adds an unconnected Cast to `to` under a name no actor uses yet.
  ActorId add_cast(DataType to) {
    std::string cast_name;
    do {
      cast_name = "hcg_nw_" + std::to_string(name_counter_++);
    } while (model_.find_actor(cast_name) != kNoActor);
    const ActorId id = model_.add_actor(cast_name, "Cast");
    model_.actor(id).set_param("to", short_name(to));
    return id;
  }

  std::string names(const BatchRegion& region) const {
    std::string out;
    for (ActorId id : region.actors) {
      if (!out.empty()) out += ", ";
      out += model_.actor(id).name();
    }
    return out;
  }

  Model& model_;
  const isa::VectorIsa& isa_;
  int min_nodes_;
  std::set<ActorId> narrowed_;  // members of rewritten regions
  int name_counter_ = 0;
};

}  // namespace

NarrowingResult narrow_lanes(Model& model, const isa::VectorIsa& isa,
                             int min_nodes_for_simd) {
  return Narrower(model, isa, min_nodes_for_simd).run();
}

}  // namespace hcg::analysis
