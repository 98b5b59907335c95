#include "synth/matcher.hpp"

#include <algorithm>
#include <set>

#include "support/error.hpp"

namespace hcg::synth {

namespace {

class Matcher {
 public:
  Matcher(const Dataflow& graph, const std::vector<int>& subgraph,
          const isa::Instruction& ins)
      : graph_(graph), ins_(ins), members_(subgraph.begin(), subgraph.end()) {}

  std::optional<MatchBinding> run(int sink) {
    MatchBinding binding;
    std::set<int> used;
    if (!match_node(0, sink, binding, used)) return std::nullopt;
    // The pattern must cover the subgraph exactly.
    if (used.size() != members_.size()) return std::nullopt;
    return binding;
  }

 private:
  /// Matches pattern node `p` against dataflow node `d`.
  bool match_node(int p, int d, MatchBinding& binding, std::set<int>& used) {
    const isa::PatternNode& pattern = ins_.nodes[static_cast<size_t>(p)];
    const DfgNode& node = graph_.node(d);
    if (pattern.op != node.op) return false;
    if (node.out_type != ins_.type) return false;
    if (!members_.count(d) || used.count(d)) return false;
    if (pattern.args.size() != node.operands.size()) return false;
    used.insert(d);

    if (match_args_in_order(pattern, node, binding, used)) return true;

    // Commutative binary ops: retry with swapped operands.
    if (is_commutative(node.op) && node.operands.size() == 2) {
      DfgNode swapped = node;
      std::swap(swapped.operands[0], swapped.operands[1]);
      if (match_args_in_order(pattern, swapped, binding, used)) return true;
    }
    used.erase(d);
    return false;
  }

  bool match_args_in_order(const isa::PatternNode& pattern, const DfgNode& node,
                           MatchBinding& binding, std::set<int>& used) {
    // Backtracking point: snapshot bindings.
    const MatchBinding saved_binding = binding;
    const std::set<int> saved_used = used;

    for (size_t i = 0; i < pattern.args.size(); ++i) {
      if (!match_arg(pattern.args[i], node.operands[i], binding, used)) {
        binding = saved_binding;
        used = saved_used;
        return false;
      }
    }
    return true;
  }

  bool match_arg(const isa::PatternArg& arg, const ValueRef& operand,
                 MatchBinding& binding, std::set<int>& used) {
    switch (arg.kind) {
      case isa::PatternArg::Kind::kChild:
        if (operand.kind != ValueRef::Kind::kNode) return false;
        return match_node(arg.index, operand.index, binding, used);

      case isa::PatternArg::Kind::kInput: {
        // Vector input: a node result from outside the subgraph or an
        // external array.  (Nodes inside the subgraph must be covered by
        // pattern structure, not consumed as opaque inputs.)
        if (operand.kind == ValueRef::Kind::kNode) {
          if (members_.count(operand.index)) return false;
        } else if (operand.kind != ValueRef::Kind::kExternal) {
          return false;
        }
        auto it = binding.inputs.find(arg.index);
        if (it != binding.inputs.end()) return it->second == operand;
        binding.inputs.emplace(arg.index, operand);
        return true;
      }

      case isa::PatternArg::Kind::kScalar:
        if (operand.kind != ValueRef::Kind::kScalarConst) return false;
        if (binding.has_scalar && binding.scalar != operand.scalar) return false;
        binding.has_scalar = true;
        binding.scalar = operand.scalar;
        return true;

      case isa::PatternArg::Kind::kFixedImm:
        return operand.kind == ValueRef::Kind::kImmediate &&
               operand.imm == arg.imm;

      case isa::PatternArg::Kind::kAnyImm:
        if (operand.kind != ValueRef::Kind::kImmediate) return false;
        if (binding.has_imm && binding.imm != operand.imm) return false;
        binding.has_imm = true;
        binding.imm = operand.imm;
        return true;
    }
    return false;
  }

  const Dataflow& graph_;
  const isa::Instruction& ins_;
  std::set<int> members_;
};

}  // namespace

std::optional<MatchBinding> match_instruction(const Dataflow& graph,
                                              const std::vector<int>& subgraph,
                                              const isa::Instruction& ins) {
  require(!subgraph.empty(), "match_instruction: empty subgraph");
  if (ins.node_count() != static_cast<int>(subgraph.size())) {
    return std::nullopt;
  }
  return Matcher(graph, subgraph, ins).run(subgraph.back());
}

std::optional<InstructionMatch> find_matching_instruction(
    const Dataflow& graph, const std::vector<int>& subgraph,
    const isa::VectorIsa& isa) {
  const DfgNode& sink = graph.node(subgraph.back());
  for (const isa::Instruction* ins : isa.candidates(sink.op, sink.out_type)) {
    if (auto binding = match_instruction(graph, subgraph, *ins)) {
      return InstructionMatch{ins, std::move(*binding)};
    }
  }
  return std::nullopt;
}

}  // namespace hcg::synth
