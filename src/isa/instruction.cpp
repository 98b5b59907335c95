#include "isa/instruction.hpp"

#include <algorithm>
#include <cmath>

#include "graph/dataflow.hpp"
#include "support/error.hpp"

namespace hcg::isa {

namespace {
int node_depth(const Instruction& ins, int node_index) {
  int deepest = 0;
  for (const PatternArg& arg : ins.nodes[static_cast<size_t>(node_index)].args) {
    if (arg.kind == PatternArg::Kind::kChild) {
      deepest = std::max(deepest, node_depth(ins, arg.index));
    }
  }
  return deepest + 1;
}
}  // namespace

int Instruction::depth() const { return node_depth(*this, 0); }

int Instruction::cost() const {
  int total = 0;
  for (const PatternNode& node : nodes) total += op_cost(node.op);
  return total;
}

const VType* VectorIsa::find_vtype(DataType type) const {
  for (const VType& v : vtypes) {
    if (v.type == type) return &v;
  }
  return nullptr;
}

namespace {
const IoCode* find_io(const std::vector<IoCode>& codes, DataType type) {
  for (const IoCode& c : codes) {
    if (c.type == type) return &c;
  }
  return nullptr;
}
}  // namespace

const IoCode* VectorIsa::find_load(DataType type) const {
  return find_io(loads, type);
}
const IoCode* VectorIsa::find_store(DataType type) const {
  return find_io(stores, type);
}
const IoCode* VectorIsa::find_dup(DataType type) const {
  return find_io(dups, type);
}

const CvtCode* VectorIsa::find_cvt(DataType from, DataType to) const {
  for (const CvtCode& c : cvts) {
    if (c.from == from && c.to == to) return &c;
  }
  return nullptr;
}

const PredCode* VectorIsa::find_pred(DataType type) const {
  for (const PredCode& p : preds) {
    if (p.type == type) return &p;
  }
  return nullptr;
}

int VectorIsa::lanes(DataType type) const {
  const VType* v = find_vtype(type);
  return v ? v->lanes : 0;
}

bool VectorIsa::predicated(DataType type) const {
  if (!scalable) return false;
  const PredCode* p = find_pred(type);
  return p != nullptr && !p->c_name.empty() && !p->whilelt.empty() &&
         !p->vl_expr.empty();
}

VectorCapability VectorIsa::capability() const {
  VectorCapability cap;
  cap.width_bits = width_bits;
  cap.lanes_of = [this](DataType type) { return lanes(type); };
  cap.predicated_of = [this](DataType type) { return predicated(type); };
  return cap;
}

std::vector<const Instruction*> VectorIsa::candidates(BatchOp op,
                                                      DataType type) const {
  std::vector<const Instruction*> out;
  for (const Instruction& ins : instructions) {
    if (ins.root_op() == op && ins.type == type) out.push_back(&ins);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Instruction* a, const Instruction* b) {
                     if (a->cost() != b->cost()) return a->cost() > b->cost();
                     return a->node_count() > b->node_count();
                   });
  return out;
}

int VectorIsa::max_pattern_nodes() const {
  int m = 1;
  for (const Instruction& ins : instructions) m = std::max(m, ins.node_count());
  return m;
}

int VectorIsa::max_pattern_depth() const {
  int m = 1;
  for (const Instruction& ins : instructions) m = std::max(m, ins.depth());
  return m;
}

bool VectorIsa::supports(BatchOp op, DataType in, DataType out) const {
  if (op == BatchOp::kCast) {
    return find_cvt(in, out) != nullptr && find_vtype(in) != nullptr &&
           find_vtype(out) != nullptr;
  }
  if (find_vtype(out) == nullptr) return false;
  for (const Instruction& ins : instructions) {
    if (ins.type == out && ins.node_count() == 1 && ins.root_op() == op) {
      return true;
    }
  }
  return false;
}

void VectorIsa::validate() const {
  auto need_vtype = [&](DataType type, const std::string& who) {
    if (!find_vtype(type)) {
      throw ParseError("isa '" + name + "': " + who + " uses element type " +
                       std::string(short_name(type)) + " with no vtype");
    }
    if (!find_load(type) || !find_store(type)) {
      throw ParseError("isa '" + name + "': element type " +
                       std::string(short_name(type)) +
                       " lacks a load or store");
    }
  };
  // HCG110: every vtype must fill the declared register width exactly.  For
  // scalable ISAs `width` is the minimum (simulator) granule, so the same
  // arithmetic applies.
  for (const VType& v : vtypes) {
    if (v.lanes <= 0 || v.lanes * bit_width(v.type) != width_bits) {
      throw ParseError("[HCG110] isa '" + name + "': vtype " +
                       std::string(short_name(v.type)) + " declares " +
                       std::to_string(v.lanes) + " lanes x " +
                       std::to_string(bit_width(v.type)) + " bits != width " +
                       std::to_string(width_bits));
    }
  }
  // HCG111: duplicate table entries would make lookups order-dependent.
  auto dup = [&](const std::string& what) {
    throw ParseError("[HCG111] isa '" + name + "': duplicate " + what);
  };
  for (size_t i = 0; i < vtypes.size(); ++i) {
    for (size_t j = i + 1; j < vtypes.size(); ++j) {
      if (vtypes[i].type == vtypes[j].type) {
        dup("vtype for " + std::string(short_name(vtypes[i].type)));
      }
    }
  }
  auto check_io = [&](const std::vector<IoCode>& codes, const char* kind) {
    for (size_t i = 0; i < codes.size(); ++i) {
      for (size_t j = i + 1; j < codes.size(); ++j) {
        if (codes[i].type == codes[j].type) {
          dup(std::string(kind) + " for " +
              std::string(short_name(codes[i].type)));
        }
      }
    }
  };
  check_io(loads, "load");
  check_io(stores, "store");
  check_io(dups, "dup");
  for (size_t i = 0; i < cvts.size(); ++i) {
    for (size_t j = i + 1; j < cvts.size(); ++j) {
      if (cvts[i].from == cvts[j].from && cvts[i].to == cvts[j].to) {
        dup("cvt " + std::string(short_name(cvts[i].from)) + " -> " +
            std::string(short_name(cvts[i].to)));
      }
    }
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    for (size_t j = i + 1; j < preds.size(); ++j) {
      if (preds[i].type == preds[j].type) {
        dup("ptype for " + std::string(short_name(preds[i].type)));
      }
    }
  }
  for (size_t i = 0; i < instructions.size(); ++i) {
    for (size_t j = i + 1; j < instructions.size(); ++j) {
      if (instructions[i].name == instructions[j].name &&
          instructions[i].type == instructions[j].type) {
        dup("instruction " + instructions[i].name + " for " +
            std::string(short_name(instructions[i].type)));
      }
    }
  }
  // Scalable tables: every vectorized element type needs the full predicate
  // kit, and the governed memory templates must actually take the predicate.
  if (scalable) {
    auto mentions_g = [](std::string_view code) {
      return substitute_tokens(code, {{"G", "\x01"}}).find('\x01') !=
             std::string::npos;
    };
    for (const VType& v : vtypes) {
      if (!predicated(v.type)) {
        throw ParseError("isa '" + name + "': scalable table lacks complete "
                         "ptype/whilelt/vl entries for element type " +
                         std::string(short_name(v.type)));
      }
      const IoCode* load = find_load(v.type);
      const IoCode* store = find_store(v.type);
      if ((load && !mentions_g(load->code)) ||
          (store && !mentions_g(store->code))) {
        throw ParseError("isa '" + name + "': scalable load/store for " +
                         std::string(short_name(v.type)) +
                         " must take the governing predicate G");
      }
    }
  } else if (!preds.empty()) {
    throw ParseError("isa '" + name +
                     "': ptype/whilelt/vl require the 'scalable' flag");
  }
  for (const Instruction& ins : instructions) {
    need_vtype(ins.type, "instruction " + ins.name);
    if (ins.nodes.empty()) {
      throw ParseError("isa '" + name + "': instruction " + ins.name +
                       " has an empty pattern");
    }
    const VType* v = find_vtype(ins.type);
    if (v->lanes != ins.lanes) {
      throw ParseError("isa '" + name + "': instruction " + ins.name +
                       " lane count disagrees with its vtype");
    }
    for (const PatternNode& node : ins.nodes) {
      const bool wants_scalar = has_scalar_operand(node.op);
      for (const PatternArg& arg : node.args) {
        if (arg.kind == PatternArg::Kind::kScalar && !wants_scalar) {
          throw ParseError("isa '" + name + "': instruction " + ins.name +
                           " uses a scalar slot on op " +
                           std::string(op_name(node.op)));
        }
        if (arg.kind == PatternArg::Kind::kChild &&
            (arg.index <= 0 || arg.index >= ins.node_count())) {
          throw ParseError("isa '" + name + "': instruction " + ins.name +
                           " has a bad child reference");
        }
      }
    }
  }
  for (const CvtCode& c : cvts) {
    need_vtype(c.from, "cvt");
    need_vtype(c.to, "cvt");
    if (find_vtype(c.from)->lanes != find_vtype(c.to)->lanes) {
      throw ParseError("isa '" + name +
                       "': cvt between types of different lane counts");
    }
  }
}

std::string scalar_literal(DataType type, double value) {
  if (type == DataType::kFloat32) {
    std::string s = std::to_string(value);
    return s + "f";
  }
  if (type == DataType::kFloat64) return std::to_string(value);
  return std::to_string(static_cast<long long>(std::llround(value)));
}

}  // namespace hcg::isa
