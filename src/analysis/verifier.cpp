#include "analysis/verifier.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/error.hpp"

namespace hcg::analysis {
namespace {

std::string loop_desc(const cgir::Stmt& loop) {
  std::string out = "loop [" + std::to_string(loop.begin) + "," +
                    std::to_string(loop.end) + ")";
  if (loop.step != 1) out += " step " + std::to_string(loop.step);
  if (loop.vector_loop) out += " vector";
  if (loop.predicated) out += " predicated";
  return out;
}

std::string stmt_desc(const cgir::Stmt& stmt) {
  if (stmt.kind == cgir::Stmt::Kind::kLoop) return loop_desc(stmt);
  return "'" + cgir::print_text(stmt) + "'";
}

/// Buffers a statement subtree writes elementwise (`buf[i] = ...` under the
/// loop induction variable) — the footprint HCG310 compares across siblings.
void collect_elementwise_writes(const cgir::Stmt& stmt,
                                std::unordered_set<std::string>& out) {
  cgir::for_each_access(stmt, [&](const cgir::BufferAccess& access) {
    if (access.write && access.elementwise) out.insert(access.buffer);
  });
  for (const cgir::Stmt& child : stmt.body) {
    collect_elementwise_writes(child, out);
  }
}

/// Every buffer a statement subtree touches, read or write — used to tell a
/// reused slot apart from a redundant remainder (HCG310).
void collect_all_accesses(const cgir::Stmt& stmt,
                          std::unordered_set<std::string>& out) {
  cgir::for_each_access(stmt, [&](const cgir::BufferAccess& access) {
    out.insert(access.buffer);
  });
  for (const cgir::Stmt& child : stmt.body) {
    collect_all_accesses(child, out);
  }
}

/// Walks one function body, tracking lexical scope.  A scope frame holds the
/// locals defined so far in that brace level; names from enclosing frames
/// stay visible (the IR never shadows, and HCG302 flags same-frame dupes).
class FunctionChecker {
 public:
  FunctionChecker(const cgir::TranslationUnit& tu, std::string func,
                  std::vector<Diagnostic>& out)
      : func_(std::move(func)), out_(out) {
    for (const cgir::BufferDecl& decl : tu.buffers) {
      if (!decls_.emplace(decl.name, &decl).second) {
        error("HCG307", "buffer '" + decl.name + "'",
              "buffer '" + decl.name + "' is declared more than once");
      }
    }
  }

  void run(const std::vector<cgir::Stmt>& body) {
    scopes_.push_back({});
    written_.push_back({});
    walk(body, /*loop=*/nullptr);
    written_.pop_back();
    scopes_.pop_back();
  }

 private:
  void error(std::string_view code, const std::string& where,
             std::string message) {
    Diagnostic diag;
    diag.code = std::string(code);
    diag.severity = Severity::kError;
    diag.location = func_ + ": " + where;
    diag.message = std::move(message);
    out_.push_back(std::move(diag));
  }

  bool visible(const std::string& name) const {
    for (const auto& frame : scopes_) {
      if (frame.count(name)) return true;
    }
    return false;
  }

  bool written_in_scope(const std::string& buffer) const {
    for (const auto& frame : written_) {
      if (frame.count(buffer)) return true;
    }
    return false;
  }

  /// Loop fusion leaves a *pending handoff*: a pure load of a buffer an
  /// earlier statement in the fused body stored, reusing the producer's
  /// register name.  Copy forwarding erases exactly these loads next, so a
  /// redefinition of this one shape is legal between the two passes (and
  /// cannot survive forwarding — HCG302 still catches real duplicates).
  bool is_pending_handoff(const cgir::Stmt& stmt) const {
    if (!stmt.is_load) return false;
    for (const cgir::Piece& p : stmt.pieces) {
      if (p.is_access() && !p.write && written_in_scope(p.text)) return true;
    }
    return false;
  }

  void check_text(const cgir::Stmt& stmt, const cgir::Stmt* loop) {
    const std::string where = stmt_desc(stmt);
    const bool handoff = is_pending_handoff(stmt);
    cgir::for_each_access(stmt, [&](const cgir::BufferAccess& access) {
      auto it = decls_.find(access.buffer);
      if (it == decls_.end()) {
        // Not a static buffer: must be a local (an I/O pointer alias or a
        // local array) defined by an earlier statement in scope.
        if (!visible(access.buffer)) {
          error("HCG305", where,
                "access to '" + access.buffer +
                    "' which is neither a declared buffer nor a local "
                    "defined earlier in scope");
        }
        return;
      }
      const cgir::BufferDecl& decl = *it->second;
      if (access.write && decl.is_const) {
        error("HCG306", where,
              "write to buffer '" + decl.name + "' which is declared const");
      }
      if (access.elementwise && loop != nullptr &&
          loop->end > decl.components) {
        error("HCG301", where,
              "elementwise access to '" + decl.name + "' in " +
                  loop_desc(*loop) + " exceeds its extent of " +
                  std::to_string(decl.components) + " elements");
      }
    });
    if (stmt.is_store && !stmt.stores_var.empty() &&
        !visible(stmt.stores_var)) {
      error("HCG304", where,
            "store of '" + stmt.stores_var +
                "' which no earlier statement in scope defines");
    }
    if (!stmt.defines.empty()) {
      if (!scopes_.back().insert(stmt.defines).second && !handoff) {
        error("HCG302", where,
              "local '" + stmt.defines +
                  "' is defined twice in the same scope");
      }
    }
    cgir::for_each_access(stmt, [&](const cgir::BufferAccess& access) {
      if (access.write) written_.back().insert(access.buffer);
    });
  }

  void check_loop_shape(const cgir::Stmt& loop,
                        const std::vector<cgir::Stmt>& siblings,
                        std::size_t index, const cgir::Stmt* parent) {
    const std::string where = loop_desc(loop);
    if (loop.step < 1 || loop.begin < 0 || loop.end < loop.begin) {
      error("HCG303", where, "malformed iteration domain");
      return;
    }
    if (loop.predicated) {
      // HCG310: a predicated VLA loop must cover [0, n) entirely by itself.
      // Its predicate absorbs the tail, so a begin offset, a missing runtime
      // stride, or any sibling loop writing the same output elementwise
      // (the remainder it was supposed to replace) is a lowering bug.
      if (loop.begin != 0) {
        error("HCG310", where,
              "predicated loop starts at " + std::to_string(loop.begin) +
                  "; it must cover [0, n) by itself");
      }
      if (loop.step_expr.empty()) {
        error("HCG310", where,
              "predicated loop has no runtime stride expression");
      }
      if (loop.vector_loop || loop.single_iteration || loop.strip_mined) {
        error("HCG310", where,
              "predicated loop also carries a fixed-width loop form");
      }
      // A redundant remainder is emitted right after its main loop, before
      // anything else touches the output.  A later loop that writes the
      // same buffer *after* an intervening access is a reused slot holding
      // a different signal (an arena slot rebound to a later member), not a
      // remainder.
      std::unordered_set<std::string> own;
      collect_elementwise_writes(loop, own);
      std::unordered_set<std::string> touched_since;
      for (std::size_t j = index + 1; j < siblings.size(); ++j) {
        if (siblings[j].kind == cgir::Stmt::Kind::kLoop) {
          std::unordered_set<std::string> other;
          collect_elementwise_writes(siblings[j], other);
          bool flagged = false;
          for (const std::string& buffer : own) {
            if (other.count(buffer) && !touched_since.count(buffer)) {
              error("HCG310", where,
                    "sibling " + loop_desc(siblings[j]) +
                        " also writes '" + buffer +
                        "' elementwise; the predicated loop already covers "
                        "the whole domain, so that remainder is redundant");
              flagged = true;
              break;
            }
          }
          if (flagged) break;
        }
        collect_all_accesses(siblings[j], touched_since);
      }
      return;
    }
    if (loop.strip_mined) {
      // A strip-mined lane loop must sit directly inside a loop and cover
      // exactly one outer stride: [0, parent step) by 1, with a distinct
      // induction variable — together the pair walks the outer domain.
      if (parent == nullptr) {
        error("HCG309", where,
              "strip-mined loop is not nested inside an outer loop");
      } else if (loop.begin != 0 || loop.step != 1 ||
                 loop.end != parent->step) {
        error("HCG309", where,
              "strip-mined loop does not cover exactly one stride of its "
              "outer loop (expected [0," +
                  std::to_string(parent->step) + ") step 1)");
      } else if (loop.induction_var == parent->induction_var) {
        error("HCG309", where,
              "strip-mined loop reuses its outer loop's induction variable "
              "'" + parent->induction_var + "'");
      }
    }
    if (!loop.vector_loop && !loop.strip_mined && loop.begin > 0) {
      // A scalar loop starting past 0 is a tail: some earlier sibling loop
      // must end exactly where this one begins, so the pair covers [0, end).
      bool covered = false;
      for (std::size_t j = 0; j < index; ++j) {
        const cgir::Stmt& prev = siblings[j];
        if (prev.kind != cgir::Stmt::Kind::kLoop) continue;
        if (prev.end == loop.begin) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        error("HCG303", where,
              "scalar loop starts at " + std::to_string(loop.begin) +
                  " but no earlier sibling loop ends there");
      }
    }
    if (loop.single_iteration && loop.end != loop.begin + loop.step) {
      error("HCG303", where,
            "single-iteration loop spans more than one step");
    }
    if (loop.vector_loop && (loop.end - loop.begin) % loop.step != 0) {
      error("HCG303", where,
            "vector loop trip (" + std::to_string(loop.end - loop.begin) +
                " elements) is not a multiple of its stride " +
                std::to_string(loop.step) +
                "; the final iteration would read past the region");
    }
    if (loop.vector_loop && loop.begin > 0) {
      // The scalar remainder loop must precede its vector main loop and
      // cover [0, begin) exactly, so the pair covers the region width.
      bool covered = false;
      for (std::size_t j = 0; j < index; ++j) {
        const cgir::Stmt& prev = siblings[j];
        if (prev.kind != cgir::Stmt::Kind::kLoop || prev.vector_loop) continue;
        if (prev.begin == 0 && prev.end == loop.begin) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        error("HCG303", where,
              "vector loop starts at " + std::to_string(loop.begin) +
                  " but no earlier scalar loop covers [0," +
                  std::to_string(loop.begin) + ")");
      }
    }
  }

  void walk(const std::vector<cgir::Stmt>& body, const cgir::Stmt* loop) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      const cgir::Stmt& stmt = body[i];
      if (stmt.kind == cgir::Stmt::Kind::kText) {
        check_text(stmt, loop);
        continue;
      }
      check_loop_shape(stmt, body, i, loop);
      scopes_.push_back({});
      written_.push_back({});
      // A strip-mined lane loop's elementwise accesses belong to the
      // *enclosing* loop's iteration domain, so keep that loop as the
      // bound-check context (HCG301) when descending into it.
      walk(stmt.body, stmt.strip_mined && loop != nullptr ? loop : &stmt);
      written_.pop_back();
      scopes_.pop_back();
    }
  }

  std::string func_;
  std::vector<Diagnostic>& out_;
  std::unordered_map<std::string, const cgir::BufferDecl*> decls_;
  std::vector<std::unordered_set<std::string>> scopes_;
  /// Buffers written so far, per open scope (for handoff detection).
  std::vector<std::unordered_set<std::string>> written_;
};

}  // namespace

std::vector<Diagnostic> verify_unit(const cgir::TranslationUnit& tu) {
  std::vector<Diagnostic> out;
  FunctionChecker init(tu, "init", out);
  init.run(tu.init.body);
  // HCG307 is a unit-level property; report it once (the init checker
  // already did), so drop duplicates the step checker would re-find.
  std::vector<Diagnostic> step_out;
  FunctionChecker step(tu, "step", step_out);
  step.run(tu.step.body);
  for (Diagnostic& diag : step_out) {
    if (diag.code == "HCG307") continue;
    out.push_back(std::move(diag));
  }
  return out;
}

std::vector<Diagnostic> verify_arena_bindings(
    const std::vector<cgir::ArenaBinding>& bindings) {
  std::vector<Diagnostic> out;
  std::unordered_map<std::string, std::vector<const cgir::ArenaBinding*>>
      by_slot;
  for (const cgir::ArenaBinding& binding : bindings) {
    by_slot[binding.slot].push_back(&binding);
  }
  // Deterministic report order: iterate the original vector, compare each
  // member against earlier members of its slot.
  for (const cgir::ArenaBinding& binding : bindings) {
    for (const cgir::ArenaBinding* other : by_slot[binding.slot]) {
      if (other == &binding) break;
      const bool disjoint = other->last_access < binding.first_write ||
                            binding.last_access < other->first_write;
      if (disjoint) continue;
      Diagnostic diag;
      diag.code = "HCG308";
      diag.severity = Severity::kError;
      diag.location = "arena slot '" + binding.slot + "'";
      diag.message =
          "buffers '" + other->buffer + "' [" +
          std::to_string(other->first_write) + "," +
          std::to_string(other->last_access) + "] and '" + binding.buffer +
          "' [" + std::to_string(binding.first_write) + "," +
          std::to_string(binding.last_access) +
          "] share the slot but their live ranges overlap";
      out.push_back(std::move(diag));
    }
  }
  return out;
}

std::size_t require_valid_unit(const cgir::TranslationUnit& tu,
                               const cgir::PassStats& stats,
                               std::string_view stage) {
  std::vector<Diagnostic> diags = verify_unit(tu);
  std::vector<Diagnostic> arena = verify_arena_bindings(stats.arena_bindings);
  diags.insert(diags.end(), std::make_move_iterator(arena.begin()),
               std::make_move_iterator(arena.end()));
  if (!diags.empty()) {
    const Diagnostic& first = diags.front();
    throw CodegenError("cgir verifier: invariant broken after pass '" +
                       std::string(stage) + "': " + first.code + " at " +
                       first.location + ": " + first.message +
                       (diags.size() > 1
                            ? " (+" + std::to_string(diags.size() - 1) +
                                  " more)"
                            : ""));
  }
  return 2;  // unit + arena checks both ran clean
}

bool verify_env_enabled() {
  const char* env = std::getenv("HCG_VERIFY");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

}  // namespace hcg::analysis
