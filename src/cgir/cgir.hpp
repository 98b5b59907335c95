// Structured codegen IR: a small C-AST sitting between synthesis and text.
//
// The emitter lowers scheduled actors and matched batch regions into a
// TranslationUnit instead of concatenating strings; optimization passes
// (cgir/passes.hpp) then rewrite the tree — fusing region loops, forwarding
// buffer handoffs, rebinding intermediate buffers onto an arena — before the
// deterministic pretty-printer turns it back into C.  The lowering declares
// one buffer per signal; which buffers share storage is decided by the arena
// pass alone, at every -O level.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hcg::cgir {

/// One static array touched by a statement.  `elementwise` means the access
/// is `buffer[i]` under the enclosing loop's induction variable, so two
/// elementwise accesses with disjoint iteration domains never alias.
struct BufferAccess {
  std::string buffer;
  bool write = false;
  bool elementwise = false;

  bool operator==(const BufferAccess&) const = default;
};

/// A statement: either one line of C text or a counted `for` loop.
///
/// Text statements carry just enough structure for the passes to reason
/// about them: which local they define, which buffers they touch, and
/// whether they are a pure load (`v = vld(&buf[i]);`) or a pure store
/// (`buf[i] = v;`) — the two shapes dead-copy forwarding rewrites.
struct Stmt {
  enum class Kind : unsigned char { kText, kLoop };

  Kind kind = Kind::kText;

  // ---- kText ---------------------------------------------------------
  std::string text;        // the C line, unindented, no trailing newline
  std::string defines;     // local variable this line declares ("" = none)
  std::string stores_var;  // for is_store lines: the value being stored
  bool is_load = false;    // pure elementwise load into `defines`
  bool is_store = false;   // pure elementwise store of `stores_var`
  std::vector<BufferAccess> accesses;
  /// Profiling site tag ("intensive:<actor>:<impl>") set by the emitter on
  /// statements the --profile-gen instrumentation pass should wrap.  Empty
  /// for everything else; carried losslessly through dump()/parse_dump().
  std::string prof_tag;

  // ---- kLoop ---------------------------------------------------------
  int begin = 0;
  int end = 0;
  int step = 1;
  bool vector_loop = false;      // `i += step` stride instead of `++i`
  bool single_iteration = false; // `{ const int i = begin; ... }` block
  bool fusible = false;          // region loop eligible for loop fusion
  /// Predicated vector-length-agnostic loop (scalable ISAs): strides by the
  /// runtime lane-count expression `step_expr` and covers [begin, end) by
  /// itself — no scalar remainder exists.  `step` keeps the minimum-granule
  /// lane count so trip estimates stay integer-valued; passes that reshape
  /// iteration domains (fusion, strip-mining) must leave these
  /// loops alone, since the true stride is unknown until runtime.
  bool predicated = false;
  std::string step_expr;         // runtime stride, e.g. "svcntw()"
  /// Inner lane loop produced by strip-mining: iterates `induction_var`
  /// over [0, outer step) while the enclosing loop strides by its step, so
  /// the pair together walks the outer loop's full [begin, end) domain.
  /// Elementwise accesses inside a strip-mined loop index `i + <var>` and
  /// belong to the *enclosing* loop's iteration domain, not this one's.
  bool strip_mined = false;
  std::string induction_var = "i";  // loop variable name in printed C
  int banner_actors = 0;         // > 0: print the batch-region banner
  std::string banner_isa;
  std::vector<Stmt> body;

  static Stmt text_line(std::string line) {
    Stmt s;
    s.text = std::move(line);
    return s;
  }
};

/// One static buffer declaration.  `arena_eligible` marks plain intermediate
/// signal buffers (not constants, delay state, or I/O aliases) that the
/// buffer-reuse pass may rebind onto shared arena slots.
struct BufferDecl {
  std::string name;
  std::string ctype;
  int components = 0;
  std::size_t elem_bytes = 0;
  bool is_const = false;
  std::string init_values;  // joined literal list for const decls
  bool arena_eligible = false;

  std::size_t bytes() const {
    return static_cast<std::size_t>(components) * elem_bytes;
  }
};

/// A function with a fixed opening line ("void m_init(void) {") and a body.
struct Function {
  std::string opener;
  std::vector<Stmt> body;
};

/// A whole generated C translation unit.
struct TranslationUnit {
  std::vector<std::string> header_lines;    // printed verbatim, one per line
  std::vector<std::string> kernel_sources;  // embedded kernel C, verbatim
  std::vector<BufferDecl> buffers;
  Function init;
  Function step;
};

/// Deterministic pretty-printer.  Statement depth d indents 2*d spaces;
/// loops print their optional batch-region banner, then the `for` header
/// (or the single-iteration block form), body at depth d+1, and `}`.
std::string print(const TranslationUnit& tu);

/// Prints statements exactly as print() prints a function body at `depth`
/// (1 = the body of init or step).
std::string print(const std::vector<Stmt>& body, int depth = 1);

/// The C declaration line for one buffer (exactly as print() emits it).
std::string print_decl(const BufferDecl& decl);

/// Serializes the IR one line per node, in stable order ("cgir-v1" format).
/// The dump is lossless: parse_dump() reconstructs an equivalent tree, so
/// print(parse_dump(dump(tu))) == print(tu).
std::string dump(const TranslationUnit& tu);

/// Inverse of dump().  Throws hcg::ParseError on malformed input.
TranslationUnit parse_dump(const std::string& text);

}  // namespace hcg::cgir
