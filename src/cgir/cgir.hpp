// Structured codegen IR: a small C-AST sitting between synthesis and text.
//
// The emitter lowers scheduled actors and matched batch regions into a
// TranslationUnit instead of concatenating strings; optimization passes
// (cgir/passes.hpp) then rewrite the tree — fusing region loops, strip-mining
// scalar loops into vector ones, rebinding intermediate buffers onto an
// arena — before the deterministic pretty-printer turns it back into C.  The
// lowering declares one buffer per signal; which buffers share storage is
// decided by the arena pass alone, at every -O level.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hcg::cgir {

/// One piece of a text statement, which print() concatenates into its C
/// line.  Passes rewrite the references (arrays, locals, the loop index),
/// and for_each_access() derives the statement's accesses from its arrays.
struct Piece {
  enum class Kind : unsigned char {
    kText,     // literal C
    kBuffer,   // an array named whole: a call argument, a memcpy operand
    kElement,  // one element of an array: `name[index]`
    kLocal,    // a local variable
    kIndex,    // a loop index used as a value
  };

  Kind kind = Kind::kText;
  bool write = false;  // kBuffer, kElement: the statement writes the array
  std::string text{};  // kText: the C; otherwise the array's or local's name
  /// kElement, kIndex: the index is `var`, or `(var + lane)` once
  /// strip-mined; an element without `var` has the constant index
  /// `constant`.
  std::string var{};
  std::string lane{};
  int constant = 0;

  bool operator==(const Piece&) const = default;

  bool is_access() const {
    return kind == Kind::kBuffer || kind == Kind::kElement;
  }

  static Piece literal(std::string c) { return {.text = std::move(c)}; }
  static Piece buffer(std::string array, bool write) {
    return {.kind = Kind::kBuffer, .write = write, .text = std::move(array)};
  }
  /// `array[var]`: the element the loop over `var` is at.
  static Piece element(std::string array, bool write, std::string var = "i") {
    return {.kind = Kind::kElement, .write = write, .text = std::move(array),
            .var = std::move(var)};
  }
  static Piece element_at(std::string array, bool write, int constant) {
    return {.kind = Kind::kElement, .write = write, .text = std::move(array),
            .constant = constant};
  }
  static Piece local(std::string name) {
    return {.kind = Kind::kLocal, .text = std::move(name)};
  }
  static Piece index(std::string var = "i") {
    return {.kind = Kind::kIndex, .var = std::move(var)};
  }
};

/// A run of pieces: a statement's content, or part of one being built.
/// Appending merges adjacent literals, so equal C built the same way has
/// equal pieces.
using Pieces = std::vector<Piece>;

Pieces& operator+=(Pieces& out, std::string_view literal);
Pieces& operator+=(Pieces& out, const Pieces& more);
Pieces operator+(Pieces lhs, std::string_view rhs);
Pieces operator+(Pieces lhs, const Pieces& rhs);
Pieces operator+(std::string_view lhs, const Pieces& rhs);

/// A statement: either one line of C or a counted `for` loop.
///
/// A text line is its pieces plus what the passes need beyond its
/// accesses: which local it defines, and whether it is a pure load
/// (`v = vld(&buf[i]);`) or a pure store (`buf[i] = v;`): fusion drops a
/// repeated load, and scalar copy forwarding reads a store's value.
struct Stmt {
  enum class Kind : unsigned char { kText, kLoop };

  Kind kind = Kind::kText;

  // ---- kText ---------------------------------------------------------
  Pieces pieces;           // the C line, unindented; none = a blank line
  std::string defines;     // local variable this line declares ("" = none)
  /// Element C type when `defines` is a pointer or a local array.
  std::string array_ctype;
  std::string stores_var;  // for is_store lines: the value being stored
  bool is_load = false;    // pure elementwise load into `defines`
  bool is_store = false;   // pure elementwise store of `stores_var`
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

  /// A line of literal C ("" = a blank line).
  static Stmt text_line(std::string c) {
    return line(c.empty() ? Pieces{} : Pieces{Piece::literal(std::move(c))});
  }

  static Stmt line(Pieces pieces) {
    Stmt s;
    s.pieces = std::move(pieces);
    return s;
  }
};

/// One array a text statement touches.  `elementwise` means the access is
/// `buffer[i]` under a loop index, so two elementwise accesses with
/// disjoint iteration domains never alias.
struct BufferAccess {
  const std::string& buffer;  // the piece's name
  bool write;
  bool elementwise;
};

/// Calls `fn(BufferAccess)` for each array `stmt` touches, one call per
/// buffer or element piece in text order (none for a loop).  This is the
/// one place accesses come from.
template <class Fn>
void for_each_access(const Stmt& stmt, Fn&& fn) {
  for (const Piece& piece : stmt.pieces) {
    if (!piece.is_access()) continue;
    fn(BufferAccess{piece.text, piece.write,
                    piece.kind == Piece::Kind::kElement && !piece.var.empty()});
  }
}

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

/// The C line of one text statement, unindented.
std::string print_text(const Stmt& stmt);

/// Serializes the IR one line per node, in stable order ("cgir-v2" format,
/// a text line's pieces in order).  The dump is lossless: parse_dump()
/// reconstructs an equal tree, so dump(parse_dump(dump(tu))) == dump(tu).
std::string dump(const TranslationUnit& tu);

/// Inverse of dump().  Throws hcg::ParseError on malformed input, and on a
/// dump of another format version.
TranslationUnit parse_dump(const std::string& text);

}  // namespace hcg::cgir
