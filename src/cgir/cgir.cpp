#include "cgir/cgir.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg::cgir {

namespace {

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

/// Appends the C index of an element or loop-index piece.
void print_index(const Piece& piece, std::string& out) {
  if (piece.var.empty()) {
    out += std::to_string(piece.constant);
  } else if (piece.lane.empty()) {
    out += piece.var;
  } else {
    out.append("(").append(piece.var).append(" + ").append(piece.lane) += ')';
  }
}

/// Appends the C line `pieces` spell.
void print_pieces(const Pieces& pieces, std::string& out) {
  for (const Piece& piece : pieces) {
    if (piece.kind == Piece::Kind::kIndex) {
      print_index(piece, out);
      continue;
    }
    out += piece.text;
    if (piece.kind == Piece::Kind::kElement) {
      out += '[';
      print_index(piece, out);
      out += ']';
    }
  }
}

void print_stmt(const Stmt& stmt, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (stmt.kind == Stmt::Kind::kText) {
    // A line without pieces prints as a blank separator, not indented.
    if (!stmt.pieces.empty()) out += pad;
    print_pieces(stmt.pieces, out);
    out += '\n';
    return;
  }
  if (stmt.banner_actors > 0) {
    out += pad + "/* batch region (" + std::to_string(stmt.banner_actors) +
           " actors) -> " + stmt.banner_isa + " SIMD */\n";
  }
  const std::string& iv = stmt.induction_var;
  if (stmt.single_iteration) {
    out += pad + "{\n";
    out += pad + "  const int " + iv + " = " + std::to_string(stmt.begin) +
           ";\n";
  } else if (stmt.predicated) {
    out += pad + "for (int " + iv + " = " + std::to_string(stmt.begin) +
           "; " + iv + " < " + std::to_string(stmt.end) + "; " + iv + " += " +
           stmt.step_expr + ") {\n";
  } else if (stmt.vector_loop) {
    out += pad + "for (int " + iv + " = " + std::to_string(stmt.begin) +
           "; " + iv + " < " + std::to_string(stmt.end) + "; " + iv + " += " +
           std::to_string(stmt.step) + ") {\n";
  } else {
    out += pad + "for (int " + iv + " = " + std::to_string(stmt.begin) +
           "; " + iv + " < " + std::to_string(stmt.end) + "; ++" + iv +
           ") {\n";
  }
  for (const Stmt& child : stmt.body) print_stmt(child, depth + 1, out);
  out += pad + "}\n";
}

}  // namespace

Pieces& operator+=(Pieces& out, std::string_view literal) {
  if (literal.empty()) return out;
  if (!out.empty() && out.back().kind == Piece::Kind::kText) {
    out.back().text += literal;
  } else {
    out.push_back(Piece::literal(std::string(literal)));
  }
  return out;
}

Pieces& operator+=(Pieces& out, const Pieces& more) {
  for (const Piece& piece : more) {
    if (piece.kind == Piece::Kind::kText) {
      out += piece.text;
    } else {
      out.push_back(piece);
    }
  }
  return out;
}

Pieces operator+(Pieces lhs, std::string_view rhs) {
  return std::move(lhs += rhs);
}

Pieces operator+(Pieces lhs, const Pieces& rhs) {
  return std::move(lhs += rhs);
}

Pieces operator+(std::string_view lhs, const Pieces& rhs) {
  Pieces out;
  return std::move((out += lhs) += rhs);
}

std::string print_text(const Stmt& stmt) {
  std::string out;
  print_pieces(stmt.pieces, out);
  return out;
}

std::string print_decl(const BufferDecl& decl) {
  if (decl.is_const) {
    return "static const " + decl.ctype + " " + decl.name + "[" +
           std::to_string(decl.components) + "] = {" + decl.init_values + "};";
  }
  return "static " + decl.ctype + " " + decl.name + "[" +
         std::to_string(decl.components) + "];";
}

std::string print(const std::vector<Stmt>& body, int depth) {
  std::string out;
  for (const Stmt& stmt : body) print_stmt(stmt, depth, out);
  return out;
}

std::string print(const TranslationUnit& tu) {
  std::string out;
  for (const std::string& line : tu.header_lines) out += line + "\n";
  if (!tu.kernel_sources.empty()) {
    out += "/* ---- intensive-actor kernel library (embedded) ---- */\n";
    for (const std::string& source : tu.kernel_sources) {
      out += source;
      out += "\n";
    }
  }
  out += "/* ---- signal buffers ---- */\n";
  for (const BufferDecl& decl : tu.buffers) out += print_decl(decl) + "\n";
  out += "\n";
  out += tu.init.opener + "\n" + print(tu.init.body) + "}\n\n";
  out += tu.step.opener + "\n" + print(tu.step.body) + "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Dump ("cgir-v2": one line per IR node, children indented two spaces)
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kDumpVersion = "cgir-v2";

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += "\"";
  return out;
}

std::string index_field(const Piece& piece) {
  if (piece.var.empty()) return std::to_string(piece.constant);
  return piece.lane.empty() ? piece.var : piece.var + "+" + piece.lane;
}

void dump_stmt(const Stmt& stmt, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (stmt.kind == Stmt::Kind::kText) {
    // One field per piece, in order: t="C", r=name / w=name (an array read
    // or written whole), r=name[index] / w=name[index], loc=name, idx=index.
    out += pad + "text";
    for (const Piece& piece : stmt.pieces) {
      const char* access = piece.write ? " w=" : " r=";
      switch (piece.kind) {
        case Piece::Kind::kText: out += " t=" + quoted(piece.text); break;
        case Piece::Kind::kBuffer: out += access + piece.text; break;
        case Piece::Kind::kElement:
          out += access + piece.text + "[" + index_field(piece) + "]";
          break;
        case Piece::Kind::kLocal: out += " loc=" + piece.text; break;
        case Piece::Kind::kIndex: out += " idx=" + index_field(piece); break;
      }
    }
    if (!stmt.defines.empty()) out += " def=" + stmt.defines;
    if (!stmt.array_ctype.empty()) out += " ctype=" + quoted(stmt.array_ctype);
    if (!stmt.stores_var.empty()) out += " var=" + stmt.stores_var;
    if (stmt.is_load) out += " load=1";
    if (stmt.is_store) out += " store=1";
    if (!stmt.prof_tag.empty()) out += " prof=" + quoted(stmt.prof_tag);
    out += "\n";
    return;
  }
  out += pad + "loop begin=" + std::to_string(stmt.begin) +
         " end=" + std::to_string(stmt.end) +
         " step=" + std::to_string(stmt.step);
  if (stmt.vector_loop) out += " vector=1";
  if (stmt.single_iteration) out += " single=1";
  if (stmt.fusible) out += " fusible=1";
  if (stmt.strip_mined) out += " strip=1";
  if (stmt.predicated) out += " pred=1 stepx=" + quoted(stmt.step_expr);
  if (stmt.induction_var != "i") out += " ivar=" + stmt.induction_var;
  if (stmt.banner_actors > 0) {
    out += " actors=" + std::to_string(stmt.banner_actors) +
           " isa=" + quoted(stmt.banner_isa);
  }
  out += "\n";
  for (const Stmt& child : stmt.body) dump_stmt(child, depth + 1, out);
}

}  // namespace

std::string dump(const TranslationUnit& tu) {
  std::string out = std::string(kDumpVersion) + "\n";
  for (const std::string& line : tu.header_lines) {
    out += "header t=" + quoted(line) + "\n";
  }
  for (const std::string& source : tu.kernel_sources) {
    out += "kernel t=" + quoted(source) + "\n";
  }
  for (const BufferDecl& decl : tu.buffers) {
    out += "buffer name=" + decl.name + " ctype=" + quoted(decl.ctype) +
           " components=" + std::to_string(decl.components) +
           " elem_bytes=" + std::to_string(decl.elem_bytes) +
           " const=" + (decl.is_const ? std::string("1") : std::string("0")) +
           " eligible=" +
           (decl.arena_eligible ? std::string("1") : std::string("0")) +
           " init=" + quoted(decl.init_values) + "\n";
  }
  out += "func init opener=" + quoted(tu.init.opener) + "\n";
  for (const Stmt& stmt : tu.init.body) dump_stmt(stmt, 1, out);
  out += "func step opener=" + quoted(tu.step.opener) + "\n";
  for (const Stmt& stmt : tu.step.body) dump_stmt(stmt, 1, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser for the dump format
// ---------------------------------------------------------------------------

namespace {

/// Splits one dump line into "key=value" fields.  Values are either bare
/// tokens (up to the next space) or quoted strings with \\ \" \n escapes.
std::vector<std::pair<std::string, std::string>> parse_fields(
    std::string_view line, std::size_t start) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t i = start;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    const std::size_t eq = line.find('=', i);
    if (eq == std::string_view::npos) {
      throw ParseError("cgir dump: expected key=value in '" +
                       std::string(line) + "'");
    }
    std::string key(line.substr(i, eq - i));
    std::string value;
    i = eq + 1;
    if (i < line.size() && line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
          value += line[i] == 'n' ? '\n' : line[i];
        } else {
          value += line[i];
        }
        ++i;
      }
      if (i >= line.size()) {
        throw ParseError("cgir dump: unterminated string in '" +
                         std::string(line) + "'");
      }
      ++i;  // closing quote
    } else {
      const std::size_t end = line.find(' ', i);
      value = std::string(
          line.substr(i, end == std::string_view::npos ? end : end - i));
      i = end == std::string_view::npos ? line.size() : end;
    }
    fields.emplace_back(std::move(key), std::move(value));
  }
  return fields;
}

std::string field(
    const std::vector<std::pair<std::string, std::string>>& fields,
    const std::string& key, const std::string& fallback = "") {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return fallback;
}

/// Sets the index of an element or loop-index piece from its dump field.
void parse_index(std::string_view text, Piece& piece) {
  if (!text.empty() && (text[0] == '-' || (text[0] >= '0' && text[0] <= '9'))) {
    piece.constant = static_cast<int>(parse_int(text));
    return;
  }
  const std::size_t plus = text.find('+');
  const bool strip = plus != std::string_view::npos;
  piece.var = std::string(text.substr(0, plus));
  if (strip) piece.lane = std::string(text.substr(plus + 1));
  if (!is_identifier(piece.var) || (strip && !is_identifier(piece.lane))) {
    throw ParseError("cgir dump: bad index '" + std::string(text) + "'");
  }
}

/// Appends the piece a dump field encodes; other fields add nothing.
void parse_piece(const std::string& key, const std::string& value,
                 Pieces& out) {
  Piece piece;
  if (key == "t") {
    piece = Piece::literal(value);
  } else if (key == "loc") {
    piece = Piece::local(value);
  } else if (key == "idx") {
    piece.kind = Piece::Kind::kIndex;
    parse_index(value, piece);
  } else if (key == "r" || key == "w") {
    const std::size_t open = value.find('[');
    piece.kind = open == std::string::npos ? Piece::Kind::kBuffer
                                           : Piece::Kind::kElement;
    piece.write = key == "w";
    piece.text = value.substr(0, open);
    if (open != std::string::npos) {
      if (!value.ends_with(']')) {
        throw ParseError("cgir dump: bad element '" + value + "'");
      }
      parse_index(
          std::string_view(value).substr(open + 1, value.size() - open - 2),
          piece);
    }
  } else {
    return;
  }
  out.push_back(std::move(piece));
}

}  // namespace

TranslationUnit parse_dump(const std::string& text) {
  TranslationUnit tu;
  const std::vector<std::string> raw = [&] {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t nl = text.find('\n', start);
      if (nl == std::string::npos) {
        if (start < text.size()) lines.push_back(text.substr(start));
        break;
      }
      lines.push_back(text.substr(start, nl - start));
      start = nl + 1;
    }
    return lines;
  }();
  if (raw.empty() || raw[0] != kDumpVersion) {
    throw ParseError("cgir dump: header '" + (raw.empty() ? "" : raw[0]) +
                     "' is not " + std::string(kDumpVersion));
  }

  Function* func = nullptr;
  // Stack of open statement bodies by depth; depth 0 is the function body.
  std::vector<std::vector<Stmt>*> bodies;

  for (std::size_t n = 1; n < raw.size(); ++n) {
    const std::string& line = raw[n];
    if (line.empty()) continue;
    std::size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    const std::size_t depth = indent / 2;
    std::size_t word_end = line.find(' ', indent);
    const std::string word = line.substr(
        indent, word_end == std::string::npos ? word_end : word_end - indent);
    std::string func_name;
    if (word == "func" && word_end != std::string::npos) {
      // "func init opener=..." — the function name is a bare second word.
      const std::size_t name_start = word_end + 1;
      const std::size_t name_end = line.find(' ', name_start);
      func_name = line.substr(name_start, name_end == std::string::npos
                                              ? name_end
                                              : name_end - name_start);
      word_end = name_end;
    }
    const auto fields = parse_fields(
        line, word_end == std::string::npos ? line.size() : word_end);

    if (word == "header") {
      tu.header_lines.push_back(field(fields, "t"));
    } else if (word == "kernel") {
      tu.kernel_sources.push_back(field(fields, "t"));
    } else if (word == "buffer") {
      BufferDecl decl;
      decl.name = field(fields, "name");
      decl.ctype = field(fields, "ctype");
      decl.components = static_cast<int>(parse_int(field(fields, "components", "0")));
      decl.elem_bytes =
          static_cast<std::size_t>(parse_int(field(fields, "elem_bytes", "0")));
      decl.is_const = field(fields, "const") == "1";
      decl.arena_eligible = field(fields, "eligible") == "1";
      decl.init_values = field(fields, "init");
      tu.buffers.push_back(std::move(decl));
    } else if (word == "func") {
      if (func_name != "init" && func_name != "step") {
        throw ParseError("cgir dump: unknown function '" + func_name + "'");
      }
      func = func_name == "init" ? &tu.init : &tu.step;
      func->opener = field(fields, "opener");
      bodies.assign(1, &func->body);
    } else if (word == "text" || word == "loop") {
      if (func == nullptr || depth < 1 || depth > bodies.size()) {
        throw ParseError("cgir dump: statement outside a function at line " +
                         std::to_string(n + 1));
      }
      bodies.resize(depth);  // close deeper loops
      Stmt stmt;
      if (word == "text") {
        stmt.kind = Stmt::Kind::kText;
        for (const auto& [key, value] : fields) {
          parse_piece(key, value, stmt.pieces);
        }
        stmt.defines = field(fields, "def");
        stmt.array_ctype = field(fields, "ctype");
        stmt.stores_var = field(fields, "var");
        stmt.is_load = field(fields, "load") == "1";
        stmt.is_store = field(fields, "store") == "1";
        stmt.prof_tag = field(fields, "prof");
        bodies.back()->push_back(std::move(stmt));
      } else {
        stmt.kind = Stmt::Kind::kLoop;
        stmt.begin = static_cast<int>(parse_int(field(fields, "begin", "0")));
        stmt.end = static_cast<int>(parse_int(field(fields, "end", "0")));
        stmt.step = static_cast<int>(parse_int(field(fields, "step", "1")));
        stmt.vector_loop = field(fields, "vector") == "1";
        stmt.single_iteration = field(fields, "single") == "1";
        stmt.fusible = field(fields, "fusible") == "1";
        stmt.strip_mined = field(fields, "strip") == "1";
        stmt.predicated = field(fields, "pred") == "1";
        stmt.step_expr = field(fields, "stepx");
        stmt.induction_var = field(fields, "ivar", "i");
        stmt.banner_actors =
            static_cast<int>(parse_int(field(fields, "actors", "0")));
        stmt.banner_isa = field(fields, "isa");
        bodies.back()->push_back(std::move(stmt));
        bodies.push_back(&bodies.back()->back().body);
      }
    } else {
      throw ParseError("cgir dump: unknown node '" + word + "'");
    }
  }
  return tu;
}

}  // namespace hcg::cgir
