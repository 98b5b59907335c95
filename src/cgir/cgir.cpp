#include "cgir/cgir.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg::cgir {

namespace {

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

void print_stmt(const Stmt& stmt, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (stmt.kind == Stmt::Kind::kText) {
    // Empty text prints as a blank separator line, not an indented one.
    if (stmt.text.empty()) {
      out += "\n";
    } else {
      out += pad + stmt.text + "\n";
    }
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
// Dump ("cgir-v1": one line per IR node, children indented two spaces)
// ---------------------------------------------------------------------------

namespace {

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

std::string access_list(const std::vector<BufferAccess>& accesses) {
  std::string out;
  for (const BufferAccess& a : accesses) {
    if (!out.empty()) out += ",";
    out += a.buffer;
    out += a.write ? ":w" : ":r";
    if (a.elementwise) out += "e";
  }
  return out;
}

void dump_stmt(const Stmt& stmt, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (stmt.kind == Stmt::Kind::kText) {
    out += pad + "text t=" + quoted(stmt.text);
    if (!stmt.defines.empty()) out += " def=" + stmt.defines;
    if (!stmt.stores_var.empty()) out += " var=" + stmt.stores_var;
    if (stmt.is_load) out += " load=1";
    if (stmt.is_store) out += " store=1";
    if (!stmt.accesses.empty()) out += " acc=" + access_list(stmt.accesses);
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
  std::string out = "cgir-v1\n";
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

std::vector<BufferAccess> parse_access_list(const std::string& text) {
  std::vector<BufferAccess> accesses;
  if (text.empty()) return accesses;
  for (const std::string& piece : split(text, ',')) {
    const std::size_t colon = piece.rfind(':');
    if (colon == std::string::npos) {
      throw ParseError("cgir dump: bad access '" + piece + "'");
    }
    BufferAccess access;
    access.buffer = piece.substr(0, colon);
    const std::string mode = piece.substr(colon + 1);
    access.write = !mode.empty() && mode[0] == 'w';
    access.elementwise = ends_with(mode, "e");
    accesses.push_back(std::move(access));
  }
  return accesses;
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
  if (raw.empty() || raw[0] != "cgir-v1") {
    throw ParseError("cgir dump: missing cgir-v1 signature");
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
        stmt.text = field(fields, "t");
        stmt.defines = field(fields, "def");
        stmt.stores_var = field(fields, "var");
        stmt.is_load = field(fields, "load") == "1";
        stmt.is_store = field(fields, "store") == "1";
        stmt.accesses = parse_access_list(field(fields, "acc"));
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
