// Unit tests for the cgir code-generation IR: the deterministic printer, the
// cgir-v2 dump/parse round-trip, and the optimization passes (region loop
// fusion, scalar copy forwarding, arena reuse, cross-scale strip-mining, lane
// localization) on hand-built translation units.
#include <gtest/gtest.h>

#include <filesystem>

#include "cgir/cgir.hpp"
#include "cgir/passes.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"

namespace hcg::cgir {
namespace {

Piece lit(std::string c) { return Piece::literal(std::move(c)); }

Stmt load(const std::string& var, const std::string& buffer) {
  Stmt s = Stmt::line({lit("float32x4_t "), Piece::local(var),
                       lit(" = vld1q_f32(&"), Piece::element(buffer, false),
                       lit(");")});
  s.defines = var;
  s.is_load = true;
  return s;
}

/// `float32x4_t var = fn(args...);` over vector locals.
Stmt calc(const std::string& var, const std::string& fn,
          const std::vector<std::string>& args) {
  Pieces pieces = {lit("float32x4_t "), Piece::local(var),
                   lit(" = " + fn + "(")};
  for (std::size_t k = 0; k < args.size(); ++k) {
    if (k > 0) pieces += ", ";
    pieces += Pieces{Piece::local(args[k])};
  }
  pieces += ");";
  Stmt s = Stmt::line(std::move(pieces));
  s.defines = var;
  return s;
}

Stmt store(const std::string& buffer, const std::string& var) {
  Stmt s = Stmt::line({lit("vst1q_f32(&"), Piece::element(buffer, true),
                       lit(", "), Piece::local(var), lit(");")});
  s.stores_var = var;
  s.is_store = true;
  return s;
}

Stmt vloop(int begin, int end, int step, std::vector<Stmt> body) {
  Stmt s;
  s.kind = Stmt::Kind::kLoop;
  s.begin = begin;
  s.end = end;
  s.step = step;
  s.vector_loop = true;
  s.fusible = true;
  s.body = std::move(body);
  return s;
}

BufferDecl f32_buffer(const std::string& name, int components,
                      bool eligible = true) {
  BufferDecl decl;
  decl.name = name;
  decl.ctype = "float";
  decl.components = components;
  decl.elem_bytes = 4;
  decl.arena_eligible = eligible;
  return decl;
}

TranslationUnit unit_with_step(std::vector<Stmt> body,
                               std::vector<BufferDecl> buffers = {}) {
  TranslationUnit tu;
  tu.header_lines = {"/* test */", ""};
  tu.buffers = std::move(buffers);
  tu.init.opener = "void m_init(void) {";
  tu.step.opener = "void m_step(const void* const* inputs, void* const* "
                   "outputs) {";
  tu.step.body = std::move(body);
  return tu;
}

/// The printed step function, from its opener to the end of the unit.
std::string printed_step(const TranslationUnit& tu) {
  const std::string source = print(tu);
  return source.substr(source.find(tu.step.opener));
}

/// A whole-buffer kernel call writing `out` from `in`.
Stmt kernel_call(const std::string& name, const std::string& in,
                 const std::string& out) {
  return Stmt::line({lit(name + "("), Piece::buffer(in, false), lit(", "),
                     Piece::buffer(out, true), lit(");")});
}

/// A whole-buffer call that only writes `out`.
Stmt fill(const std::string& name, const std::string& out) {
  return Stmt::line({lit(name + "("), Piece::buffer(out, true), lit(");")});
}

/// The buffer accesses of `stmt`, as "name:r", "name:we" strings.
std::vector<std::string> access_list(const Stmt& stmt) {
  std::vector<std::string> out;
  for_each_access(stmt, [&](const BufferAccess& access) {
    out.push_back(access.buffer + (access.write ? ":w" : ":r") +
                  (access.elementwise ? "e" : ""));
  });
  return out;
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

TEST(CgirPrint, TextLoopsAndBlankLines) {
  TranslationUnit tu = unit_with_step({});
  tu.step.body.push_back(Stmt::text_line("int x = 0;"));
  tu.step.body.push_back(Stmt::text_line(""));
  Stmt loop;
  loop.kind = Stmt::Kind::kLoop;
  loop.begin = 0;
  loop.end = 8;
  loop.step = 1;
  loop.body.push_back(Stmt::text_line("y[i] = x;"));
  tu.step.body.push_back(loop);

  const std::string source = print(tu);
  EXPECT_NE(source.find("  int x = 0;\n\n"), std::string::npos)
      << "blank separator lines must not be indented";
  EXPECT_NE(source.find("  for (int i = 0; i < 8; ++i) {\n"
                        "    y[i] = x;\n"
                        "  }\n"),
            std::string::npos);
  EXPECT_NE(source.find("/* ---- signal buffers ---- */\n"), std::string::npos);
  EXPECT_EQ(source.find("kernel library"), std::string::npos)
      << "kernel banner must be omitted when no kernels are embedded";
  EXPECT_TRUE(source.ends_with("}\n"));
}

TEST(CgirPrint, VectorAndSingleIterationLoops) {
  Stmt vec = vloop(3, 259, 4, {Stmt::text_line("body();")});
  vec.banner_actors = 2;
  vec.banner_isa = "neon";
  Stmt single = vloop(0, 4, 4, {Stmt::text_line("once();")});
  single.single_iteration = true;
  TranslationUnit tu = unit_with_step({vec, single});

  const std::string source = print(tu);
  EXPECT_NE(source.find("  /* batch region (2 actors) -> neon SIMD */\n"
                        "  for (int i = 3; i < 259; i += 4) {\n"),
            std::string::npos);
  EXPECT_NE(source.find("  {\n    const int i = 0;\n    once();\n  }\n"),
            std::string::npos);
}

TEST(CgirPrint, BufferDeclarations) {
  BufferDecl plain = f32_buffer("sig_a", 8);
  BufferDecl constant;
  constant.name = "taps";
  constant.ctype = "float";
  constant.components = 2;
  constant.elem_bytes = 4;
  constant.is_const = true;
  constant.init_values = "0.250000f, 0.500000f";
  EXPECT_EQ(print_decl(plain), "static float sig_a[8];");
  EXPECT_EQ(print_decl(constant),
            "static const float taps[2] = {0.250000f, 0.500000f};");
  EXPECT_EQ(plain.bytes(), 32u);
}

// ---------------------------------------------------------------------------
// Dump round-trip
// ---------------------------------------------------------------------------

TEST(CgirDump, RoundTripsThroughParse) {
  Stmt rem;
  rem.kind = Stmt::Kind::kLoop;
  rem.begin = 0;
  rem.end = 3;
  rem.step = 1;
  rem.fusible = true;
  rem.banner_actors = 2;
  rem.banner_isa = "neon_sim";
  Stmt line = Stmt::line({lit("float "), Piece::local("a_s"), lit(" = "),
                          Piece::element("in_a", false), lit(" + 1.0f;")});
  line.defines = "a_s";
  rem.body.push_back(line);
  Stmt input = Stmt::line({lit("const float* "), Piece::local("in_a"),
                           lit(" = (const float*)inputs[0];")});
  input.defines = "in_a";
  input.array_ctype = "float";

  TranslationUnit tu = unit_with_step(
      {input, rem,
       vloop(3, 7, 4, {load("a_b", "in_a"), store("out_y", "a_b")}),
       Stmt::text_line(""),
       Stmt::line({lit("memset("), Piece::buffer("sig_t", true),
                   lit(", 0, sizeof("), Piece::buffer("sig_t", true),
                   lit("));")}),
       Stmt::line({Piece::element_at("sig_t", true, 6), lit(" = "),
                   Piece::index(), lit(";")})},
      {f32_buffer("sig_t", 7)});
  tu.step.body.back().pieces[2].lane = "k";
  tu.kernel_sources.push_back("void helper(void) {}\n");

  const std::string serialized = dump(tu);
  EXPECT_EQ(serialized.rfind("cgir-v2\n", 0), 0u);
  TranslationUnit reparsed = parse_dump(serialized);
  EXPECT_EQ(print(reparsed), print(tu));
  EXPECT_EQ(dump(reparsed), serialized);
  EXPECT_EQ(print_text(reparsed.step.body[5]), "sig_t[6] = (i + k);");
  ASSERT_EQ(reparsed.buffers.size(), 1u);
  EXPECT_TRUE(reparsed.buffers[0].arena_eligible);
  ASSERT_EQ(reparsed.step.body.size(), 6u);
  EXPECT_EQ(reparsed.step.body[0].array_ctype, "float");
  EXPECT_TRUE(reparsed.step.body[2].body[0].is_load);
  EXPECT_EQ(access_list(reparsed.step.body[1].body[0]),
            std::vector<std::string>{"in_a:re"});
  EXPECT_EQ(access_list(reparsed.step.body[4]),
            (std::vector<std::string>{"sig_t:w", "sig_t:w"}));
}

TEST(CgirDump, RejectsMalformedInput) {
  EXPECT_THROW(parse_dump("not-cgir\n"), ParseError);
  EXPECT_THROW(parse_dump("cgir-v2\nfunc bogus opener=\"x\"\n"), ParseError);
  EXPECT_THROW(parse_dump("cgir-v2\ntext t=\"orphan\"\n"), ParseError);
  EXPECT_THROW(parse_dump("cgir-v2\nfunc step opener=\"x\"\n  text r=a[i+]\n"),
               ParseError);
  // A dump of another format version is refused by name, not misread.
  try {
    parse_dump("cgir-v1\nfunc step opener=\"x\"\n  text t=\"f();\"\n");
    FAIL() << "cgir-v1 parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'cgir-v1'"), std::string::npos)
        << e.what();
  }
}

/// The fenced dump example in docs/CODEGEN_IR.md's dump section.
std::string documented_dump() {
  const std::string doc = read_file(std::filesystem::path(HCG_REPO_ROOT) /
                                    "docs" / "CODEGEN_IR.md");
  const std::size_t start = doc.find("```\ncgir-v2\n");
  if (start == std::string::npos) return "";
  const std::size_t body = start + 4;
  return doc.substr(body, doc.find("```", body) - body);
}

TEST(CgirDocsAntiDrift, DumpExampleRoundTrips) {
  const std::string example = documented_dump();
  ASSERT_FALSE(example.empty())
      << "docs/CODEGEN_IR.md has no fenced cgir-v2 dump example";
  EXPECT_EQ(dump(parse_dump(example)), example)
      << "the documented dump no longer matches what dump() writes";
}

// ---------------------------------------------------------------------------
// Loop fusion
// ---------------------------------------------------------------------------

TEST(CgirFusion, MergesSameShapeLoops) {
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       vloop(0, 64, 4, {load("b_b", "in_b"), store("out_q", "b_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 1);
  ASSERT_EQ(tu.step.body.size(), 1u);
  EXPECT_EQ(tu.step.body[0].body.size(), 4u);

  // An earlier loop without a banner takes the later loop's actor count
  // and ISA name, so the merged banner never prints an empty ISA.
  TranslationUnit bannered = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       vloop(0, 64, 4, {load("b_b", "in_b"), store("out_q", "b_b")})});
  bannered.step.body[1].banner_actors = 3;
  bannered.step.body[1].banner_isa = "neon_sim";
  run_passes(bannered, {});
  ASSERT_EQ(bannered.step.body.size(), 1u);
  EXPECT_NE(printed_step(bannered).find(
                "/* batch region (3 actors) -> neon_sim SIMD */"),
            std::string::npos)
      << printed_step(bannered);
}

TEST(CgirFusion, RespectsShapeAndFusibility) {
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {store("out_p", "a_b")}),
       vloop(0, 32, 4, {store("out_q", "b_b")})});  // different domain
  tu.step.body.push_back(vloop(0, 64, 4, {store("out_r", "c_b")}));
  tu.step.body[2].fusible = false;  // opted out
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 0);
  EXPECT_EQ(tu.step.body.size(), 3u);
}

TEST(CgirFusion, HoistsConflictingInterveningStatement) {
  // The kernel call between the loops writes the buffer the second loop
  // reads.  Fusion never hoists a statement above a merged loop, so the
  // call blocks the merge and stays between the two loops.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       kernel_call("kernel", "in_x", "sig_k"),
       vloop(0, 64, 4, {load("k_b", "sig_k"), store("out_q", "k_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 0);
  ASSERT_EQ(tu.step.body.size(), 3u);
  EXPECT_EQ(tu.step.body[0].kind, Stmt::Kind::kLoop);
  EXPECT_EQ(print_text(tu.step.body[1]), "kernel(in_x, sig_k);");
  EXPECT_EQ(tu.step.body[2].kind, Stmt::Kind::kLoop);
}

TEST(CgirFusion, IndependentInterveningStatementStaysBehind) {
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {store("out_p", "a_b")}),
       Stmt::line({lit("memcpy("), Piece::buffer("out_z", true), lit(", "),
                   Piece::buffer("sig_z", false), lit(", 16);")}),
       vloop(0, 64, 4, {store("out_q", "b_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 1);
  ASSERT_EQ(tu.step.body.size(), 2u);
  EXPECT_EQ(tu.step.body[0].kind, Stmt::Kind::kLoop);
  EXPECT_EQ(print_text(tu.step.body[1]), "memcpy(out_z, sig_z, 16);");
}

TEST(CgirFusion, AbortsWhenInterveningStatementConflictsBothWays) {
  // Reads what the first loop stores AND writes what the second reads:
  // it conflicts with the second loop, so the loops must not merge.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {store("out_p", "a_b")}),
       kernel_call("transform", "out_p", "sig_k"),
       vloop(0, 64, 4, {load("k_b", "sig_k"), store("out_q", "k_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 0);
  EXPECT_EQ(tu.step.body.size(), 3u);
}

TEST(CgirFusion, AbortsOnNonElementwiseSharedBuffer) {
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {store("sig_s", "a_b")}),
       vloop(0, 64, 4, {fill("prefix_sum", "sig_s")})});  // whole-buffer write
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 0);
}

TEST(CgirFusion, SharedLoadIsDeduplicated) {
  // Both regions load in_w into w_b; after the merge one load suffices.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4,
             {load("w_b", "in_w"), load("a_b", "in_a"),
              calc("p_b", "vaddq_f32", {"a_b", "w_b"}), store("out_p", "p_b")}),
       vloop(0, 64, 4,
             {load("w_b", "in_w"), load("b_b", "in_b"),
              calc("q_b", "vmulq_f32", {"b_b", "w_b"}),
              store("out_q", "q_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_GE(stats.copies_elided, 1);
  ASSERT_EQ(tu.step.body.size(), 1u);
  int loads_of_w = 0;
  for (const Stmt& line : tu.step.body[0].body) {
    if (line.is_load && access_list(line)[0] == "in_w:re") {
      ++loads_of_w;
    }
  }
  EXPECT_EQ(loads_of_w, 1);
}

TEST(CgirFusion, HoistThenLaterLoopJoinsTheMergedLoop) {
  // The kernel call feeding the second loop blocks its merge into the first
  // and stays in place.  The third loop looks back, meets the second loop
  // before the call, and joins it: the nearest compatible candidate wins.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       kernel_call("kernel", "in_x", "sig_k"),
       vloop(0, 64, 4, {load("k_b", "sig_k"), store("out_q", "k_b")}),
       vloop(0, 64, 4, {load("c_b", "in_c"), store("out_r", "c_b")})});
  PassOptions options;
  options.opt_level = 1;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&out_p[i], a_b);\n"
            "  }\n"
            "  kernel(in_x, sig_k);\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t k_b = vld1q_f32(&sig_k[i]);\n"
            "    vst1q_f32(&out_q[i], k_b);\n"
            "    float32x4_t c_b = vld1q_f32(&in_c[i]);\n"
            "    vst1q_f32(&out_r[i], c_b);\n"
            "  }\n"
            "}\n");
}

TEST(CgirFusion, MergedLoopIsScannedAgainAtItsPosition) {
  // The scan visits each statement once.  mix() writes what the sig_x loop
  // reads, so that loop cannot join the first.  The sig_y loop joins the
  // sig_x loop, and the merged loop is not scanned again: it stays behind
  // mix() and prep(), which both conflict with it.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("c_b", "in_c"), store("out_c", "c_b")}),
       kernel_call("prep", "in_y", "sig_y"),
       kernel_call("mix", "sig_y", "sig_x"),
       vloop(0, 64, 4, {load("x_b", "sig_x"), store("out_e", "x_b")}),
       vloop(0, 64, 4, {load("y_b", "sig_y"), store("out_l", "y_b")})});
  PassOptions options;
  options.opt_level = 1;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t c_b = vld1q_f32(&in_c[i]);\n"
            "    vst1q_f32(&out_c[i], c_b);\n"
            "  }\n"
            "  prep(in_y, sig_y);\n"
            "  mix(sig_y, sig_x);\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t x_b = vld1q_f32(&sig_x[i]);\n"
            "    vst1q_f32(&out_e[i], x_b);\n"
            "    float32x4_t y_b = vld1q_f32(&sig_y[i]);\n"
            "    vst1q_f32(&out_l[i], y_b);\n"
            "  }\n"
            "}\n");
}

TEST(CgirFusion, LaterLoopAtTheEndOfTheBody) {
  // The later loop is the body's last statement: the merge removes it and
  // the independent statement between the loops stays behind them.
  TranslationUnit tu = unit_with_step(
      {kernel_call("prepare", "in_x", "sig_w"),
       vloop(0, 64, 4, {load("w_b", "sig_w"), store("out_p", "w_b")}),
       kernel_call("other", "in_y", "out_z"),
       vloop(0, 64, 4, {load("w_b", "sig_w"), store("out_q", "w_b")})});
  PassOptions options;
  options.opt_level = 1;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_EQ(stats.copies_elided, 1);  // the shared load of sig_w
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  prepare(in_x, sig_w);\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t w_b = vld1q_f32(&sig_w[i]);\n"
            "    vst1q_f32(&out_p[i], w_b);\n"
            "    vst1q_f32(&out_q[i], w_b);\n"
            "  }\n"
            "  other(in_y, out_z);\n"
            "}\n");
}

Stmt scalar_loop(int begin, int end, std::vector<Stmt> body) {
  Stmt s;
  s.kind = Stmt::Kind::kLoop;
  s.begin = begin;
  s.end = end;
  s.step = 1;
  s.fusible = true;
  s.body = std::move(body);
  return s;
}

/// `written[i] = read[i]<tail>;`
Stmt scalar_line(const std::string& written, const std::string& read,
                 const std::string& tail = "") {
  return Stmt::line({Piece::element(written, true), lit(" = "),
                     Piece::element(read, false), lit(tail + ";")});
}

TEST(CgirCrossScale, RolledBackAttemptRestoresBodyAndCounters) {
  // The scalar loop over [0, 10) strip-mines into the shape of the vector
  // loop over [2, 10).  Its front cover [0, 2) fuses with the remainder
  // loop, but the strip cannot join the vector loop (the vector loop writes
  // sig_w as a whole), so the attempt rolls back: body, loops_fused and
  // copies_elided return to what the same-shape fuser left.
  TranslationUnit tu = unit_with_step(
      {scalar_loop(0, 2, {scalar_line("out_p", "in_a")}),
       vloop(2, 10, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       vloop(2, 10, 4, {load("a_b", "in_a"), fill("fill", "sig_w")}),
       scalar_loop(0, 10, {scalar_line("out_s", "sig_w", " * 2")})});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.cross_scale_fused, 0);
  EXPECT_EQ(stats.loops_fused, 1);    // the two vector loops only
  EXPECT_EQ(stats.copies_elided, 1);  // their shared load of in_a
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 2; ++i) {\n"
            "    out_p[i] = in_a[i];\n"
            "  }\n"
            "  for (int i = 2; i < 10; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&out_p[i], a_b);\n"
            "    fill(sig_w);\n"
            "  }\n"
            "  for (int i = 0; i < 10; ++i) {\n"
            "    out_s[i] = sig_w[i] * 2;\n"
            "  }\n"
            "}\n");
}

TEST(CgirFusion, FarmOfShapeGroupsFusesInScanOrder) {
  // A kernel farm: per actor a kernel call, a region loop in one of four
  // shapes, and a whole-buffer call that reads the loop's output.  The loop
  // of actors 4-7 has a same-shape loop four actors back, but the kernel
  // call feeding it sits in between and conflicts with it.  Fusion never
  // hoists that call, so no loop merges and the farm keeps its unfused
  // order: each kernel output is consumed before the next actor starts.
  std::vector<Stmt> body;
  for (int k = 0; k < 8; ++k) {
    const std::string n = std::to_string(k);
    const std::string sig = "sig_" + n;
    const std::string out = "out_" + n;
    body.push_back(kernel_call("kern", "in_x" + n, sig));
    Stmt loop;
    switch (k % 4) {
      case 0:
        loop = vloop(0, 8, 4,
                     {load("w_b", "in_w"), load("s" + n + "_b", sig),
                      calc("g" + n + "_b", "vmulq_f32",
                           {"s" + n + "_b", "w_b"}),
                      store(out, "g" + n + "_b")});
        break;
      case 1:
        loop = scalar_loop(0, 3, {scalar_line(out, sig, " * 0.5f")});
        break;
      case 2:
        loop = vloop(3, 259, 4, {load("s" + n + "_b", sig), store(out, "s" + n + "_b")});
        break;
      default:
        loop = vloop(0, 4, 4, {load("s" + n + "_b", sig), store(out, "s" + n + "_b")});
        loop.vector_loop = false;
        loop.single_iteration = true;
        break;
    }
    body.push_back(std::move(loop));
    body.push_back(kernel_call("post", out, "res_" + n));
  }
  TranslationUnit tu = unit_with_step(std::move(body));
  const std::string unfused = printed_step(tu);
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 0);
  EXPECT_EQ(stats.copies_elided, 0);
  EXPECT_EQ(printed_step(tu), unfused);
}

TEST(CgirFusion, InternedBuffersNeitherMergeNorSplit) {
  // b1 and b10 intern to distinct ids.  fill(b10) writes what the second
  // vector loop reads, so it blocks that loop's merge and stays in place.
  // fill(b1) writes only what the first loop wrote, so it does not block
  // the merge and stays behind the merged loop.  The remainder loop between
  // the vector loops writes out_q over [0, 2), disjoint from the second
  // loop's [2, 10), so it stays behind the merged loop too.
  auto unit = [](const std::string& filled) {
    return unit_with_step(
        {vloop(2, 10, 4, {load("a_b", "in_a"), store("b1", "a_b")}),
         scalar_loop(0, 2, {scalar_line("out_q", "b1")}),
         fill("fill", filled),
         vloop(2, 10, 4, {load("t_b", "b10"), store("out_q", "t_b")})});
  };
  TranslationUnit blocked = unit("b10");
  const std::string unfused = printed_step(blocked);
  EXPECT_EQ(run_passes(blocked, {}).loops_fused, 0);
  EXPECT_EQ(printed_step(blocked), unfused);

  TranslationUnit merged = unit("b1");
  EXPECT_EQ(run_passes(merged, {}).loops_fused, 1);
  EXPECT_EQ(printed_step(merged),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 2; i < 10; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&b1[i], a_b);\n"
            "    float32x4_t t_b = vld1q_f32(&b10[i]);\n"
            "    vst1q_f32(&out_q[i], t_b);\n"
            "  }\n"
            "  for (int i = 0; i < 2; ++i) {\n"
            "    out_q[i] = b1[i];\n"
            "  }\n"
            "  fill(b1);\n"
            "}\n");
}

TEST(CgirFusion, NearestCandidateRejectedFartherOneMerges) {
  // The third loop cannot join the second (both define c_b, with different
  // loads), so it looks further back and joins the first; the second loop
  // is independent of it and stays behind the merged loop.  The second
  // loop cannot join the first either (a_b collides the same way).
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("out_p", "a_b")}),
       vloop(0, 64, 4,
             {load("a_b", "in_c"), calc("c_b", "vaddq_f32", {"a_b", "a_b"}),
              store("out_r", "c_b")}),
       vloop(0, 64, 4, {load("c_b", "in_d"), store("out_s", "c_b")})});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&out_p[i], a_b);\n"
            "    float32x4_t c_b = vld1q_f32(&in_d[i]);\n"
            "    vst1q_f32(&out_s[i], c_b);\n"
            "  }\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_c[i]);\n"
            "    float32x4_t c_b = vaddq_f32(a_b, a_b);\n"
            "    vst1q_f32(&out_r[i], c_b);\n"
            "  }\n"
            "}\n");
}

// ---------------------------------------------------------------------------
// Copy forwarding
// ---------------------------------------------------------------------------

TEST(CgirForward, VectorReloadOfStoredBufferStays) {
  // Region B reloads the sig_t region A stores.  Algorithm 2 keeps a
  // region's own intermediates in registers, so no pass forwards a vector
  // reload: even at -O2 the fused body keeps the load and the buffer.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("sig_t", "a_b")}),
       vloop(0, 64, 4,
             {load("t_b", "sig_t"), calc("q_b", "vaddq_f32", {"t_b", "t_b"}),
              store("out_q", "q_b")})},
      {f32_buffer("sig_t", 64)});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.loops_fused, 1);
  EXPECT_EQ(stats.copies_elided, 0);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&buf0[i], a_b);\n"
            "    float32x4_t t_b = vld1q_f32(&buf0[i]);\n"
            "    float32x4_t q_b = vaddq_f32(t_b, t_b);\n"
            "    vst1q_f32(&out_q[i], q_b);\n"
            "  }\n"
            "}\n");

  // A reload into the producer's own register would define a_b twice, so
  // the two loops do not merge: only a shared load may repeat a local.
  TranslationUnit same_name = unit_with_step(
      {vloop(0, 64, 4, {load("a_b", "in_a"), store("sig_t", "a_b")}),
       vloop(0, 64, 4, {load("a_b", "sig_t"), store("out_q", "a_b")})},
      {f32_buffer("sig_t", 64)});
  EXPECT_EQ(run_passes(same_name, options).loops_fused, 0);
  EXPECT_EQ(same_name.step.body.size(), 2u);
}

TEST(CgirForward, ScalarRemainderReadIsForwarded) {
  Stmt st = Stmt::line({Piece::element("sig_t", true), lit(" = "),
                        Piece::local("a_s"), lit(";")});
  st.stores_var = "a_s";
  st.is_store = true;
  Stmt rd = scalar_line("out_q", "sig_t", " * 2.0f");
  rd.is_store = true;
  rd.stores_var = "q_s";
  Stmt loop;
  loop.kind = Stmt::Kind::kLoop;
  loop.begin = 0;
  loop.end = 3;
  loop.step = 1;
  loop.fusible = true;
  loop.body = {st, rd};
  TranslationUnit tu = unit_with_step({loop}, {f32_buffer("sig_t", 64)});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(print_text(tu.step.body[0].body.back()), "out_q[i] = a_s * 2.0f;");
  EXPECT_EQ(access_list(tu.step.body[0].body.back()),
            std::vector<std::string>{"out_q:we"});
  EXPECT_EQ(stats.copies_elided, 1);  // one swapped read

  // forward_copies runs from -O2: at -O1 the read stays.
  TranslationUnit at_o1 = unit_with_step({loop}, {f32_buffer("sig_t", 64)});
  EXPECT_EQ(run_passes(at_o1, {}).copies_elided, 0);
  EXPECT_EQ(print_text(at_o1.step.body[0].body.back()),
            "out_q[i] = buf0[i] * 2.0f;");
}

// ---------------------------------------------------------------------------
// Arena reuse
// ---------------------------------------------------------------------------

TEST(CgirArena, RebindsDisjointLiveRanges) {
  // sig_a is dead before sig_b's first write, so both share one slot sized
  // for the larger of the two.
  TranslationUnit tu = unit_with_step(
      {kernel_call("kernel_a", "in_x", "sig_a"),
       kernel_call("consume_a", "sig_a", "out_p"),
       kernel_call("kernel_b", "in_y", "sig_b"),
       kernel_call("consume_b", "sig_b", "out_q")},
      {f32_buffer("sig_a", 8), f32_buffer("sig_b", 16)});
  PassOptions options;
  options.opt_level = 0;
  PassStats stats = run_passes(tu, options);

  ASSERT_EQ(tu.buffers.size(), 1u);
  EXPECT_EQ(tu.buffers[0].name, "buf0");
  EXPECT_EQ(tu.buffers[0].components, 16);
  EXPECT_EQ(stats.arena_bindings.size(), 2u);
  EXPECT_EQ(stats.arena_bytes_saved, (8u + 16u) * 4u - 16u * 4u);
  EXPECT_EQ(print_text(tu.step.body[0]), "kernel_a(in_x, buf0);");
  EXPECT_EQ(print_text(tu.step.body[2]), "kernel_b(in_y, buf0);");
}

TEST(CgirArena, OverlappingRangesKeepSeparateSlots) {
  Stmt r_both = Stmt::line({lit("combine("), Piece::buffer("sig_a", false),
                            lit(", "), Piece::buffer("sig_b", false), lit(", "),
                            Piece::buffer("out_p", true), lit(");")});
  TranslationUnit tu = unit_with_step(
      {kernel_call("kernel_a", "in_x", "sig_a"),
       kernel_call("kernel_b", "in_y", "sig_b"), r_both},
      {f32_buffer("sig_a", 8), f32_buffer("sig_b", 8)});
  PassOptions options;
  options.opt_level = 0;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(tu.buffers.size(), 2u);
  EXPECT_EQ(stats.arena_bytes_saved, 0u);
}

TEST(CgirArena, RenameIsIdentifierExact) {
  // sig_a is a prefix of sig_ab, and both names occur inside longer
  // identifiers and a comment; only the buffer references are renamed.
  Stmt w_a = Stmt::line({lit("kernel_a(in_x, "), Piece::buffer("sig_a", true),
                         lit(", sig_a_len, xsig_a);")});
  Stmt w_ab = Stmt::line({lit("kernel_b("), Piece::buffer("sig_a", false),
                          lit(", "), Piece::buffer("sig_ab", true),
                          lit(", sig_ab2, sig_ab_n);")});
  Stmt r_ab = Stmt::line({lit("consume("), Piece::buffer("sig_ab", false),
                          lit(", "), Piece::buffer("out_p", true),
                          lit("); /* sig_ab */")});

  TranslationUnit tu = unit_with_step(
      {w_a, w_ab, r_ab, kernel_call("kernel_c", "in_y", "sig_c"),
       kernel_call("consume", "sig_c", "out_q")},
      {f32_buffer("sig_a", 8), f32_buffer("sig_ab", 8),
       f32_buffer("sig_c", 8)});
  PassOptions options;
  options.opt_level = 0;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.arena_bindings.size(), 3u);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  kernel_a(in_x, buf0, sig_a_len, xsig_a);\n"
            "  kernel_b(buf0, buf1, sig_ab2, sig_ab_n);\n"
            "  consume(buf1, out_p); /* sig_ab */\n"
            "  kernel_c(in_y, buf0);\n"
            "  consume(buf0, out_q);\n"
            "}\n");
  ASSERT_EQ(tu.buffers.size(), 2u);
  EXPECT_EQ(tu.buffers[0].name, "buf0");
  EXPECT_EQ(tu.buffers[1].name, "buf1");
  EXPECT_EQ(access_list(tu.step.body[1]),
            (std::vector<std::string>{"buf0:r", "buf1:w"}));
}

TEST(CgirArena, IneligibleAndConstBuffersAreUntouched) {
  Stmt w = Stmt::line({Piece::element_at("dly_state", true, 0), lit(" = "),
                       Piece::element_at("in_x", false, 0), lit(";")});
  BufferDecl state = f32_buffer("dly_state", 4, /*eligible=*/false);
  BufferDecl taps;
  taps.name = "taps";
  taps.ctype = "float";
  taps.components = 4;
  taps.elem_bytes = 4;
  taps.is_const = true;
  taps.arena_eligible = true;  // const wins over eligibility
  taps.init_values = "1.0f, 2.0f, 3.0f, 4.0f";
  TranslationUnit tu = unit_with_step({w}, {state, taps});
  PassOptions options;
  options.opt_level = 0;
  run_passes(tu, options);
  ASSERT_EQ(tu.buffers.size(), 2u);
  EXPECT_EQ(tu.buffers[0].name, "dly_state");
  EXPECT_EQ(tu.buffers[1].name, "taps");
}


// ---------------------------------------------------------------------------
// Token boundaries: buffers whose names are prefixes of one another (buf1 /
// buf10, in_a / in_ab) and locals whose names start with a buffer's name,
// through every pass that rewrites references.
// ---------------------------------------------------------------------------

TEST(CgirTokens, VectorBodyArenaRenameKeepsPrefixNames) {
  // The arena renames buf1 -> buf0 and buf10 -> buf1 at once: neither
  // rename may touch the other name, the locals named after buf1, or in_ab.
  TranslationUnit tu = unit_with_step(
      {vloop(0, 64, 4,
             {load("in_a_b", "in_a"), load("in_ab_b", "in_ab"),
              calc("buf1_b", "vaddq_f32", {"in_a_b", "in_ab_b"}),
              store("buf1", "buf1_b"), load("t_b", "buf1"),
              calc("u_b", "vmulq_f32", {"t_b", "in_a_b"}),
              store("buf10", "u_b")}),
       kernel_call("consume", "buf1", "out_q"),
       kernel_call("consume", "buf10", "out_p")},
      {f32_buffer("buf1", 64), f32_buffer("buf10", 64)});
  PassStats stats = run_passes(tu, {});
  EXPECT_EQ(stats.arena_bindings.size(), 2u);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 64; i += 4) {\n"
            "    float32x4_t in_a_b = vld1q_f32(&in_a[i]);\n"
            "    float32x4_t in_ab_b = vld1q_f32(&in_ab[i]);\n"
            "    float32x4_t buf1_b = vaddq_f32(in_a_b, in_ab_b);\n"
            "    vst1q_f32(&buf0[i], buf1_b);\n"
            "    float32x4_t t_b = vld1q_f32(&buf0[i]);\n"
            "    float32x4_t u_b = vmulq_f32(t_b, in_a_b);\n"
            "    vst1q_f32(&buf1[i], u_b);\n"
            "  }\n"
            "  consume(buf0, out_q);\n"
            "  consume(buf1, out_p);\n"
            "}\n");
}

TEST(CgirTokens, ScalarForwardingSwapsOnlyTheStoredElement) {
  // -O2: buf1[i] was just stored from in_a_s, so its read becomes the
  // local; buf10[i] and in_ab[i] stay element reads.  The arena renames
  // buf10 onto buf0 and buf1 onto buf1.
  Stmt def = Stmt::line({lit("float "), Piece::local("in_a_s"), lit(" = "),
                         Piece::element("in_a", false), lit(" + "),
                         Piece::element("in_ab", false), lit(";")});
  def.defines = "in_a_s";
  Stmt st = Stmt::line({Piece::element("buf1", true), lit(" = "),
                        Piece::local("in_a_s"), lit(";")});
  st.is_store = true;
  st.stores_var = "in_a_s";
  Stmt use = Stmt::line({lit("float "), Piece::local("w_s"), lit(" = "),
                         Piece::element("buf1", false), lit(" * "),
                         Piece::element("buf10", false), lit(";")});
  use.defines = "w_s";
  Stmt out = Stmt::line({Piece::element("out_p", true), lit(" = "),
                         Piece::local("w_s"), lit(";")});
  out.is_store = true;
  out.stores_var = "w_s";
  TranslationUnit tu = unit_with_step(
      {fill("fill", "buf10"), scalar_loop(0, 3, {def, st, use, out})},
      {f32_buffer("buf1", 3), f32_buffer("buf10", 3)});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.copies_elided, 1);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  fill(buf0);\n"
            "  for (int i = 0; i < 3; ++i) {\n"
            "    float in_a_s = in_a[i] + in_ab[i];\n"
            "    buf1[i] = in_a_s;\n"
            "    float w_s = in_a_s * buf0[i];\n"
            "    out_p[i] = w_s;\n"
            "  }\n"
            "}\n");
}

TEST(CgirTokens, StripMiningAndLaneBuffersKeepPrefixNames) {
  // -O2: the scalar loop strip-mines into the vector loop (its element
  // indexes become (i + k)), the arena renames buf1 onto buf0, and the lane
  // rewrite gives in_a and in_ab lane buffers of their own.
  auto pointer = [](const std::string& type, const std::string& name,
                    const std::string& init) {
    Stmt s = Stmt::line({lit(type + "* "), Piece::local(name), lit(init)});
    s.defines = name;
    s.array_ctype = "float";
    return s;
  };
  Stmt lane = Stmt::line({Piece::element("out_p", true), lit(" = "),
                          Piece::element("in_ab", false), lit(" * "),
                          Piece::element("in_a", false), lit(" + "),
                          Piece::element("buf1", false), lit(";")});
  TranslationUnit tu = unit_with_step(
      {pointer("const float", "in_a", " = (const float*)inputs[0];"),
       pointer("const float", "in_ab", " = (const float*)inputs[1];"),
       pointer("float", "out_p", " = (float*)outputs[0];"),
       vloop(0, 8, 4, {load("in_a_b", "in_a"), store("buf1", "in_a_b")}),
       scalar_loop(0, 8, {lane})},
      {f32_buffer("buf1", 8)});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.cross_scale_fused, 1);
  EXPECT_EQ(stats.strips_localized, 1);
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  const float* in_a = (const float*)inputs[0];\n"
            "  const float* in_ab = (const float*)inputs[1];\n"
            "  float* out_p = (float*)outputs[0];\n"
            "  for (int i = 0; i < 8; i += 4) {\n"
            "    float32x4_t in_a_b = vld1q_f32(&in_a[i]);\n"
            "    vst1q_f32(&buf0[i], in_a_b);\n"
            "    float ln0_out_p[4];\n"
            "    float ln0_in_ab[4];\n"
            "    float ln0_in_a[4];\n"
            "    float ln0_buf0[4];\n"
            "    memcpy(ln0_in_ab, &in_ab[i], sizeof(ln0_in_ab));\n"
            "    memcpy(ln0_in_a, &in_a[i], sizeof(ln0_in_a));\n"
            "    memcpy(ln0_buf0, &buf0[i], sizeof(ln0_buf0));\n"
            "    for (int k = 0; k < 4; ++k) {\n"
            "      ln0_out_p[k] = ln0_in_ab[k] * ln0_in_a[k] + ln0_buf0[k];\n"
            "    }\n"
            "    memcpy(&out_p[i], ln0_out_p, sizeof(ln0_out_p));\n"
            "  }\n"
            "}\n");
  // The block copies carry the shared arrays' accesses; the lane loop
  // touches only its local lane buffers.
  const Stmt& loop = tu.step.body[3];
  EXPECT_EQ(access_list(loop.body[6]),
            (std::vector<std::string>{"ln0_in_ab:w", "in_ab:re"}));
  EXPECT_EQ(access_list(loop.body[10]),
            (std::vector<std::string>{"out_p:we", "ln0_out_p:r"}));
}

TEST(CgirTokens, StripMiningReindexesOnlyTheLoopIndex) {
  // Before localization, the strip body reads (i + k) wherever the scalar
  // loop read i, and a constant index stays put.
  Stmt lane = Stmt::line({Piece::element("out_p", true), lit(" = "),
                          Piece::element("in_i", false), lit(" + "),
                          Piece::element_at("in_i", false, 0), lit(";")});
  TranslationUnit tu = unit_with_step(
      {vloop(0, 8, 4, {load("i_b", "in_i"), store("out_q", "i_b")}),
       scalar_loop(0, 8, {lane})},
      {f32_buffer("in_i", 8, false), f32_buffer("out_p", 8, false),
       f32_buffer("out_q", 8, false)});
  PassOptions options;
  options.opt_level = 2;
  PassStats stats = run_passes(tu, options);
  EXPECT_EQ(stats.cross_scale_fused, 1);
  EXPECT_EQ(stats.strips_localized, 0);  // in_i[0] is no lane element
  EXPECT_EQ(printed_step(tu),
            "void m_step(const void* const* inputs, void* const* outputs) {\n"
            "  for (int i = 0; i < 8; i += 4) {\n"
            "    float32x4_t i_b = vld1q_f32(&in_i[i]);\n"
            "    vst1q_f32(&out_q[i], i_b);\n"
            "    for (int k = 0; k < 4; ++k) {\n"
            "      out_p[(i + k)] = in_i[(i + k)] + in_i[0];\n"
            "    }\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace hcg::cgir
