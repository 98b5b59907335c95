// End-to-end tests of the hcgc command-line tool: every subcommand is run
// as a real subprocess against a model file written by the test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cgir/cgir.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"

namespace hcg {
namespace {

struct CliResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

CliResult run_cli(const std::string& args) {
  TempDir dir;
  const auto out_path = dir.path() / "out.txt";
  const std::string cmd = std::string(HCG_HCGC_PATH) + " " + args + " > " +
                          out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::string output;
  try {
    output = read_file(out_path);
  } catch (const Error&) {
  }
  return CliResult{rc == -1 ? -1 : WEXITSTATUS(rc), output};
}

class CliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    model_path_ = (dir_.path() / "model.xml").string();
    write_file(model_path_, R"(
<model name="cli_fir">
  <actor name="x"    type="Inport"   dtype="i32" shape="64"/>
  <actor name="acc"  type="Inport"   dtype="i32" shape="64"/>
  <actor name="taps" type="Constant" dtype="i32" shape="64" value="3"/>
  <actor name="m"    type="Mul"/>
  <actor name="s"    type="Add"/>
  <actor name="y"    type="Outport"/>
  <connect from="x"    to="m:0"/>
  <connect from="taps" to="m:1"/>
  <connect from="m"    to="s:0"/>
  <connect from="acc"  to="s:1"/>
  <connect from="s"    to="y"/>
</model>)");
  }

  TempDir dir_;
  std::string model_path_;
};

TEST_F(CliFixture, NoArgsPrintsUsage) {
  CliResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliFixture, UnknownCommandPrintsUsage) {
  CliResult r = run_cli("frobnicate x.xml");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliFixture, IsaListsBuiltins) {
  CliResult r = run_cli("isa");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("neon"), std::string::npos);
  EXPECT_NE(r.output.find("avx2"), std::string::npos);
  EXPECT_NE(r.output.find("256-bit"), std::string::npos);
  // The sve row carries its traits and every table gets a coverage line.
  EXPECT_NE(r.output.find("sve"), std::string::npos);
  EXPECT_NE(r.output.find("(scalable)"), std::string::npos);
  EXPECT_NE(r.output.find("(simulated)"), std::string::npos);
  EXPECT_NE(r.output.find("op coverage:"), std::string::npos);
  EXPECT_NE(r.output.find("i32 16/16"), std::string::npos);
}

TEST_F(CliFixture, IsaDumpsTableText) {
  CliResult r = run_cli("isa sse");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("isa sse"), std::string::npos);
  EXPECT_NE(r.output.find("_mm_add_epi32"), std::string::npos);
}

TEST_F(CliFixture, GenerateEmitsFusedSimd) {
  const std::string out = (dir_.path() / "gen.c").string();
  CliResult r = run_cli("generate " + model_path_ + " --isa neon --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("vmlaq_s32"), std::string::npos);
  const std::string source = read_file(out);
  EXPECT_NE(source.find("void cli_fir_step"), std::string::npos);
  EXPECT_NE(source.find("vmlaq_s32"), std::string::npos);
}

TEST_F(CliFixture, GenerateToStdout) {
  CliResult r = run_cli("generate " + model_path_ + " --isa neon_sim");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cli_fir_init"), std::string::npos);
}

TEST_F(CliFixture, GenerateWithBaselineTools) {
  CliResult df = run_cli("generate " + model_path_ + " --tool dfsynth");
  EXPECT_EQ(df.exit_code, 0);
  EXPECT_EQ(df.output.find("vmlaq"), std::string::npos);
  CliResult sc = run_cli("generate " + model_path_ +
                         " --tool simulink --scattered --isa sse");
  EXPECT_EQ(sc.exit_code, 0);
  EXPECT_NE(sc.output.find("mulld"), std::string::npos);
}

TEST_F(CliFixture, GenerateRejectsUnknownTool) {
  CliResult r = run_cli("generate " + model_path_ + " --tool gcc");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown tool"), std::string::npos);
}

TEST_F(CliFixture, GenerateWithThresholdFallsBackToScalar) {
  CliResult r = run_cli("generate " + model_path_ +
                        " --isa neon --threshold 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("vmlaq_s32"), std::string::npos);

  // A numeric flag with garbage, a suffix or an out-of-range value is a
  // usage error naming the flag, before any model is read.
  for (const char* args :
       {"generate --threshold abc", "generate --threshold 5x",
        "generate --threshold -1", "verify --seed 7q", "verify --seed -3",
        "verify --cc-timeout abc", "verify --cc-timeout 0",
        "verify --cc-timeout -2", "verify --cc-retries 1.5",
        "profile --reps 2x", "profile --reps 0",
        "profile --err-threshold abc", "profile --err-threshold -1"}) {
    const std::string command(args);
    const std::size_t dash = command.find("--");
    const std::string flag =
        command.substr(dash, command.find(' ', dash) - dash);
    r = run_cli(command + " " + model_path_);
    EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("hcgc: " + flag + " needs "), std::string::npos)
        << command << "\n" << r.output;
  }
}

TEST_F(CliFixture, HistoryFileIsCreatedAndReused) {
  // The FFT forces Algorithm 1 to run and persist its selection.
  const std::string fft_model = (dir_.path() / "fft.xml").string();
  write_file(fft_model, R"(
<model name="cli_fft">
  <actor name="x" type="Inport" dtype="c64" shape="256"/>
  <actor name="f" type="FFT"/>
  <actor name="y" type="Outport"/>
  <connect from="x" to="f"/>
  <connect from="f" to="y"/>
</model>)");
  const std::string hist = (dir_.path() / "hist.txt").string();
  CliResult first =
      run_cli("generate " + fft_model + " --history " + hist + " --out " +
              (dir_.path() / "a.c").string());
  EXPECT_EQ(first.exit_code, 0);
  const std::string saved = read_file(hist);
  EXPECT_NE(saved.find("FFT c64 256 -> "), std::string::npos);
  CliResult second =
      run_cli("generate " + fft_model + " --history " + hist + " --out " +
              (dir_.path() / "b.c").string());
  EXPECT_EQ(second.exit_code, 0);
}

TEST_F(CliFixture, InspectShowsClassificationAndRegions) {
  CliResult r = run_cli("inspect " + model_path_);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("[batch]"), std::string::npos);
  EXPECT_NE(r.output.find("[source]"), std::string::npos);
  EXPECT_NE(r.output.find("batch regions"), std::string::npos);
  EXPECT_NE(r.output.find("Mul("), std::string::npos);
}

TEST_F(CliFixture, VerifyPassesForAllTools) {
  for (const char* tool : {"hcg", "simulink", "dfsynth"}) {
    CliResult r = run_cli("verify " + model_path_ + " --tool " + tool +
                          " --isa neon_sim");
    EXPECT_EQ(r.exit_code, 0) << tool << "\n" << r.output;
    EXPECT_NE(r.output.find("VERIFY OK"), std::string::npos) << tool;
  }
}

TEST_F(CliFixture, VerifyWithExternalIsaFile) {
  // Dump the built-in sse table to a file and load it back via --isa.
  const std::string isa_path = (dir_.path() / "my.isa").string();
  CliResult dump = run_cli("isa sse");
  ASSERT_EQ(dump.exit_code, 0);
  write_file(isa_path, dump.output);
  CliResult r = run_cli("verify " + model_path_ + " --isa " + isa_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("VERIFY OK"), std::string::npos);
}

TEST_F(CliFixture, BenchSubcommandIsRemoved) {
  // perfbench times generated code; hcgc has no timing subcommand.
  CliResult r = run_cli("bench " + model_path_ + " --isa neon_sim");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_EQ(r.output.find("hcgc bench"), std::string::npos);
}

TEST_F(CliFixture, MissingModelFileFails) {
  CliResult r = run_cli("generate /nonexistent/model.xml");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("hcgc:"), std::string::npos);
}

TEST_F(CliFixture, GenerateWithoutSubcommand) {
  // `hcgc <model>` and `hcgc --flag ... <model>` default to generate.
  CliResult r = run_cli(model_path_ + " --isa neon_sim");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cli_fir_init"), std::string::npos);
  CliResult flags_first = run_cli("--tool dfsynth " + model_path_);
  EXPECT_EQ(flags_first.exit_code, 0) << flags_first.output;
  EXPECT_NE(flags_first.output.find("cli_fir_init"), std::string::npos);
}

TEST_F(CliFixture, GenerateWritesReportAndTrace) {
  const std::string report = (dir_.path() / "r.json").string();
  CliResult r = run_cli("generate " + model_path_ +
                        " --isa neon_sim --out " +
                        (dir_.path() / "gen.c").string() + " --report " +
                        report);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("history:"), std::string::npos);

  const std::string report_text = read_file(report);
  ASSERT_TRUE(obs::json_valid(report_text)) << report_text;
  obs::JsonValue doc = obs::json_parse(report_text);
  EXPECT_EQ(doc.at("schema").string, "hcg-report-v1");
  EXPECT_EQ(doc.at("model").string, "cli_fir");
  EXPECT_FALSE(doc.at("phases").array.empty());
  EXPECT_EQ(doc.at("phases").array[0].at("name").string, "model.load");
  ASSERT_FALSE(doc.at("regions").array.empty());
  const obs::JsonValue& region = doc.at("regions").array[0];
  EXPECT_TRUE(region.at("used_simd").boolean);
  EXPECT_FALSE(region.at("instructions").array.empty());

  // The -O1 passes, each with its own time, in pipeline order.
  std::vector<std::string> passes;
  for (const obs::JsonValue& pass : doc.at("codegen").at("passes").array) {
    passes.push_back(pass.at("name").string);
    EXPECT_GE(pass.at("ms").number, 0.0) << passes.back();
  }
  EXPECT_EQ(passes, (std::vector<std::string>{"fuse_loops", "forward_copies",
                                              "eliminate_dead_buffers",
                                              "reuse_arena"}));
}

TEST_F(CliFixture, DumpCgirRoundTripsThroughParse) {
  const std::string dump_path = (dir_.path() / "unit.cgir").string();
  CliResult r = run_cli("generate " + model_path_ +
                        " --isa neon_sim --dump-cgir --out " + dump_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string dumped = read_file(dump_path);
  EXPECT_EQ(dumped.rfind("cgir-v1", 0), 0u) << dumped.substr(0, 80);

  // The dump is the emitter's own serialization: parsing it back and
  // re-printing must reproduce exactly what `generate` without the flag
  // writes.
  const std::string c_path = (dir_.path() / "unit.c").string();
  CliResult plain = run_cli("generate " + model_path_ +
                            " --isa neon_sim --out " + c_path);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  const cgir::TranslationUnit tu = cgir::parse_dump(dumped);
  EXPECT_EQ(cgir::print(tu), read_file(c_path));
  EXPECT_EQ(cgir::dump(tu), dumped);
}

TEST_F(CliFixture, OptLevelFlagsAreAcceptedAndEquivalentHere) {
  // cli_fir is a single fused region with no intermediate buffers, so -O1
  // has nothing to optimize and the output must match -O0 byte for byte.
  const std::string o0 = (dir_.path() / "o0.c").string();
  const std::string o1 = (dir_.path() / "o1.c").string();
  CliResult r0 = run_cli("generate " + model_path_ +
                         " --isa neon_sim -O0 --out " + o0);
  CliResult r1 = run_cli("generate " + model_path_ +
                         " --isa neon_sim -O1 --out " + o1);
  ASSERT_EQ(r0.exit_code, 0) << r0.output;
  ASSERT_EQ(r1.exit_code, 0) << r1.output;
  EXPECT_EQ(read_file(o0), read_file(o1));

  // Bad flags are usage errors (exit 2, docs/ROBUSTNESS.md exit-code table).
  CliResult bad = run_cli("generate " + model_path_ + " -O7");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("unknown option"), std::string::npos);
  // Generation is single-threaded; a thread-count flag is unknown too.
  CliResult jobs = run_cli("generate " + model_path_ + " --jobs 4");
  EXPECT_EQ(jobs.exit_code, 2);
  EXPECT_NE(jobs.output.find("unknown option --jobs"), std::string::npos);
}

TEST_F(CliFixture, O2AcceptedAndOptimizes) {
  // cli_fir's i8 sibling with a Mul the NEON table cannot map: the scalar
  // loop between the vector regions strip-mines and fuses at -O2.
  const std::string mixed = (dir_.path() / "mixed.xml").string();
  write_file(mixed, R"(
<model name="cli_mixed">
  <actor name="a" type="Inport" dtype="i8" shape="37"/>
  <actor name="b" type="Inport" dtype="i8" shape="37"/>
  <actor name="s" type="Add"/>
  <actor name="m" type="Mul"/>
  <actor name="d" type="Sub"/>
  <actor name="y" type="Outport"/>
  <connect from="a" to="s:0"/>
  <connect from="b" to="s:1"/>
  <connect from="s" to="m:0"/>
  <connect from="b" to="m:1"/>
  <connect from="m" to="d:0"/>
  <connect from="a" to="d:1"/>
  <connect from="d" to="y"/>
</model>)");
  const std::string out = (dir_.path() / "o2.c").string();
  const std::string report = (dir_.path() / "o2.json").string();
  CliResult r = run_cli("generate " + mixed + " --isa neon_sim -O2 --out " +
                        out + " --report " + report);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(read_file(out).find("memcpy(ln0_"), std::string::npos);

  obs::JsonValue doc = obs::json_parse(read_file(report));
  const obs::JsonValue& opt = doc.at("codegen");
  EXPECT_EQ(opt.at("opt_level").number, 2);
  EXPECT_GE(opt.at("fusion").at("cross_scale_fused").number, 1);

  // The -O2 remarks ride along in the report diagnostics.
  bool saw_408 = false;
  for (const obs::JsonValue& diag : doc.at("diagnostics").array) {
    if (diag.at("code").string == "HCG408") saw_408 = true;
  }
  EXPECT_TRUE(saw_408) << read_file(report);
}

TEST_F(CliFixture, DumpCgirAfterSnapshotsNamedPass) {
  const std::string dump = (dir_.path() / "after.cgir").string();
  CliResult r = run_cli("generate " + model_path_ +
                        " --isa neon_sim -O2 --dump-cgir-after=fuse_loops"
                        " --out " + dump);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(read_file(dump).rfind("cgir-v1", 0), 0u);

  // Unknown pass names are usage errors; passes that exist but never ran at
  // the chosen -O level are reported as real errors.
  CliResult bad = run_cli("generate " + model_path_ +
                          " --isa neon_sim --dump-cgir-after=frobnicate");
  EXPECT_EQ(bad.exit_code, 2);
  CliResult tiled = run_cli("generate " + model_path_ +
                            " --isa neon_sim -O2 --dump-cgir-after=tile_loops");
  EXPECT_EQ(tiled.exit_code, 2) << tiled.output;
  CliResult not_run = run_cli("generate " + model_path_ +
                              " --isa neon_sim -O0"
                              " --dump-cgir-after=localize_strips");
  EXPECT_EQ(not_run.exit_code, 1);
  EXPECT_NE(not_run.output.find("did not run"), std::string::npos);
}

// No pass tiles loops, so there is no tile width option: --tile-elems is a
// usage error like any unknown option.
TEST_F(CliFixture, TileElemsValidatesWidth) {
  CliResult r = run_cli("generate " + model_path_ +
                        " --isa neon_sim -O2 --tile-elems 8 --out " +
                        (dir_.path() / "t.c").string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option --tile-elems"), std::string::npos)
      << r.output;
}

// Per-pass times are in the report; there is no span tracer, so --trace is
// a usage error like any unknown option.
TEST_F(CliFixture, TraceSummaryGoesToStderr) {
  CliResult r = run_cli("generate " + model_path_ + " --isa neon_sim --out " +
                        (dir_.path() / "gen.c").string() + " --trace summary");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option --trace"), std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace hcg
