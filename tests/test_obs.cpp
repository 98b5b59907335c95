// Tests for the observability subsystem: the counter registry, JSON
// writer/parser, and the structured codegen report.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"
#include "synth/history.hpp"

namespace hcg {
namespace {

// ---------------------------------------------------------------------------
// JSON writer

TEST(ObsJson, WriterProducesValidNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value("hcg \"quoted\" \n");
  w.key("count").value(std::uint64_t{42});
  w.key("offset").value(std::int64_t{-7});
  w.key("ratio").value(0.5);
  w.key("flag").value(true);
  w.key("missing").null();
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object().key("x").value("y").end_object();
  w.end_object();

  const std::string text = w.str();
  ASSERT_TRUE(obs::json_valid(text)) << text;

  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("name").string, "hcg \"quoted\" \n");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("offset").number, -7.0);
  EXPECT_EQ(doc.at("ratio").number, 0.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_TRUE(doc.at("missing").is_null());
  ASSERT_EQ(doc.at("list").array.size(), 3u);
  EXPECT_EQ(doc.at("list").array[2].number, 3.0);
  EXPECT_EQ(doc.at("nested").at("x").string, "y");
}

TEST(ObsJson, NonFiniteDoublesSerializeAsNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  obs::JsonValue doc = obs::json_parse(w.str());
  EXPECT_TRUE(doc.array[0].is_null());
  EXPECT_TRUE(doc.array[1].is_null());
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("[1,2,]"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::json_valid("{'a':1}"));
  EXPECT_FALSE(obs::json_valid("nulll"));
  EXPECT_THROW(obs::json_parse("{\"a\":}"), ParseError);
  EXPECT_TRUE(obs::json_valid("null"));
  EXPECT_TRUE(obs::json_valid("[ ]"));
}

TEST(ObsJson, ParserDecodesEscapes) {
  obs::JsonValue doc = obs::json_parse(R"({"s":"a\tbA\n"})");
  EXPECT_EQ(doc.at("s").string, "a\tbA\n");
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ObsMetrics, RegistryDeduplicatesByName) {
  obs::Counter& a = obs::Registry::instance().counter("test.dedup");
  obs::Counter& b = obs::Registry::instance().counter("test.dedup");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, CounterAccumulates) {
  obs::Counter& c = obs::Registry::instance().counter("test.counter.acc");
  const std::uint64_t before = c.value();
  c.add();
  c.add(9);
  EXPECT_EQ(c.value() - before, 10u);
}

/// The string literals passed to `Registry::instance().counter(` in the
/// sources under src/.
std::set<std::string> counters_in_sources() {
  static const std::string call = "Registry::instance().counter(\"";
  std::set<std::string> names;
  const std::filesystem::path src =
      std::filesystem::path(HCG_REPO_ROOT) / "src";
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(src)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const std::string text = read_file(entry.path());
    for (size_t at = text.find(call); at != std::string::npos;
         at = text.find(call, at + 1)) {
      const size_t begin = at + call.size();
      names.insert(text.substr(begin, text.find('"', begin) - begin));
    }
  }
  return names;
}

/// First-column backticked names of the counter table in
/// docs/OBSERVABILITY.md (the table under the "## Counters" heading).
std::set<std::string> counters_in_docs() {
  const std::string text = read_file(std::filesystem::path(HCG_REPO_ROOT) /
                                     "docs" / "OBSERVABILITY.md");
  std::set<std::string> names;
  const size_t heading = text.find("\n## Counters\n");
  if (heading == std::string::npos) return names;
  bool in_table = false;
  for (const std::string& line : split(text.substr(heading), '\n')) {
    if (line.starts_with("| `")) {
      in_table = true;
      const size_t end = line.find('`', 3);
      names.insert(line.substr(3, end - 3));
    } else if (in_table && !line.starts_with("|")) {
      break;
    }
  }
  return names;
}

TEST(ObsDocsAntiDrift, CounterTableMatchesTheSources) {
  const std::set<std::string> in_sources = counters_in_sources();
  EXPECT_EQ(in_sources.size(), 3u);
  EXPECT_EQ(counters_in_docs(), in_sources)
      << "docs/OBSERVABILITY.md's counter table and the counters created "
         "under src/ disagree; update whichever is stale";
}

// ---------------------------------------------------------------------------
// Logging helpers

TEST(ObsLogging, ParseLogLevelAcceptsKnownNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

// ---------------------------------------------------------------------------
// Selection history statistics

TEST(ObsHistory, LookupCountsHitsAndMisses) {
  synth::SelectionHistory history;
  const std::vector<Shape> shapes = {Shape{1024}};
  EXPECT_FALSE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  history.store("FFT", DataType::kComplex64, shapes, "fft_radix4");
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  EXPECT_EQ(history.hits(), 2u);
  EXPECT_EQ(history.misses(), 1u);
  history.reset_stats();
  EXPECT_EQ(history.hits(), 0u);
  EXPECT_EQ(history.misses(), 0u);
}

// ---------------------------------------------------------------------------
// Report

TEST(ObsReport, RoundTripsThroughJson) {
  obs::Report report;
  report.model = "fig4";
  report.tool = "hcg";
  report.isa = "neon";
  report.actor_count = 7;
  report.phases = {{"resolve", 0.5}, {"emit", 1.25}};
  report.passes = {{"fuse_loops", 0.125}, {"reuse_arena", 0.25}};
  obs::ReportIntensive fft;
  fft.actor = "FFT1";
  fft.actor_type = "FFT";
  fft.dtype = "c64";
  fft.impl = "fft_radix4";
  fft.selected = true;
  fft.candidates = {{"fft_dit", 2.0}, {"fft_radix4", 1.0}};
  report.intensive.push_back(fft);
  obs::ReportRegion region;
  region.actors = {"Sub", "Shr"};
  region.nodes = 2;
  region.used_simd = true;
  region.batch_size = 4;
  region.batch_count = 256;
  region.scalar_remainder = 2;
  region.instructions = {"vsubq_s32", "vhaddq_s32"};
  report.regions.push_back(region);
  report.emit_bytes = 4096;
  report.fused_regions = 1;
  report.history_hits = 3;
  report.history_misses = 1;
  report.compile_ms = 120.0;
  report.compile_command = "cc -shared model.c";

  const std::string text = report.to_json();
  ASSERT_TRUE(obs::json_valid(text)) << text;
  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("schema").string, "hcg-report-v1");
  EXPECT_EQ(doc.at("model").string, "fig4");
  EXPECT_EQ(doc.at("tool").string, "hcg");
  EXPECT_EQ(doc.at("isa").string, "neon");
  EXPECT_EQ(doc.at("actor_count").number, 7.0);
  ASSERT_EQ(doc.at("phases").array.size(), 2u);
  EXPECT_EQ(doc.at("phases").array[1].at("name").string, "emit");
  EXPECT_EQ(doc.at("phases").array[1].at("ms").number, 1.25);
  const obs::JsonValue& passes = doc.at("codegen").at("passes");
  ASSERT_EQ(passes.array.size(), 2u);
  EXPECT_EQ(passes.array[0].at("name").string, "fuse_loops");
  EXPECT_EQ(passes.array[0].at("ms").number, 0.125);
  EXPECT_EQ(passes.array[1].at("name").string, "reuse_arena");
  EXPECT_EQ(passes.array[1].at("ms").number, 0.25);
  const obs::JsonValue& intensive = doc.at("intensive").array.at(0);
  EXPECT_EQ(intensive.at("actor").string, "FFT1");
  EXPECT_EQ(intensive.at("impl").string, "fft_radix4");
  ASSERT_EQ(intensive.at("candidates").array.size(), 2u);
  EXPECT_EQ(intensive.at("candidates").array[1].at("impl").string,
            "fft_radix4");
  const obs::JsonValue& r = doc.at("regions").array.at(0);
  EXPECT_TRUE(r.at("used_simd").boolean);
  EXPECT_EQ(r.at("scalar_remainder").number, 2.0);
  ASSERT_EQ(r.at("instructions").array.size(), 2u);
  EXPECT_EQ(r.at("instructions").array[0].string, "vsubq_s32");
  EXPECT_EQ(doc.at("history").at("hits").number, 3.0);
  EXPECT_EQ(doc.at("toolchain").at("compile_ms").number, 120.0);
  // Process-wide counters never leak into a per-run report.
  EXPECT_EQ(doc.find("metrics"), nullptr);

  // The toolchain section appears only once the code was actually compiled.
  obs::JsonValue fresh = obs::json_parse(obs::Report{}.to_json());
  EXPECT_EQ(fresh.find("toolchain"), nullptr);
}

TEST(ObsReport, SimdCoverageIsNodeWeighted) {
  obs::Report report;
  EXPECT_EQ(report.simd_coverage(), 0.0);
  obs::ReportRegion simd;
  simd.nodes = 3;
  simd.used_simd = true;
  obs::ReportRegion scalar;
  scalar.nodes = 1;
  scalar.used_simd = false;
  report.regions = {simd, scalar};
  EXPECT_DOUBLE_EQ(report.simd_coverage(), 0.75);
}

TEST(ObsReport, EmitModelPopulatesReport) {
  Model model = resolved(benchmodels::paper_fig4_model(1024));
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.select_intensive = true;
  synth::SelectionHistory history;
  config.history = &history;
  codegen::GeneratedCode code = codegen::emit_model(model, config);

  const obs::Report& report = code.report;
  EXPECT_EQ(report.tool, "hcg");
  EXPECT_EQ(report.isa, "neon_sim");
  EXPECT_EQ(report.actor_count, model.actor_count());
  EXPECT_FALSE(report.phases.empty());
  std::set<std::string> phase_names;
  for (const auto& phase : report.phases) {
    phase_names.insert(phase.name);
    EXPECT_GE(phase.ms, 0.0);
  }
  EXPECT_TRUE(phase_names.count("resolve"));
  EXPECT_TRUE(phase_names.count("emit"));
  ASSERT_FALSE(report.regions.empty());
  int simd_instructions = 0;
  for (const auto& region : report.regions) {
    EXPECT_GT(region.nodes, 0);
    simd_instructions += static_cast<int>(region.instructions.size());
  }
  EXPECT_EQ(simd_instructions,
            static_cast<int>(code.simd_instructions.size()));
  EXPECT_EQ(report.emit_bytes, code.source.size());
  EXPECT_EQ(report.fused_regions, code.fused_regions);
  ASSERT_TRUE(obs::json_valid(report.to_json()));
}

TEST(ObsReport, PassesListEveryPassThatRan) {
  const auto pass_names = [](const obs::Report& report) {
    std::vector<std::string> names;
    for (const obs::ReportPhase& pass : report.passes) {
      names.push_back(pass.name);
    }
    return names;
  };
  // The passes split the "opt" phase: each time is non-negative and
  // together they fit inside it.
  const auto expect_within_opt = [](const obs::Report& report) {
    double opt_ms = -1.0;
    for (const obs::ReportPhase& phase : report.phases) {
      if (phase.name == "opt") opt_ms = phase.ms;
    }
    ASSERT_GE(opt_ms, 0.0) << "no opt phase";
    double sum = 0.0;
    for (const obs::ReportPhase& pass : report.passes) {
      EXPECT_GE(pass.ms, 0.0) << pass.name;
      sum += pass.ms;
    }
    EXPECT_LE(sum, opt_ms + 1e-9);
  };

  Model model = resolved(benchmodels::mixed_pipeline_model(100));
  auto hcg = codegen::make_hcg_generator(isa::builtin("neon_sim"), nullptr, {},
                                         /*opt_level=*/2);
  const obs::Report o2 = hcg->generate(model).report;
  EXPECT_EQ(pass_names(o2), (std::vector<std::string>{
                                "fuse_loops", "fuse_cross_scale",
                                "forward_copies", "reuse_arena",
                                "localize_strips"}));
  expect_within_opt(o2);

  auto simulink = codegen::make_simulink_generator();
  const obs::Report o0 = simulink->generate(model).report;
  EXPECT_EQ(pass_names(o0), std::vector<std::string>{"reuse_arena"});
  expect_within_opt(o0);
}

TEST(ObsReport, SecondGenerateSerializesLikeTheFirst) {
  const Model model = benchmodels::fir_model(1024);
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.opt_level = 2;
  config.select_intensive = true;
  const auto serialize = [&] {
    obs::Report report = codegen::emit_model(model, config).report;
    for (obs::ReportPhase& phase : report.phases) phase.ms = 0.0;
    for (obs::ReportPhase& pass : report.passes) pass.ms = 0.0;
    return report.to_json();
  };
  const std::string first = serialize();
  const std::string second = serialize();
  EXPECT_EQ(first, second)
      << "a report must describe its own run, not the process so far";
  EXPECT_EQ(obs::json_parse(first).find("metrics"), nullptr);
}

}  // namespace
}  // namespace hcg
