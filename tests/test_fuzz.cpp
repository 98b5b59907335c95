// Tests for the differential fuzzing subsystem (docs/FUZZING.md): generator
// determinism and guardrails, the cross-check harness contracts, the
// counterexample minimizer, the campaign driver with its hcg-fuzz-v1 report,
// the fault-site catalog anti-drift check, and the hcgc fuzz/faults CLI.
//
// The heavyweight acceptance run (500 seeds over the full matrix) is gated
// behind HCG_FUZZ_FULL=1 — CI's fuzz-smoke job runs a smaller campaign
// through the hcgc CLI instead.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "actors/resolve.hpp"
#include "analysis/linter.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimize.hpp"
#include "model/loader.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"
#include "support/strings.hpp"
#include "toolchain/compiled_model.hpp"

namespace hcg::fuzz {
namespace {

/// One hcg cell plus the scalar baselines — enough cross-checking to be a
/// real differential test at a fraction of the full matrix's cost.
HarnessConfig quick_config() {
  HarnessConfig config;
  config.isas = {"neon_sim"};
  config.opt_levels = {1};
  config.baselines = true;
  return config;
}

/// Arms a fault spec and guarantees a disarmed registry afterwards.
class ArmedFaults {
 public:
  explicit ArmedFaults(std::string_view spec) {
    faults::Registry::instance().configure(spec);
  }
  ~ArmedFaults() { faults::Registry::instance().clear(); }
};

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(FuzzGenerator, SameSeedSameBytes) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    const std::string a = model_to_xml(generate_model(seed));
    const std::string b = model_to_xml(generate_model(seed));
    EXPECT_EQ(a, b) << "seed " << seed << " is not deterministic";
  }
  EXPECT_NE(model_to_xml(generate_model(1)), model_to_xml(generate_model(2)));
}

TEST(FuzzGenerator, ManySeedsResolveAndAreLintClean) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Model model = generate_model(seed);
    ASSERT_NO_THROW((void)resolved(model)) << "seed " << seed;
    // The corpus gate runs `hcgc lint --Werror` over minimized reproducers;
    // generated models must already hold that bar (no dead actors, no
    // structural defects), or shrunk versions of them could not.
    analysis::DiagnosticEngine diags;
    analysis::LintOptions options;
    options.remarks = false;
    analysis::lint_model(model, options, diags);
    EXPECT_EQ(diags.count(analysis::Severity::kError), 0)
        << "seed " << seed << ": " << diags.render("fuzz");
    EXPECT_EQ(diags.count(analysis::Severity::kWarning), 0)
        << "seed " << seed << ": " << diags.render("fuzz");
  }
}

TEST(FuzzGenerator, CoversTheGrammar) {
  std::set<std::string> types;
  bool wide = false, sub_simd = false, matrix = false, scalar = false;
  std::set<std::string> dtypes;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const Model model = generate_model(seed);
    for (const Actor& actor : model.actors()) {
      types.insert(actor.type());
      if (actor.has_param("dtype")) dtypes.insert(actor.param("dtype"));
      if (actor.has_param("shape")) {
        const Shape shape = Shape::parse(actor.param("shape"));
        if (shape.is_scalar()) scalar = true;
        if (shape.rank() == 1 && shape.dims[0] >= 32) wide = true;
        if (shape.rank() == 1 && shape.dims[0] <= 3) sub_simd = true;
        if (shape.rank() == 2) matrix = true;
      }
    }
  }
  // Every structural family the resolver accepts must appear in the pool.
  for (const char* required :
       {"Add", "Mul", "Abd", "Shl", "Cast", "Switch", "UnitDelay", "Gain",
        "Constant", "Inport", "Outport"}) {
    EXPECT_TRUE(types.count(required)) << "grammar never emits " << required;
  }
  // At least one intensive family must appear.
  EXPECT_TRUE(types.count("FFT") || types.count("DCT") ||
              types.count("Conv") || types.count("MatMul"))
      << "grammar never emits an intensive actor";
  EXPECT_TRUE(wide) << "no above-threshold vector widths";
  EXPECT_TRUE(sub_simd) << "no sub-SIMD-threshold widths";
  EXPECT_TRUE(matrix) << "no matrix shapes";
  EXPECT_TRUE(scalar) << "no scalar signals";
  EXPECT_GE(dtypes.size(), 6u) << "dtype coverage collapsed";
}

TEST(FuzzGenerator, RespectsActorBudget) {
  GeneratorConfig config;
  config.max_actors = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Model model = generate_model(seed, config);
    // Finalization may add Outports past the budget, but the graph stays
    // within the same order of magnitude.
    EXPECT_LE(model.actor_count(), 4 * config.max_actors) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

TEST(FuzzDifferential, TensorComparisonFlagsIntsExactlyToleratesFloatNoise) {
  Tensor a(DataType::kInt32, Shape{4});
  Tensor b(DataType::kInt32, Shape{4});
  for (int i = 0; i < 4; ++i) a.set_int(i, 10 + i), b.set_int(i, 10 + i);
  std::string why;
  EXPECT_TRUE(tensors_close(a, b, &why));
  b.set_int(2, 13);
  EXPECT_FALSE(tensors_close(a, b, &why));
  EXPECT_NE(why.find("element 2"), std::string::npos) << why;

  Tensor x(DataType::kFloat32, Shape{2});
  Tensor y(DataType::kFloat32, Shape{2});
  x.set_double(0, 100.0);
  y.set_double(0, 100.05);  // inside the relative band
  EXPECT_TRUE(tensors_close(x, y, &why));
  y.set_double(0, 112.0);  // way outside
  EXPECT_FALSE(tensors_close(x, y, &why));
}

TEST(FuzzDifferential, CleanSeedsProduceNoFindings) {
  const HarnessConfig config = quick_config();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SeedResult result = run_seed(seed, config);
    EXPECT_GE(result.variants_run, 4);
    for (const Finding& f : result.findings) {
      ADD_FAILURE() << "seed " << seed << ": " << f.signature << " — "
                    << f.detail;
    }
  }
}

// The minimized reproducers under examples/models/fuzz replay through the
// default matrix (neon_sim and sve at -O0/1/2, plus the baselines).  The two
// -O0 ones share buffers across a delay latch and a folded consumer, the
// live ranges the arena pass must get right at every -O level.
TEST(FuzzCorpus, ReproducersReplayWithoutFindings) {
  if (!toolchain::compiler_available()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::filesystem::path dir =
      std::filesystem::path(HCG_REPO_ROOT) / "examples" / "models" / "fuzz";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".xml") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 4u) << dir;
  const HarnessConfig config;
  for (const std::filesystem::path& file : files) {
    const std::string stem = file.stem().string();
    const std::uint64_t seed =
        std::stoull(stem.substr(stem.rfind("_s") + 2));
    int variants_run = 0;
    const std::vector<Finding> findings =
        check_model(load_model_file(file), seed, config, &variants_run);
    EXPECT_EQ(variants_run, static_cast<int>(variant_matrix(config).size()))
        << stem;
    for (const Finding& f : findings) {
      ADD_FAILURE() << stem << ": " << f.signature << " — " << f.detail;
    }
  }
}

TEST(FuzzDifferential, FaultSweepAcceptsCleanDegradation) {
  HarnessConfig config = quick_config();
  config.baselines = false;
  config.sweep_faults = true;
  const SeedResult result = run_seed(2, config);
  // 1 clean cell + one sweep cell per catalog site (cgir.pass included
  // because ctest exports HCG_VERIFY=1).
  EXPECT_GT(result.variants_run, 1);
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.signature << " — " << f.detail;
  }
}

TEST(FuzzDifferential, ArmedMiscompileIsDetected) {
  // The acceptance drill: a deliberately-armed pass corruption must surface
  // as a finding (the verifier runs under ctest's HCG_VERIFY=1).
  ArmedFaults armed("cgir.pass:fuse_loops=fail");
  HarnessConfig config = quick_config();
  config.baselines = false;
  const std::uint64_t seed = 3;
  const Model model = generate_model(seed, config.generator);
  const std::vector<Finding> findings = check_model(model, seed, config);
  ASSERT_FALSE(findings.empty()) << "sabotaged pass went unnoticed";
  bool caught = false;
  for (const Finding& f : findings) {
    caught |= f.signature == "verifier-reject:hcg/neon_sim/O1:fuse_loops";
  }
  EXPECT_TRUE(caught) << "first finding: " << findings.front().signature
                      << " — " << findings.front().detail;
}

TEST(FuzzDifferential, UnsoundRangeAnalysisIsDetected) {
  // The range-soundness drill: corrupting the predicted intervals (the
  // analysis.range probe collapses them to empty) must surface as a
  // kRangeUnsound finding — proof the cross-check can actually fire.
  ArmedFaults armed("analysis.range=fail");
  HarnessConfig config = quick_config();
  config.baselines = false;
  const std::uint64_t seed = 1;
  const Model model = generate_model(seed, config.generator);
  const std::vector<Finding> findings = check_model(model, seed, config);
  bool caught = false;
  for (const Finding& f : findings) {
    caught |= f.outcome == Outcome::kRangeUnsound &&
              f.signature == "range-unsound:range/O0";
  }
  EXPECT_TRUE(caught) << "corrupted intervals went unnoticed";
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(FuzzMinimize, ShrinksArmedMiscompileToTinyReproducerAndIsIdempotent) {
  ArmedFaults armed("cgir.pass:fuse_loops=fail");
  HarnessConfig config = quick_config();
  config.baselines = false;
  const std::uint64_t seed = 3;
  const Model original = generate_model(seed, config.generator);
  std::vector<Finding> findings = check_model(original, seed, config);
  ASSERT_FALSE(findings.empty());
  const Finding& finding = findings.front();

  const ReproduceFn reproduces = signature_reproducer(config, finding);
  ASSERT_TRUE(reproduces(original)) << "original must reproduce its finding";

  MinimizeStats stats;
  const Model small = minimize_model(original, reproduces, &stats);
  EXPECT_LE(small.actor_count(), 6)
      << "reproducer still has " << small.actor_count() << " actors";
  EXPECT_LT(small.actor_count(), original.actor_count());
  EXPECT_TRUE(reproduces(small)) << "minimized model lost the signature";
  EXPECT_GT(stats.accepted, 0);

  // Idempotence: a fixpoint shrinks no further.
  const Model again = minimize_model(small, reproduces, nullptr);
  EXPECT_EQ(model_to_xml(again), model_to_xml(small));

  // Soundness: the reproducer still resolves and stays lint-clean, so the
  // corpus gate can run `hcgc lint --Werror` over it.
  Model copy = small;
  analysis::DiagnosticEngine diags;
  analysis::LintOptions options;
  options.remarks = false;
  analysis::lint_model(copy, options, diags);
  EXPECT_EQ(diags.count(analysis::Severity::kError), 0)
      << diags.render("reproducer");
  EXPECT_EQ(diags.count(analysis::Severity::kWarning), 0)
      << diags.render("reproducer");
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

TEST(FuzzCampaign, CleanCampaignReportsOk) {
  CampaignConfig config;
  config.seed_start = 1;
  config.seeds = 2;
  config.harness = quick_config();
  const CampaignResult result = run_campaign(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.seeds_run, 2);
  ASSERT_TRUE(obs::json_valid(result.report_json)) << result.report_json;
  const obs::JsonValue report = obs::json_parse(result.report_json);
  EXPECT_EQ(report.at("schema").string, "hcg-fuzz-v1");
  EXPECT_TRUE(report.at("ok").boolean);
  EXPECT_TRUE(report.at("findings").array.empty());
}

TEST(FuzzCampaign, ArmedCampaignWritesMinimizedReproducerAndReport) {
  ArmedFaults armed("cgir.pass:fuse_loops=fail");
  TempDir dir;
  CampaignConfig config;
  config.seed_start = 3;
  config.seeds = 1;
  config.harness = quick_config();
  config.harness.baselines = false;
  config.max_minimized = 1;
  config.corpus_dir = (dir.path() / "corpus").string();
  config.report_path = (dir.path() / "report.json").string();

  const CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.ok());
  const CampaignFinding& f = result.findings.front();
  EXPECT_EQ(f.first.signature, "verifier-reject:hcg/neon_sim/O1:fuse_loops");
  EXPECT_GE(f.minimized_actors, 1);
  EXPECT_LE(f.minimized_actors, 6);

  // The reproducer landed (atomically) in the corpus and round-trips.
  ASSERT_FALSE(f.reproducer.empty());
  EXPECT_TRUE(std::filesystem::exists(f.reproducer));
  Model replay = load_model_file(f.reproducer);
  EXPECT_EQ(replay.actor_count(), f.minimized_actors);
  EXPECT_NO_THROW((void)resolved(replay));

  // The on-disk report matches the in-memory one and names the reproducer.
  const std::string on_disk = read_file(config.report_path);
  EXPECT_EQ(on_disk, result.report_json);
  const obs::JsonValue report = obs::json_parse(on_disk);
  EXPECT_FALSE(report.at("ok").boolean);
  EXPECT_EQ(report.at("findings").array.at(0).at("reproducer").string,
            f.reproducer);
}

// ---------------------------------------------------------------------------
// Fault-site catalog stays in sync with the probes in the source tree
// ---------------------------------------------------------------------------

TEST(FaultSites, CatalogMatchesProbesInSource) {
  // Every literal probe site in src/ and bench/ must appear in
  // faults::site_catalog() and vice versa, so HCG_FAULTS=list and
  // `hcgc faults` never drift from the code.
  std::set<std::string> in_source;
  const std::filesystem::path root(HCG_REPO_ROOT);
  for (const char* subdir : {"src", "bench"}) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root / subdir)) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      const std::string text = read_file(entry.path());
      for (const std::string& call : {std::string("probe(\""),
                                      std::string("raise_if_armed(\"")}) {
        std::size_t at = 0;
        while ((at = text.find(call, at)) != std::string::npos) {
          const std::size_t begin = at + call.size();
          const std::size_t end = text.find('"', begin);
          ASSERT_NE(end, std::string::npos);
          in_source.insert(text.substr(begin, end - begin));
          at = end;
        }
      }
    }
  }
  std::set<std::string> in_catalog;
  for (const faults::SiteInfo& site : faults::site_catalog()) {
    in_catalog.insert(std::string(site.site));
  }
  EXPECT_EQ(in_source, in_catalog)
      << "fault-site catalog and source probes drifted apart";
  EXPECT_FALSE(in_catalog.empty());
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct CliResult {
  int exit_code;
  std::string output;
};

CliResult run_hcgc(const std::string& env, const std::string& args) {
  TempDir dir;
  const auto out_path = dir.path() / "out.txt";
  const std::string cmd = (env.empty() ? "" : "env " + env + " ") +
                          std::string(HCG_HCGC_PATH) + " " + args + " > " +
                          out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::string output;
  try {
    output = read_file(out_path);
  } catch (const Error&) {
  }
  return CliResult{rc == -1 ? -1 : WEXITSTATUS(rc), output};
}

TEST(FuzzCli, FaultsSubcommandPrintsTheCatalog) {
  const CliResult r = run_hcgc("", "faults");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const faults::SiteInfo& site : faults::site_catalog()) {
    EXPECT_NE(r.output.find(site.site), std::string::npos)
        << "missing site " << site.site << " in:\n"
        << r.output;
  }
}

TEST(FuzzCli, CleanCampaignExitsZero) {
  const CliResult r = run_hcgc(
      "", "fuzz --seeds 2 --seed 1 --isa neon_sim -O1 --no-baselines");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"schema\":\"hcg-fuzz-v1\""), std::string::npos)
      << r.output;
}

TEST(FuzzCli, CounterexampleExitsTen) {
  TempDir dir;
  const std::string corpus = (dir.path() / "corpus").string();
  const CliResult r =
      run_hcgc("HCG_FAULTS=cgir.pass:fuse_loops=fail",
               "fuzz --seeds 1 --seed 3 --isa neon_sim -O1 --no-baselines "
               "--corpus " + corpus);
  EXPECT_EQ(r.exit_code, 10) << r.output;
  EXPECT_NE(r.output.find("verifier-reject:hcg/neon_sim/O1:fuse_loops"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(std::filesystem::is_empty(corpus)) << r.output;
}

TEST(FuzzCli, RejectsUnknownIsaName) {
  const CliResult r = run_hcgc("", "fuzz --seeds 1 --isa not_an_isa");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("built-in isa"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// Full acceptance campaign (expensive — opt in with HCG_FUZZ_FULL=1)
// ---------------------------------------------------------------------------

TEST(FuzzFull, FiveHundredSeedsZeroFindings) {
  const char* env = std::getenv("HCG_FUZZ_FULL");
  if (env == nullptr || *env == '\0' || std::string_view(env) == "0") {
    GTEST_SKIP() << "set HCG_FUZZ_FULL=1 to run the 500-seed campaign";
  }
  CampaignConfig config;
  config.seed_start = 1;
  config.seeds = 500;
  config.minimize = false;  // report everything, shrink nothing
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.seeds_run, 500);
  for (const CampaignFinding& f : result.findings) {
    ADD_FAILURE() << f.first.signature << " x" << f.count << " (seed "
                  << f.first.seed << "): " << f.first.detail;
  }
}

}  // namespace
}  // namespace hcg::fuzz
