#include "obs/report.hpp"

#include "obs/json.hpp"

namespace hcg::obs {

namespace {

/// Writes `timings` as an array of {"name", "ms"} objects under `key`.
void write_timings(JsonWriter& w, const char* key,
                   const std::vector<ReportPhase>& timings) {
  w.key(key).begin_array();
  for (const ReportPhase& timing : timings) {
    w.begin_object();
    w.key("name").value(timing.name);
    w.key("ms").value(timing.ms);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

double Report::simd_coverage() const {
  int total = 0;
  int covered = 0;
  for (const ReportRegion& region : regions) {
    total += region.nodes;
    if (region.used_simd) covered += region.nodes;
  }
  return total == 0 ? 0.0 : static_cast<double>(covered) / total;
}

std::string Report::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("hcg-report-v1");
  w.key("model").value(model);
  w.key("tool").value(tool);
  w.key("isa").value(isa);
  w.key("actor_count").value(actor_count);

  write_timings(w, "phases", phases);

  w.key("intensive").begin_array();
  for (const ReportIntensive& choice : intensive) {
    w.begin_object();
    w.key("actor").value(choice.actor);
    w.key("type").value(choice.actor_type);
    w.key("dtype").value(choice.dtype);
    w.key("impl").value(choice.impl);
    w.key("from_history").value(choice.from_history);
    w.key("selected").value(choice.selected);
    w.key("candidates").begin_array();
    for (const ReportCandidate& candidate : choice.candidates) {
      w.begin_object();
      w.key("impl").value(candidate.impl);
      w.key("ms").value(candidate.ms);
      w.key("samples").value(candidate.samples);
      w.key("screened").value(candidate.screened);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("regions").begin_array();
  for (const ReportRegion& region : regions) {
    w.begin_object();
    w.key("actors").begin_array();
    for (const std::string& actor : region.actors) w.value(actor);
    w.end_array();
    w.key("nodes").value(region.nodes);
    w.key("used_simd").value(region.used_simd);
    w.key("batch_size").value(region.batch_size);
    w.key("batch_count").value(region.batch_count);
    w.key("scalar_remainder").value(region.scalar_remainder);
    w.key("predicated").value(region.predicated);
    w.key("instructions").begin_array();
    for (const std::string& ins : region.instructions) w.value(ins);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("codegen").begin_object();
  w.key("emit_bytes").value(emit_bytes);
  w.key("static_buffer_bytes").value(static_buffer_bytes);
  w.key("fused_regions").value(fused_regions);
  w.key("simd_coverage").value(simd_coverage());
  w.key("opt_level").value(opt_level);
  w.key("loops").begin_object();
  w.key("predicated").value(loops_predicated);
  w.end_object();
  w.key("fusion").begin_object();
  w.key("loops_fused").value(loops_fused);
  w.key("copies_elided").value(copies_elided);
  w.key("cross_scale_fused").value(cross_scale_fused);
  w.end_object();
  w.key("arena").begin_object();
  w.key("bytes_saved").value(arena_bytes_saved);
  w.end_object();
  w.key("layout").begin_object();
  w.key("strips_localized").value(strips_localized);
  w.end_object();
  write_timings(w, "passes", passes);
  w.key("verified_passes").begin_array();
  for (const std::string& pass : verified_passes) w.value(pass);
  w.end_array();
  w.end_object();

  if (!diagnostics.empty()) {
    w.key("diagnostics").begin_array();
    for (const ReportDiagnostic& diag : diagnostics) {
      w.begin_object();
      w.key("code").value(diag.code);
      w.key("severity").value(diag.severity);
      w.key("location").value(diag.location);
      w.key("message").value(diag.message);
      w.end_object();
    }
    w.end_array();
  }

  if (range_ran) {
    w.key("range_analysis").begin_object();
    w.key("actors_analyzed").value(range_actors_analyzed);
    w.key("bounded_outputs").value(range_bounded_outputs);
    w.key("widened_delays").value(range_widened_delays);
    w.key("regions_narrowed").value(regions_narrowed);
    w.key("narrowing_blocked").value(narrowing_blocked);
    w.end_object();
  }

  w.key("degraded").begin_array();
  for (const ReportFallback& fallback : degraded) {
    w.begin_object();
    w.key("actor").value(fallback.actor);
    w.key("stage").value(fallback.stage);
    w.key("impl").value(fallback.impl);
    w.key("reference_fallback").value(fallback.reference_fallback);
    w.key("failures").begin_array();
    for (const ReportFailedCandidate& failure : fallback.failures) {
      w.begin_object();
      w.key("impl").value(failure.impl);
      w.key("reason").value(failure.reason);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("history").begin_object();
  w.key("hits").value(history_hits);
  w.key("misses").value(history_misses);
  w.key("entries").value(history_entries);
  w.end_object();

  if (compile_ms >= 0) {
    w.key("toolchain").begin_object();
    w.key("compile_ms").value(compile_ms);
    w.key("command").value(compile_command);
    w.end_object();
  }

  if (profile_reps > 0) {
    w.key("runtime_profile").begin_object();
    w.key("reps").value(profile_reps);
    w.key("clock").value(profile_clock);
    w.key("sites").begin_array();
    for (const ReportProfileSite& site : runtime_profile) {
      w.begin_object();
      w.key("id").value(site.id);
      w.key("kind").value(site.kind);
      w.key("label").value(site.label);
      w.key("ns").value(site.ns);
      w.key("calls").value(site.calls);
      w.key("iters").value(site.iters);
      w.key("mean_ns_per_call").value(site.mean_ns_per_call);
      if (site.predicted_ns >= 0) {
        w.key("predicted_ns").value(site.predicted_ns);
        w.key("abs_err_pct").value(site.abs_err_pct);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  return w.take();
}

}  // namespace hcg::obs
