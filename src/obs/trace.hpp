// RAII span tracer for the code-generation pipeline.
//
// Usage:
//   void resolve_model(Model& m) {
//     HCG_TRACE_SCOPE("resolve");
//     ...
//   }
//
// Spans nest (per thread) into a trace tree with monotonic-clock timings.
// The tracer is disabled by default — begin() is a single relaxed atomic
// load on the hot path — and is switched on by `hcgc --trace`, the
// HCG_TRACE environment variable, or Tracer::set_enabled(true).
//
// Two exporters:
//   * trace_json(): Chrome trace-event format (array of complete "X" events
//     with name/ph/ts/dur/pid/tid), loadable in chrome://tracing / Perfetto.
//   * summary(): an indented human-readable tree with durations.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hcg::obs {

struct TraceEvent {
  std::string name;
  std::int64_t start_ns = 0;  // relative to the tracer epoch
  std::int64_t dur_ns = -1;   // -1 while the span is still open
  int depth = 0;              // nesting depth within its thread
  int parent = -1;            // index of the enclosing span, -1 for roots
  int tid = 0;                // small per-thread ordinal
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts a span; returns its event index, or -1 when tracing is off.
  int begin(const char* name);
  /// Finishes the span returned by begin(); ignores -1.
  void end(int index);

  /// Drops all recorded events.  Only call between pipeline runs (open
  /// spans' indices would dangle).
  void clear();

  /// Snapshot of the recorded events in start order.
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON (timestamps/durations in microseconds).
  std::string trace_json() const;

  /// Indented tree with per-span durations, for terminal output.
  std::string summary() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::int64_t epoch_ns_ = 0;
};

/// RAII helper behind HCG_TRACE_SCOPE.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::instance().begin(name)) {}
  ~ScopedSpan() { Tracer::instance().end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace hcg::obs

#define HCG_OBS_CONCAT_IMPL(a, b) a##b
#define HCG_OBS_CONCAT(a, b) HCG_OBS_CONCAT_IMPL(a, b)

#define HCG_TRACE_SCOPE(name) \
  ::hcg::obs::ScopedSpan HCG_OBS_CONCAT(hcg_trace_span_, __LINE__)(name)
