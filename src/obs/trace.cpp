#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>

#include "obs/json.hpp"

namespace hcg::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<int> g_next_tid{0};

int this_thread_ordinal() {
  thread_local const int tid = g_next_tid.fetch_add(1);
  return tid;
}

/// Per-thread stack of open span indices (indices into Tracer::events_).
std::vector<int>& span_stack() {
  thread_local std::vector<int> stack;
  return stack;
}

std::string format_ms(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(now_ns()) {}

Tracer& Tracer::instance() {
  // Intentionally leaked: spans may close from static
  // destructors / atexit handlers after a plain local static would be gone.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

int Tracer::begin(const char* name) {
  if (!enabled()) return -1;
  const std::int64_t start = now_ns() - epoch_ns_;
  std::vector<int>& stack = span_stack();
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent event;
  event.name = name;
  event.start_ns = start;
  event.depth = static_cast<int>(stack.size());
  event.parent = stack.empty() ? -1 : stack.back();
  event.tid = this_thread_ordinal();
  const int index = static_cast<int>(events_.size());
  events_.push_back(std::move(event));
  stack.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  const std::int64_t stop = now_ns() - epoch_ns_;
  std::vector<int>& stack = span_stack();
  if (!stack.empty() && stack.back() == index) stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  if (index < static_cast<int>(events_.size())) {
    events_[static_cast<size_t>(index)].dur_ns =
        stop - events_[static_cast<size_t>(index)].start_ns;
  }
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string Tracer::trace_json() const {
  const std::vector<TraceEvent> snapshot = events();
  JsonWriter w;
  w.begin_array();
  for (const TraceEvent& e : snapshot) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(e.start_ns) / 1e3);
    w.key("dur").value(static_cast<double>(e.dur_ns < 0 ? 0 : e.dur_ns) / 1e3);
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    w.end_object();
  }
  w.end_array();
  return w.take();
}

std::string Tracer::summary() const {
  const std::vector<TraceEvent> snapshot = events();
  std::string out;
  for (const TraceEvent& e : snapshot) {
    std::string line(static_cast<size_t>(e.depth) * 2, ' ');
    line += e.name;
    if (line.size() < 40) line.resize(40, ' ');
    line += "  ";
    line += e.dur_ns < 0 ? "(open)" : format_ms(e.dur_ns);
    out += line + "\n";
  }
  return out;
}

}  // namespace hcg::obs
