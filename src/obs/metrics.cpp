#include "obs/metrics.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace hcg::obs {

namespace {

#ifndef HCG_DISABLE_TRACING
/// Lock-free fold of an atomic double with an arbitrary combiner.
template <typename Fold>
void atomic_fold(std::atomic<double>& target, double v, Fold fold) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, fold(cur, v),
                                       std::memory_order_relaxed)) {
  }
}

int bucket_index(double v) {
  if (!(v > 0)) return 0;
  const int e = std::ilogb(v);
  if (e < 0) return 0;
  if (e >= Histogram::kBuckets) return Histogram::kBuckets - 1;
  return e;
}
#endif  // HCG_DISABLE_TRACING

}  // namespace

void Histogram::observe(double v) {
#ifndef HCG_DISABLE_TRACING
  if (!std::isfinite(v)) return;
  const bool first = count_.fetch_add(1, std::memory_order_relaxed) == 0;
  buckets_[static_cast<size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  atomic_fold(sum_, v, [](double a, double b) { return a + b; });
  if (first) {
    // Seed min/max with the first sample; racing observers fold over it.
    atomic_fold(min_, v, [](double, double b) { return b; });
    atomic_fold(max_, v, [](double, double b) { return b; });
  } else {
    atomic_fold(min_, v, [](double a, double b) { return b < a ? b : a; });
    atomic_fold(max_, v, [](double a, double b) { return b > a ? b : a; });
  }
#else
  (void)v;
#endif
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > rank) return std::ldexp(1.5, i);  // bucket midpoint
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  // Intentionally leaked: metric references are handed out for the process
  // lifetime and may still be used after static destruction would have run.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(c->value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).value(g->value());
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("count").value(h->count());
    w.key("sum").value(h->sum());
    w.key("min").value(h->min());
    w.key("max").value(h->max());
    w.key("mean").value(h->mean());
    w.key("p50").value(h->p50());
    w.key("p95").value(h->p95());
    w.key("p99").value(h->p99());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace hcg::obs
