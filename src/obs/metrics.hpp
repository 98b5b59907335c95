// Process-wide named counters with lock-free updates.
//
// Per-run facts belong in obs::Report; a counter exists only where a reader
// needs a total across runs (docs/OBSERVABILITY.md lists each counter and
// its reader).  A call site keeps the reference from Registry::counter() in
// a function-local static and updates it with a plain atomic add.  The
// registry deduplicates by name, so independent call sites may look up the
// same counter.  Nothing resets a counter: readers take deltas.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace hcg::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Registry {
 public:
  static Registry& instance();

  /// Returns the named counter, creating it on first use.  The returned
  /// reference stays valid for the process lifetime.
  Counter& counter(std::string_view name);

 private:
  Registry() = default;

  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
};

}  // namespace hcg::obs
