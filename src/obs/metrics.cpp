#include "obs/metrics.hpp"

namespace hcg::obs {

Registry& Registry::instance() {
  // Intentionally leaked: counter references are handed out for the process
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

}  // namespace hcg::obs
