#include "model/schedule.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace hcg {

bool is_delay_type(const std::string& type) { return type == "UnitDelay"; }

std::vector<ActorId> schedule(const Model& model) {
  const int n = model.actor_count();
  std::vector<int> pending(static_cast<size_t>(n), 0);

  // Count dependency edges into each actor.  Multiple wires between the same
  // actor pair each count; what matters is that the count reaches zero only
  // when every producer has fired.  Edges touching a delay are not
  // dependencies: a delay's output is its stored state (available
  // immediately) and its input is consumed by the end-of-step state update.
  for (const Connection& c : model.connections()) {
    if (is_delay_type(model.actor(c.src).type())) continue;
    if (is_delay_type(model.actor(c.dst).type())) continue;
    ++pending[static_cast<size_t>(c.dst)];
  }

  // Kahn's algorithm with an id-ordered ready set for determinism.
  std::vector<ActorId> ready;
  for (ActorId id = 0; id < n; ++id) {
    if (pending[static_cast<size_t>(id)] == 0) ready.push_back(id);
  }

  std::vector<ActorId> order;
  order.reserve(static_cast<size_t>(n));
  while (!ready.empty()) {
    // Smallest id first.
    auto it = std::min_element(ready.begin(), ready.end());
    ActorId id = *it;
    ready.erase(it);
    order.push_back(id);
    if (is_delay_type(model.actor(id).type())) continue;
    for (const Connection& c : model.outgoing_all(id)) {
      if (is_delay_type(model.actor(c.dst).type())) continue;
      if (--pending[static_cast<size_t>(c.dst)] == 0) ready.push_back(c.dst);
    }
  }

  if (static_cast<int>(order.size()) != n) {
    std::string cycle_members;
    for (ActorId id = 0; id < n; ++id) {
      if (pending[static_cast<size_t>(id)] > 0) {
        if (!cycle_members.empty()) cycle_members += ", ";
        cycle_members += model.actor(id).name();
      }
    }
    throw ModelError("model contains a cycle not broken by a delay: " +
                     cycle_members);
  }
  return order;
}

}  // namespace hcg
