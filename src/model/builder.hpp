// Fluent programmatic construction of models.
//
// ModelBuilder is the API most tests, examples and benchmark models use;
// the XML loader (loader.hpp) produces the same Model structure from files.
#pragma once

#include <initializer_list>
#include <string_view>
#include <vector>

#include "model/model.hpp"

namespace hcg {

/// A (actor, output port) handle used to wire actors together.
struct PortRef {
  ActorId actor = kNoActor;
  int port = 0;
};

class ModelBuilder {
 public:
  explicit ModelBuilder(std::string_view name) : model_(std::string(name)) {}

  /// Adds an external input of the given element type and shape.
  PortRef inport(std::string_view name, DataType type, Shape shape);

  /// Adds a constant source.  `value` is either a single literal replicated
  /// across the shape ("7", "0.5") or a comma-separated list ("1,2,3,4").
  PortRef constant(std::string_view name, DataType type, Shape shape,
                   std::string_view value);

  /// Adds an actor of arbitrary type wired to `inputs` (in port order).
  PortRef actor(std::string_view name, std::string_view type,
                std::initializer_list<PortRef> inputs,
                std::initializer_list<std::pair<std::string_view,
                                                std::string_view>> params = {});
  PortRef actor(std::string_view name, std::string_view type,
                const std::vector<PortRef>& inputs,
                std::initializer_list<std::pair<std::string_view,
                                                std::string_view>> params = {});

  /// Adds an external output fed by `src`.
  void outport(std::string_view name, PortRef src);

  Model& model() { return model_; }

  /// Finishes construction and returns the model by value.
  Model take() { return std::move(model_); }

 private:
  Model model_;
};

}  // namespace hcg
