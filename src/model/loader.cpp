#include "model/loader.hpp"

#include <map>

#include "model/subsystem.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/fileio.hpp"
#include "support/strings.hpp"
#include "xml/xml.hpp"

namespace hcg {

namespace {

/// Splits "actor" / "actor:N" into (name, port).
std::pair<std::string, int> split_endpoint(std::string_view text) {
  std::string_view name = text;
  int port = 0;
  const size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    name = text.substr(0, colon);
    port = static_cast<int>(parse_int(text.substr(colon + 1)));
  }
  return {std::string(trim(name)), port};
}

Model model_from_element(const xml::Element& root);

/// Loader state for one <model> element, including flattened subsystems.
class ModelAssembler {
 public:
  explicit ModelAssembler(const xml::Element& root)
      : model_(root.attribute("name")) {
    for (const xml::Element* e : root.find_children("actor")) {
      const std::string name = e->attribute("name");
      const std::string type = e->attribute("type");
      if (type == "Subsystem") {
        const xml::Element* inner_element = e->find_child("model");
        if (inner_element == nullptr) {
          throw ModelError("subsystem '" + name +
                           "' needs a nested <model> element");
        }
        const Model inner = model_from_element(*inner_element);
        subsystems_.emplace(name, append_flattened(model_, name, inner));
        continue;
      }
      const ActorId id = model_.add_actor(name, type);
      Actor& actor = model_.actor(id);
      for (const auto& [key, value] : e->attributes()) {
        if (key == "name" || key == "type") continue;
        actor.set_param(key, value);
      }
      for (const xml::Element* p : e->find_children("param")) {
        actor.set_param(p->attribute("name"), p->attribute("value"));
      }
    }

    // Gather raw wires first: passthrough resolution may need the wire that
    // feeds a subsystem input before the wire leaving its output is seen.
    for (const xml::Element* e : root.find_children("connect")) {
      RawConnection raw{split_endpoint(e->attribute("from")),
                        split_endpoint(e->attribute("to"))};
      if (subsystems_.count(raw.to.first)) {
        feeding_[raw.to] = raw.from;
      }
      raw_.push_back(std::move(raw));
    }

    for (const RawConnection& raw : raw_) {
      const auto [src, src_port] = resolve_source(raw.from, 0);
      for (const auto& [dst, dst_port] : resolve_targets(raw.to)) {
        model_.connect(src, src_port, dst, dst_port);
      }
    }
  }

  Model take() { return std::move(model_); }

 private:
  using Endpoint = std::pair<std::string, int>;

  struct RawConnection {
    Endpoint from;
    Endpoint to;
  };

  /// The real (actor, port) producing the value at `from`, following
  /// subsystem output passthroughs.
  std::pair<ActorId, int> resolve_source(const Endpoint& from, int depth) {
    if (depth > 64) {
      throw ModelError("subsystem passthrough chain too deep at '" +
                       from.first + "'");
    }
    auto sub = subsystems_.find(from.first);
    if (sub == subsystems_.end()) {
      const ActorId id = model_.find_actor(from.first);
      if (id == kNoActor) {
        throw ModelError("connection references unknown actor '" +
                         from.first + "'");
      }
      return {id, from.second};
    }
    const auto& outputs = sub->second.outputs;
    if (from.second < 0 || from.second >= static_cast<int>(outputs.size())) {
      throw ModelError("subsystem '" + from.first + "' has no output port " +
                       std::to_string(from.second));
    }
    const FlattenedSubsystem::Output& out =
        outputs[static_cast<size_t>(from.second)];
    if (out.passthrough_input < 0) return {out.src, out.src_port};
    // Pure passthrough: chase the wire feeding that subsystem input.
    auto fed = feeding_.find(Endpoint{from.first, out.passthrough_input});
    if (fed == feeding_.end()) {
      throw ModelError("subsystem '" + from.first + "' input " +
                       std::to_string(out.passthrough_input) +
                       " is unconnected but its output passes it through");
    }
    return resolve_source(fed->second, depth + 1);
  }

  /// The (actor, input port) pairs the wire into `to` must reach.
  std::vector<std::pair<ActorId, int>> resolve_targets(const Endpoint& to) {
    auto sub = subsystems_.find(to.first);
    if (sub == subsystems_.end()) {
      const ActorId id = model_.find_actor(to.first);
      if (id == kNoActor) {
        throw ModelError("connection references unknown actor '" + to.first +
                         "'");
      }
      return {{id, to.second}};
    }
    const auto& inputs = sub->second.input_targets;
    if (to.second < 0 || to.second >= static_cast<int>(inputs.size())) {
      throw ModelError("subsystem '" + to.first + "' has no input port " +
                       std::to_string(to.second));
    }
    // Pure-passthrough inputs legitimately have zero interior targets; the
    // consumer side resolves through resolve_source.
    return inputs[static_cast<size_t>(to.second)];
  }

  Model model_;
  std::map<std::string, FlattenedSubsystem> subsystems_;
  std::map<Endpoint, Endpoint> feeding_;
  std::vector<RawConnection> raw_;
};

Model model_from_element(const xml::Element& root) {
  if (root.name() != "model") {
    throw ParseError("model element must be <model>, got <" + root.name() +
                     ">");
  }
  return ModelAssembler(root).take();
}

}  // namespace

Model load_model(std::string_view xml_text) {
  HCG_TRACE_SCOPE("model.load");
  xml::Document doc = xml::parse(xml_text);
  return model_from_element(doc.root());
}

Model load_model_file(const std::filesystem::path& path) {
  HCG_TRACE_SCOPE("model.load_file");
  return load_model(read_file(path));
}

std::string model_to_xml(const Model& model) {
  xml::Element root("model");
  root.set_attribute("name", model.name());
  for (const Actor& a : model.actors()) {
    xml::Element& e = root.add_child("actor");
    e.set_attribute("name", a.name());
    e.set_attribute("type", a.type());
    for (const auto& [key, value] : a.params()) {
      e.set_attribute(key, value);
    }
  }
  for (const Connection& c : model.connections()) {
    xml::Element& e = root.add_child("connect");
    e.set_attribute("from", model.actor(c.src).name() + ":" +
                                std::to_string(c.src_port));
    e.set_attribute("to", model.actor(c.dst).name() + ":" +
                              std::to_string(c.dst_port));
  }
  return "<?xml version=\"1.0\"?>\n" + root.to_string();
}

}  // namespace hcg
