// Minimal DOM XML parser and writer.
//
// The paper's implementation parses Simulink's zipped-XML .slx files with
// TinyXML; this module is our self-contained substitute.  It supports the
// subset of XML needed for model files and .isa tables:
//   * elements with attributes and text content
//   * character entities (&lt; &gt; &amp; &quot; &apos; and &#NNN;)
//   * comments and XML declarations / processing instructions (skipped)
//   * CDATA sections
// It deliberately does not support DTDs or namespaces.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hcg::xml {

/// One element of the document tree.  Children are owned by the parent.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- attributes -------------------------------------------------------
  bool has_attribute(std::string_view key) const;
  /// Returns the attribute value; throws hcg::ParseError if absent.
  const std::string& attribute(std::string_view key) const;
  /// Returns the attribute value or `fallback` if absent.
  std::string attribute_or(std::string_view key, std::string_view fallback) const;
  /// Attribute parsed as integer; throws on absence or garbage.
  long long int_attribute(std::string_view key) const;
  long long int_attribute_or(std::string_view key, long long fallback) const;
  void set_attribute(std::string_view key, std::string_view value);
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  // ---- text content ------------------------------------------------------
  /// Concatenated character data directly inside this element (entity-decoded).
  const std::string& text() const { return text_; }
  void set_text(std::string_view text) { text_ = text; }

  // ---- children ----------------------------------------------------------
  const std::vector<std::unique_ptr<Element>>& children() const {
    return children_;
  }
  /// Adds a child and returns a reference to it.
  Element& add_child(std::string name);
  /// Takes ownership of an already-built element.
  void adopt_child(std::unique_ptr<Element> child);
  /// First child with the given element name, or nullptr.
  const Element* find_child(std::string_view name) const;
  /// First child with the given name; throws hcg::ParseError if absent.
  const Element& child(std::string_view name) const;
  /// All children with the given element name.
  std::vector<const Element*> find_children(std::string_view name) const;

  /// Serializes this element (and subtree) as indented XML.
  std::string to_string(int indent = 0) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::string text_;
  std::vector<std::unique_ptr<Element>> children_;
};

/// A parsed document: owns the root element.
class Document {
 public:
  explicit Document(std::unique_ptr<Element> root) : root_(std::move(root)) {}

  const Element& root() const { return *root_; }
  Element& root() { return *root_; }

  std::string to_string() const;

 private:
  std::unique_ptr<Element> root_;
};

/// Parses an XML document from text; throws hcg::ParseError with line/column
/// information on malformed input.
Document parse(std::string_view text);

/// Escapes the five XML special characters in `text`.
std::string escape(std::string_view text);

}  // namespace hcg::xml
