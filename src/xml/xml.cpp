#include "xml/xml.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg::xml {

// ---------------------------------------------------------------------------
// Element
// ---------------------------------------------------------------------------

bool Element::has_attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes_) {
    if (k == key) return true;
  }
  return false;
}

const std::string& Element::attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes_) {
    if (k == key) return v;
  }
  throw ParseError("element <" + name_ + "> missing attribute '" +
                   std::string(key) + "'");
}

std::string Element::attribute_or(std::string_view key,
                                  std::string_view fallback) const {
  for (const auto& [k, v] : attributes_) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

long long Element::int_attribute(std::string_view key) const {
  return parse_int(attribute(key));
}

long long Element::int_attribute_or(std::string_view key,
                                    long long fallback) const {
  if (!has_attribute(key)) return fallback;
  return parse_int(attribute(key));
}

void Element::set_attribute(std::string_view key, std::string_view value) {
  for (auto& [k, v] : attributes_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  attributes_.emplace_back(std::string(key), std::string(value));
}

Element& Element::add_child(std::string name) {
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

void Element::adopt_child(std::unique_ptr<Element> child) {
  children_.push_back(std::move(child));
}

const Element* Element::find_child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

const Element& Element::child(std::string_view name) const {
  const Element* c = find_child(name);
  if (!c) {
    throw ParseError("element <" + name_ + "> missing child <" +
                     std::string(name) + ">");
  }
  return *c;
}

std::vector<const Element*> Element::find_children(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

std::string Element::to_string(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name_;
  for (const auto& [k, v] : attributes_) {
    out += " " + k + "=\"" + escape(v) + "\"";
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (!text_.empty()) out += escape(text_);
  if (!children_.empty()) {
    out += "\n";
    for (const auto& c : children_) out += c->to_string(indent + 1);
    out += pad;
  }
  out += "</" + name_ + ">\n";
  return out;
}

std::string Document::to_string() const {
  return "<?xml version=\"1.0\"?>\n" + root_->to_string();
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Document parse_document() {
    skip_prolog();
    auto root = parse_element();
    skip_misc();
    if (!at_end()) fail("trailing content after root element");
    return Document(std::move(root));
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("XML: " + message, line_, column_);
  }

  bool at_end() const { return pos_ >= text_.size(); }

  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  char advance() {
    if (at_end()) fail("unexpected end of input");
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool consume(std::string_view token) {
    if (text_.substr(pos_).substr(0, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) advance();
    return true;
  }

  void expect(std::string_view token) {
    if (!consume(token)) {
      fail("expected '" + std::string(token) + "'");
    }
  }

  void skip_whitespace() {
    while (!at_end()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void skip_comment() {
    // Assumes "<!--" already consumed.
    while (!consume("-->")) {
      if (at_end()) fail("unterminated comment");
      advance();
    }
  }

  /// Skips the XML declaration, processing instructions and comments that
  /// may appear before / after the root element.
  void skip_prolog() {
    while (true) {
      skip_whitespace();
      if (consume("<?")) {
        while (!consume("?>")) {
          if (at_end()) fail("unterminated processing instruction");
          advance();
        }
      } else if (consume("<!--")) {
        skip_comment();
      } else if (consume("<!DOCTYPE")) {
        fail("DOCTYPE declarations are not supported");
      } else {
        return;
      }
    }
  }

  void skip_misc() {
    while (true) {
      skip_whitespace();
      if (consume("<!--")) {
        skip_comment();
      } else {
        return;
      }
    }
  }

  static bool is_name_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool is_name_char(char c) {
    return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  std::string parse_name() {
    if (!is_name_start(peek())) fail("expected a name");
    std::string name;
    while (!at_end() && is_name_char(peek())) name += advance();
    return name;
  }

  std::string decode_entity() {
    // Assumes '&' already consumed.
    std::string entity;
    while (peek() != ';') {
      if (at_end() || entity.size() > 8) fail("malformed character entity");
      entity += advance();
    }
    advance();  // ';'
    if (entity == "lt") return "<";
    if (entity == "gt") return ">";
    if (entity == "amp") return "&";
    if (entity == "quot") return "\"";
    if (entity == "apos") return "'";
    if (!entity.empty() && entity[0] == '#') {
      long long code = 0;
      try {
        code = (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X'))
                   ? std::stoll(entity.substr(2), nullptr, 16)
                   : parse_int(entity.substr(1));
      } catch (const std::exception&) {
        fail("malformed numeric entity '&" + entity + ";'");
      }
      if (code <= 0 || code > 127) {
        fail("numeric entity out of ASCII range: '&" + entity + ";'");
      }
      return std::string(1, static_cast<char>(code));
    }
    fail("unknown entity '&" + entity + ";'");
  }

  std::string parse_attribute_value() {
    char quote = advance();
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    std::string value;
    while (peek() != quote) {
      if (at_end()) fail("unterminated attribute value");
      char c = advance();
      if (c == '&') {
        value += decode_entity();
      } else if (c == '<') {
        fail("'<' is not allowed in attribute values");
      } else {
        value += c;
      }
    }
    advance();  // closing quote
    return value;
  }

  std::unique_ptr<Element> parse_element() {
    expect("<");
    auto element = std::make_unique<Element>(parse_name());

    // Attributes.
    while (true) {
      skip_whitespace();
      if (consume("/>")) return element;
      if (consume(">")) break;
      std::string key = parse_name();
      skip_whitespace();
      expect("=");
      skip_whitespace();
      if (element->has_attribute(key)) {
        fail("duplicate attribute '" + key + "'");
      }
      element->set_attribute(key, parse_attribute_value());
    }

    // Content.
    std::string text;
    while (true) {
      if (at_end()) fail("unterminated element <" + element->name() + ">");
      if (consume("<!--")) {
        skip_comment();
      } else if (consume("<![CDATA[")) {
        while (!consume("]]>")) {
          if (at_end()) fail("unterminated CDATA section");
          text += advance();
        }
      } else if (consume("</")) {
        std::string closing = parse_name();
        if (closing != element->name()) {
          fail("mismatched closing tag </" + closing + "> for <" +
               element->name() + ">");
        }
        skip_whitespace();
        expect(">");
        element->set_text(trim(text));
        return element;
      } else if (peek() == '<') {
        element->adopt_child(parse_element());
      } else if (peek() == '&') {
        advance();
        text += decode_entity();
      } else {
        text += advance();
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Document parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace hcg::xml
