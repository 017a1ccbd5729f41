#include "pagegen/template.h"

#include <charconv>

#include "common/fnv.h"

namespace nagano::pagegen {

TemplateContext::TemplateContext(const TemplateContext* parent)
    : parent_(parent) {
  // Room for a typical page's variables and list items in one allocation
  // each.
  arena_.reserve(1024);
  slots_.reserve(64);
  scopes_.reserve(32);
  scopes_.emplace_back();
}

TemplateContext& TemplateContext::Set(std::string_view key,
                                      std::string_view value) {
  SetIn(0, key, value);
  return *this;
}

TemplateContext& TemplateContext::Set(std::string_view key, int64_t value) {
  SetIn(0, key, value);
  return *this;
}

TemplateContext& TemplateContext::Set(std::string_view key, double value) {
  SetIn(0, key, value);
  return *this;
}

TemplateContext::Item TemplateContext::AddItem(std::string_view list) {
  return Item(this, AddItemIn(0, list));
}

TemplateContext::Item& TemplateContext::Item::Set(std::string_view key,
                                                  std::string_view value) {
  context_->SetIn(scope_, key, value);
  return *this;
}

TemplateContext::Item& TemplateContext::Item::Set(std::string_view key,
                                                  int64_t value) {
  context_->SetIn(scope_, key, value);
  return *this;
}

TemplateContext::Item& TemplateContext::Item::Set(std::string_view key,
                                                  double value) {
  context_->SetIn(scope_, key, value);
  return *this;
}

TemplateContext::Item TemplateContext::Item::AddItem(std::string_view list) {
  return Item(context_, context_->AddItemIn(scope_, list));
}

uint32_t TemplateContext::KeyHash(std::string_view key) {
  return static_cast<uint32_t>(Fnv1a(key));
}

uint32_t TemplateContext::NewSlot(uint32_t scope, std::string_view key) {
  Slot slot;
  slot.key_hash = KeyHash(key);
  slot.key_at = static_cast<uint32_t>(arena_.size());
  slot.key_size = static_cast<uint32_t>(key.size());
  arena_.append(key);
  slot.older = scopes_[scope].newest;
  const auto index = static_cast<uint32_t>(slots_.size());
  slots_.push_back(slot);
  scopes_[scope].newest = index;
  return index;
}

void TemplateContext::SetIn(uint32_t scope, std::string_view key,
                            std::string_view value) {
  const uint32_t index = NewSlot(scope, key);
  slots_[index].value_at = static_cast<uint32_t>(arena_.size());
  slots_[index].value_size = static_cast<uint32_t>(value.size());
  arena_.append(value);
}

void TemplateContext::SetIn(uint32_t scope, std::string_view key,
                            int64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  SetIn(scope, key, std::string_view(buf, end - buf));
}

void TemplateContext::SetIn(uint32_t scope, std::string_view key,
                            double value) {
  // Same bytes as printf's %.6g.
  char buf[48];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::general, 6);
  SetIn(scope, key, std::string_view(buf, end - buf));
}

uint32_t TemplateContext::AddItemIn(uint32_t scope, std::string_view list) {
  const Slot* found = Find(scope, list, KeyHash(list));
  const uint32_t index =
      found != nullptr && found->is_list
          ? static_cast<uint32_t>(found - slots_.data())
          : NewSlot(scope, list);
  const auto item = static_cast<uint32_t>(scopes_.size());
  scopes_.emplace_back();
  Slot& slot = slots_[index];
  if (slot.is_list) {
    scopes_[slot.last_item].next_item = item;
  } else {
    slot.is_list = true;
    slot.first_item = item;
  }
  slot.last_item = item;
  return item;
}

const TemplateContext::Slot* TemplateContext::Find(uint32_t scope,
                                                   std::string_view key,
                                                   uint32_t hash) const {
  for (uint32_t i = scopes_[scope].newest; i != kNone; i = slots_[i].older) {
    const Slot& slot = slots_[i];
    if (slot.key_hash == hash && Bytes(slot.key_at, slot.key_size) == key) {
      return &slot;
    }
  }
  return nullptr;
}

void HtmlEscapeTo(std::string_view s, std::string& out) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      default: continue;
    }
    out.append(s, run, i - run);
    out.append(entity);
    run = i + 1;
  }
  out.append(s, run, s.size() - run);
}

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

class TemplateParser {
 public:
  explicit TemplateParser(std::string_view source) : src_(source) {}

  Result<std::vector<CompiledTemplate::Node>> Parse() {
    std::vector<CompiledTemplate::Node> roots;
    Status s = ParseNodes(roots, /*section=*/"");
    if (!s.ok()) return s;
    if (pos_ != src_.size()) {
      return InvalidArgumentError("unexpected {{/" + pending_close_ + "}}");
    }
    return roots;
  }

 private:
  using Node = CompiledTemplate::Node;
  using NodeType = CompiledTemplate::NodeType;

  // Parses until EOF or a {{/section}} matching `section`. On a section
  // close, leaves pos_ after the close tag.
  Status ParseNodes(std::vector<Node>& out, const std::string& section) {
    while (pos_ < src_.size()) {
      const size_t open = src_.find("{{", pos_);
      if (open == std::string_view::npos) {
        AppendText(out, src_.substr(pos_));
        pos_ = src_.size();
        break;
      }
      AppendText(out, src_.substr(pos_, open - pos_));

      // Triple mustache?
      bool raw = false;
      size_t tag_start = open + 2;
      std::string_view closer = "}}";
      if (tag_start < src_.size() && src_[tag_start] == '{') {
        raw = true;
        ++tag_start;
        closer = "}}}";
      }
      const size_t close = src_.find(closer, tag_start);
      if (close == std::string_view::npos) {
        return InvalidArgumentError("unterminated tag at offset " +
                                    std::to_string(open));
      }
      std::string_view tag = Trim(src_.substr(tag_start, close - tag_start));
      pos_ = close + closer.size();

      if (raw) {
        if (tag.empty()) return InvalidArgumentError("empty raw tag");
        out.push_back(Node{NodeType::kRawVariable, std::string(tag), {}});
        continue;
      }
      if (tag.empty()) return InvalidArgumentError("empty tag");

      switch (tag.front()) {
        case '!':
          break;  // comment
        case '>': {
          const std::string name(Trim(tag.substr(1)));
          if (name.empty()) return InvalidArgumentError("empty fragment name");
          out.push_back(Node{NodeType::kFragment, name, {}});
          break;
        }
        case '#':
        case '^': {
          const bool inverted = tag.front() == '^';
          const std::string name(Trim(tag.substr(1)));
          if (name.empty()) return InvalidArgumentError("empty section name");
          Node node{inverted ? NodeType::kInverted : NodeType::kSection, name, {}};
          Status s = ParseNodes(node.children, name);
          if (!s.ok()) return s;
          if (closed_section_ != name) {
            return InvalidArgumentError("section {{#" + name + "}} not closed");
          }
          closed_section_.clear();
          out.push_back(std::move(node));
          break;
        }
        case '/': {
          const std::string name(Trim(tag.substr(1)));
          if (section.empty() || name != section) {
            pending_close_ = name;
            // Rewind so the caller's caller sees the stray close.
            if (section.empty()) {
              return InvalidArgumentError("stray close tag {{/" + name + "}}");
            }
            return InvalidArgumentError("mismatched close tag {{/" + name +
                                        "}} inside {{#" + section + "}}");
          }
          closed_section_ = name;
          return Status::Ok();
        }
        default:
          out.push_back(Node{NodeType::kVariable, std::string(tag), {}});
      }
    }
    if (!section.empty()) {
      return InvalidArgumentError("section {{#" + section + "}} never closed");
    }
    return Status::Ok();
  }

  void AppendText(std::vector<Node>& out, std::string_view text) {
    if (text.empty()) return;
    if (!out.empty() && out.back().type == NodeType::kText) {
      out.back().text += text;
    } else {
      out.push_back(Node{NodeType::kText, std::string(text), {}});
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  std::string closed_section_;
  std::string pending_close_;
};

Result<CompiledTemplate> CompiledTemplate::Compile(std::string_view source) {
  TemplateParser parser(source);
  auto nodes = parser.Parse();
  if (!nodes.ok()) return nodes.status();
  CompiledTemplate t;
  t.roots_ = std::move(nodes).value();
  std::vector<std::vector<Node>*> stack{&t.roots_};
  while (!stack.empty()) {
    std::vector<Node>* level = stack.back();
    stack.pop_back();
    for (Node& node : *level) {
      if (node.type != NodeType::kText) {
        node.key_hash = TemplateContext::KeyHash(node.text);
      }
      if (!node.children.empty()) stack.push_back(&node.children);
    }
  }
  return t;
}

const TemplateContext::Slot* CompiledTemplate::Resolve(
    const ScopeChain& chain, const Node& node, bool want_list,
    const TemplateContext** owner) {
  const ScopeChain* link = &chain;
  for (; link->outer != nullptr; link = link->outer) {
    const TemplateContext::Slot* slot =
        link->context->Find(link->scope, node.text, node.key_hash);
    if (slot != nullptr && slot->is_list == want_list) {
      *owner = link->context;
      return slot;
    }
  }
  // The outermost link is a context's top scope; after it come the
  // context's parents.
  const TemplateContext* context = link->context;
  uint32_t scope = link->scope;
  for (; context != nullptr; context = context->parent_, scope = 0) {
    const TemplateContext::Slot* slot =
        context->Find(scope, node.text, node.key_hash);
    if (slot != nullptr && slot->is_list == want_list) {
      *owner = context;
      return slot;
    }
  }
  return nullptr;
}

void CompiledTemplate::RenderNodes(const std::vector<Node>& nodes,
                                   const ScopeChain& chain,
                                   const FragmentResolver& fragments,
                                   std::string& out) const {
  const TemplateContext* owner = nullptr;
  for (const Node& node : nodes) {
    switch (node.type) {
      case NodeType::kText:
        out += node.text;
        break;
      case NodeType::kVariable:
      case NodeType::kRawVariable:
        if (const auto* slot = Resolve(chain, node, false, &owner)) {
          const std::string_view value =
              owner->Bytes(slot->value_at, slot->value_size);
          if (node.type == NodeType::kVariable) {
            HtmlEscapeTo(value, out);
          } else {
            out += value;
          }
        }
        break;
      case NodeType::kSection:
        if (const auto* list = Resolve(chain, node, true, &owner)) {
          for (uint32_t item = list->first_item;
               item != TemplateContext::kNone;
               item = owner->scopes_[item].next_item) {
            const ScopeChain inner{owner, item, &chain};
            RenderNodes(node.children, inner, fragments, out);
          }
        }
        break;
      case NodeType::kInverted:
        // A list always holds at least one item once created.
        if (Resolve(chain, node, true, &owner) == nullptr) {
          RenderNodes(node.children, chain, fragments, out);
        }
        break;
      case NodeType::kFragment: {
        if (fragments) {
          Result<std::string> body = fragments(node.text);
          if (body.ok()) {
            out += body.value();
            break;
          }
        }
        out += "<!-- missing fragment: ";
        HtmlEscapeTo(node.text, out);
        out += " -->";
        break;
      }
    }
  }
}

void CompiledTemplate::Render(const TemplateContext& context, std::string& out,
                              const FragmentResolver& fragments) const {
  RenderNodes(roots_, ScopeChain{&context, 0, nullptr}, fragments, out);
}

size_t CompiledTemplate::node_count() const {
  size_t n = 0;
  // Iterative count to avoid exposing Node publicly.
  std::vector<const std::vector<Node>*> stack{&roots_};
  while (!stack.empty()) {
    const auto* nodes = stack.back();
    stack.pop_back();
    n += nodes->size();
    for (const Node& node : *nodes) {
      if (!node.children.empty()) stack.push_back(&node.children);
    }
  }
  return n;
}

}  // namespace nagano::pagegen
