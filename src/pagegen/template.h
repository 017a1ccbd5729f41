// Compiled text templates for page rendering.
//
// The Olympic pages were "dynamically combined" from results, news, photos
// and hand-edited content (paper §3.1, Fig. 15): a page is a template whose
// holes are filled from database-derived context and whose larger blocks
// are shared *fragments* (medal table, event summary, latest-news box) that
// are themselves cacheable objects in the ODG.
//
// Syntax (mustache subset):
//   {{name}}        value substitution (HTML-escaped)
//   {{{name}}}      raw substitution
//   {{#list}}...{{/list}}   repeat body once per list item
//   {{^list}}...{{/list}}   render body only when list is absent/empty
//   {{>fragment}}   splice another object's rendered body through the
//                   caller's resolver, which records fragment -> page
//                   dependence edges
//   {{!comment}}    dropped
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace nagano::pagegen {

// Hierarchical render context: string scalars and lists of nested scopes.
//
// Everything one context holds (its top scope, every list item below it)
// lives in one arena string and two flat vectors, so filling a context costs
// no heap allocation per variable once those have grown. Set and AddItem
// copy their arguments, so callers may pass temporaries. Within a scope a
// later Set or AddItem of a key shadows the earlier value under that key.
class TemplateContext {
 public:
  // One list item: a nested scope of the context that created it. Stays
  // valid while that context lives, however much the context grows.
  class Item {
   public:
    Item& Set(std::string_view key, std::string_view value);
    Item& Set(std::string_view key, int64_t value);
    Item& Set(std::string_view key, double value);
    // Appends an item to this item's list `list` (see TemplateContext).
    Item AddItem(std::string_view list);

   private:
    friend class TemplateContext;
    Item(TemplateContext* context, uint32_t scope)
        : context_(context), scope_(scope) {}
    TemplateContext* context_;
    uint32_t scope_;
  };

  // `parent`, when given, is searched after everything in this context: the
  // chrome strings every page of one language shares. It must outlive this
  // context and stay unchanged while the context renders.
  explicit TemplateContext(const TemplateContext* parent = nullptr);

  TemplateContext& Set(std::string_view key, std::string_view value);
  TemplateContext& Set(std::string_view key, int64_t value);
  TemplateContext& Set(std::string_view key, double value);
  // Appends an item to the top scope's list `list`, creating the list on
  // first use. {{#list}} repeats once per item; {{^list}} renders only
  // when the list has no items (never added counts as empty).
  Item AddItem(std::string_view list);

 private:
  friend class CompiledTemplate;
  static constexpr uint32_t kNone = UINT32_MAX;

  // A scalar's key and value are arena byte ranges. A list keeps its first
  // and last item scope in `first_item`/`last_item` instead of a value.
  struct Slot {
    uint32_t key_hash = 0;  // KeyHash(key): most mismatches end here
    uint32_t key_at = 0;
    uint32_t key_size = 0;
    uint32_t value_at = 0;
    uint32_t value_size = 0;
    uint32_t first_item = kNone;
    uint32_t last_item = kNone;
    uint32_t older = kNone;  // previous slot of the same scope
    bool is_list = false;
  };
  struct Scope {
    uint32_t newest = kNone;     // most recent slot; older ones chain on
    uint32_t next_item = kNone;  // following item of the same list
  };

  void SetIn(uint32_t scope, std::string_view key, std::string_view value);
  void SetIn(uint32_t scope, std::string_view key, int64_t value);
  void SetIn(uint32_t scope, std::string_view key, double value);
  uint32_t AddItemIn(uint32_t scope, std::string_view list);
  uint32_t NewSlot(uint32_t scope, std::string_view key);
  static uint32_t KeyHash(std::string_view key);
  // The newest slot under `key` (whose KeyHash is `hash`) in `scope`, or
  // nullptr.
  const Slot* Find(uint32_t scope, std::string_view key, uint32_t hash) const;
  std::string_view Bytes(uint32_t at, uint32_t size) const {
    return std::string_view(arena_).substr(at, size);
  }

  const TemplateContext* parent_;
  std::string arena_;
  std::vector<Slot> slots_;
  std::vector<Scope> scopes_;  // scopes_[0] is the top scope
};

// Resolves {{>fragment}} to the fragment's current body. Returning an error
// renders an HTML comment placeholder instead.
using FragmentResolver =
    std::function<Result<std::string>(std::string_view fragment_name)>;

class CompiledTemplate {
 public:
  // Parses `source`. Fails on unbalanced sections or malformed tags.
  static Result<CompiledTemplate> Compile(std::string_view source);

  // Appends the rendering of `context` to `out`.
  void Render(const TemplateContext& context, std::string& out,
              const FragmentResolver& fragments = nullptr) const;

  size_t node_count() const;

 private:
  friend class TemplateParser;

  enum class NodeType : uint8_t {
    kText,
    kVariable,     // escaped
    kRawVariable,
    kSection,      // children repeated per list item
    kInverted,     // children rendered when list empty/absent
    kFragment,
  };
  struct Node {
    NodeType type;
    std::string text;  // literal text, variable name, or fragment name
    std::vector<Node> children;
    uint32_t key_hash = 0;  // TemplateContext::KeyHash(text) for names
  };
  // The scopes a lookup searches, innermost first: one link per open
  // section, kept on the stack of the recursive render.
  struct ScopeChain {
    const TemplateContext* context;
    uint32_t scope;
    const ScopeChain* outer;  // nullptr at a context's top scope
  };

  // The innermost slot under `key` whose shape (list or scalar) is
  // `want_list`, searching `chain` and then the parents of its context.
  static const TemplateContext::Slot* Resolve(const ScopeChain& chain,
                                              const Node& node, bool want_list,
                                              const TemplateContext** owner);
  void RenderNodes(const std::vector<Node>& nodes, const ScopeChain& chain,
                   const FragmentResolver& fragments, std::string& out) const;

  std::vector<Node> roots_;
};

// Appends `s` to `out` with &, <, >, " escaped.
void HtmlEscapeTo(std::string_view s, std::string& out);

}  // namespace nagano::pagegen
