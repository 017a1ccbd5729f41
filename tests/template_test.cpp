#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pagegen/template.h"

namespace nagano::pagegen {
namespace {

std::string RenderStr(const char* source, const TemplateContext& ctx,
                      const FragmentResolver& fragments = nullptr) {
  auto t = CompiledTemplate::Compile(source);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  std::string out;
  t.value().Render(ctx, out, fragments);
  return out;
}

TEST(TemplateTest, PlainText) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("hello world", ctx), "hello world");
}

TEST(TemplateTest, VariableSubstitution) {
  TemplateContext ctx;
  ctx.Set("name", "Nagano");
  EXPECT_EQ(RenderStr("Games of {{name}}!", ctx), "Games of Nagano!");
}

TEST(TemplateTest, MissingVariableRendersEmpty) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("[{{ghost}}]", ctx), "[]");
}

TEST(TemplateTest, VariableIsHtmlEscaped) {
  TemplateContext ctx;
  ctx.Set("x", "<b>&\"</b>");
  EXPECT_EQ(RenderStr("{{x}}", ctx), "&lt;b&gt;&amp;&quot;&lt;/b&gt;");
}

TEST(TemplateTest, RawVariableNotEscaped) {
  TemplateContext ctx;
  ctx.Set("x", "<b>bold</b>");
  EXPECT_EQ(RenderStr("{{{x}}}", ctx), "<b>bold</b>");
}

TEST(TemplateTest, NumericSetters) {
  TemplateContext ctx;
  ctx.Set("i", int64_t(42));
  ctx.Set("d", 2.5);
  EXPECT_EQ(RenderStr("{{i}} {{d}}", ctx), "42 2.5");
}

TEST(TemplateTest, WhitespaceInTagsTrimmed) {
  TemplateContext ctx;
  ctx.Set("x", "v");
  EXPECT_EQ(RenderStr("{{  x  }}", ctx), "v");
}

TEST(TemplateTest, CommentDropped) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("a{{! this is a comment }}b", ctx), "ab");
}

TEST(TemplateTest, SectionRepeatsPerItem) {
  TemplateContext ctx;
  for (int i = 1; i <= 3; ++i) {
    ctx.AddItem("items").Set("n", int64_t(i));
  }
  EXPECT_EQ(RenderStr("{{#items}}<{{n}}>{{/items}}", ctx), "<1><2><3>");
}

TEST(TemplateTest, AbsentSectionRendersNothing) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("a{{#items}}X{{/items}}b", ctx), "ab");
}

TEST(TemplateTest, InvertedSectionOnAbsent) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("{{^items}}none{{/items}}", ctx), "none");
}

TEST(TemplateTest, InvertedSectionSuppressedWhenPresent) {
  TemplateContext ctx;
  ctx.AddItem("items");
  EXPECT_EQ(RenderStr("{{^items}}none{{/items}}", ctx), "");
}

TEST(TemplateTest, NestedSections) {
  TemplateContext ctx;
  for (int i = 0; i < 2; ++i) {
    auto o = ctx.AddItem("outer");
    o.Set("tag", "g" + std::to_string(i));
    for (int j = 0; j < 2; ++j) {
      o.AddItem("inner").Set("v", int64_t(j));
    }
  }
  EXPECT_EQ(RenderStr("{{#outer}}[{{tag}}:{{#inner}}{{v}}{{/inner}}]{{/outer}}",
                      ctx),
            "[g0:01][g1:01]");
}

TEST(TemplateTest, SectionScopeFallsBackToOuter) {
  TemplateContext ctx;
  ctx.Set("site", "Nagano");
  ctx.AddItem("items").Set("n", int64_t(1));
  EXPECT_EQ(RenderStr("{{#items}}{{n}}@{{site}}{{/items}}", ctx), "1@Nagano");
}

TEST(TemplateTest, InnerShadowsOuter) {
  TemplateContext ctx;
  ctx.Set("x", "outer");
  ctx.AddItem("items").Set("x", "inner");
  EXPECT_EQ(RenderStr("{{#items}}{{x}}{{/items}}", ctx), "inner");
}

TEST(TemplateTest, FragmentSplicedViaResolver) {
  TemplateContext ctx;
  std::vector<std::string> used;
  auto resolver = [&used](std::string_view name) -> Result<std::string> {
    used.emplace_back(name);
    return "[" + std::string(name) + "]";
  };
  EXPECT_EQ(RenderStr("a {{>frag:medals}} b", ctx, resolver),
            "a [frag:medals] b");
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], "frag:medals");
}

TEST(TemplateTest, MissingFragmentPlaceholder) {
  TemplateContext ctx;
  auto resolver = [](std::string_view) -> Result<std::string> {
    return NotFoundError("no");
  };
  EXPECT_EQ(RenderStr("{{>gh<st}}", ctx, resolver),
            "<!-- missing fragment: gh&lt;st -->");
}

TEST(TemplateTest, FragmentWithoutResolverIsMissing) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("{{>x}}", ctx), "<!-- missing fragment: x -->");
}

TEST(TemplateTest, ParentContextSearchedLast) {
  TemplateContext chrome;
  chrome.Set("lang", "ja").Set("x", "parent");
  TemplateContext ctx(&chrome);
  ctx.Set("x", "own");
  ctx.AddItem("items").Set("n", int64_t(1));
  EXPECT_EQ(RenderStr("{{lang}} {{x}} {{#items}}{{n}}{{lang}}{{/items}}", ctx),
            "ja own 1ja");
}

TEST(TemplateTest, AppendsToOutput) {
  auto t = CompiledTemplate::Compile("{{x}}");
  ASSERT_TRUE(t.ok());
  TemplateContext ctx;
  ctx.Set("x", "b");
  std::string out = "a";
  t.value().Render(ctx, out);
  EXPECT_EQ(out, "ab");
}

// --- malformed input ---------------------------------------------------------

TEST(TemplateTest, UnterminatedTagRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("hello {{name").ok());
}

TEST(TemplateTest, UnclosedSectionRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{#items}}x").ok());
}

TEST(TemplateTest, MismatchedCloseRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{#a}}x{{/b}}").ok());
}

TEST(TemplateTest, StrayCloseRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("x{{/a}}").ok());
}

TEST(TemplateTest, EmptyTagRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{}}").ok());
  EXPECT_FALSE(CompiledTemplate::Compile("{{#}}x{{/}}").ok());
  EXPECT_FALSE(CompiledTemplate::Compile("{{>}}").ok());
}

TEST(TemplateTest, NodeCountCountsTree) {
  auto t = CompiledTemplate::Compile("a{{x}}{{#s}}b{{y}}{{/s}}");
  ASSERT_TRUE(t.ok());
  // nodes: text"a", var x, section s, text"b", var y.
  EXPECT_EQ(t.value().node_count(), 5u);
}

TEST(TemplateTest, AdjacentTextCoalesced) {
  auto t = CompiledTemplate::Compile("a{{! c }}b");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().node_count(), 1u);
}

// --- context ------------------------------------------------------------------

TEST(TemplateContextTest, SetOverwrites) {
  TemplateContext ctx;
  ctx.Set("k", "v1");
  ctx.Set("k", "v2");
  EXPECT_EQ(RenderStr("{{k}}", ctx), "v2");
}

TEST(TemplateContextTest, SetCopiesTemporaries) {
  TemplateContext ctx;
  ctx.Set(std::string("key"), std::string(40, 'v'));
  EXPECT_EQ(RenderStr("{{key}}", ctx), std::string(40, 'v'));
}

TEST(TemplateContextTest, ListAndStringShapesDistinct) {
  const char* source = "[{{k}}|{{#k}}item{{/k}}]";
  TemplateContext ctx;
  ctx.Set("k", "v");
  EXPECT_EQ(RenderStr(source, ctx), "[v|]");
  ctx.AddItem("k");  // the list shadows the string
  EXPECT_EQ(RenderStr(source, ctx), "[|item]");
}

TEST(TemplateContextTest, ShapeMismatchFallsBackToOuterScope) {
  TemplateContext ctx;
  ctx.Set("k", "outer");
  ctx.AddItem("items").AddItem("k");  // inner list named like the string
  EXPECT_EQ(RenderStr("{{#items}}{{k}}{{/items}}", ctx), "outer");
}

std::string Escaped(std::string_view s) {
  std::string out;
  HtmlEscapeTo(s, out);
  return out;
}

TEST(HtmlEscapeTest, EscapesAll) {
  EXPECT_EQ(Escaped("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
  EXPECT_EQ(Escaped("plain"), "plain");
  EXPECT_EQ(Escaped(""), "");
}

}  // namespace
}  // namespace nagano::pagegen
