// Byte identity of every rendered object and of its ODG in-edges.
//
// Builds the Olympic site at the benchmark's size (20 events a sport, 30
// athletes an event, 72 countries requested), prefetches it, and records one
// line per page and fragment: name, length and CRC32C of the cached bytes
// (of a RenderOnly for an object the trigger left uncached, such as a news
// article published by the feed), plus a digest of that object's ODG
// in-edges (source names and weights).
// It records the same lines again after a fixed seeded ResultFeed prefix has
// gone through the trigger pipeline. The lines are checked against
// tests/render_identity.golden, so any change to the template engine, the
// generators, the database read path or the renderer's ODG sync that moves a
// byte or an edge fails here. Set NAGANO_UPDATE_GOLDEN=1 to rewrite the file
// after an intended change to the site's content.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "core/serving_site.h"
#include "pagegen/olympic.h"
#include "workload/feed.h"

namespace nagano {
namespace {

constexpr uint64_t kFeedSeed = 1998;
constexpr size_t kFeedPrefix = 400;

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// "<count>:<crc>" over the sorted "<source> <weight>" lines of `name`'s
// in-edges; "-" when the object has no ODG vertex.
std::string InEdgeDigest(const odg::ObjectDependenceGraph& graph,
                         const std::string& name) {
  const odg::NodeId node = graph.Find(name);
  if (node == odg::kInvalidNode) return "-";
  std::vector<std::string> lines;
  for (const odg::Edge& e : graph.InEdges(node)) {
    char weight[32];
    std::snprintf(weight, sizeof(weight), "%g", e.weight);
    lines.push_back(std::string(graph.name(e.to)) + " " + weight);
  }
  std::sort(lines.begin(), lines.end());
  uint32_t crc = 0;
  for (const std::string& line : lines) {
    crc = Crc32cExtend(crc, line.data(), line.size());
    crc = Crc32cExtend(crc, "\n", 1);
  }
  return std::to_string(lines.size()) + ":" + Hex(crc);
}

void Record(const std::string& phase, core::ServingSite& site,
            const pagegen::OlympicConfig& config,
            std::vector<std::string>& out) {
  std::vector<std::string> names =
      pagegen::OlympicSite::AllFragmentNames(config, site.db());
  const std::vector<std::string> pages =
      pagegen::OlympicSite::AllPageNames(config, site.db());
  names.insert(names.end(), pages.begin(), pages.end());
  for (const std::string& name : names) {
    std::string bytes;
    std::string source = "cached";
    if (const auto cached = site.cache().Peek(name)) {
      bytes = cached->Materialize();
    } else {
      auto rendered = site.renderer().RenderOnly(name);
      EXPECT_TRUE(rendered.ok()) << phase << ": " << name;
      if (rendered.ok()) bytes = std::move(rendered).value();
      source = "rendered";
    }
    out.push_back(phase + " " + source + " " + name + " " +
                  std::to_string(bytes.size()) +
                  " " + Hex(Crc32c(bytes)) + " " +
                  InEdgeDigest(site.graph(), name));
  }
}

std::vector<std::string> RenderIdentities() {
  core::SiteOptions options;
  options.olympic.events_per_sport = 20;
  options.olympic.athletes_per_event = 30;
  options.olympic.num_countries = 72;
  // Parallel re-render workers: the golden holds whatever the batching, and
  // the fragments TSan leg sees renders racing on shared render state.
  options.trigger.worker_threads = 4;
  auto site_or = core::ServingSite::Create(options);
  EXPECT_TRUE(site_or.ok()) << site_or.status().ToString();
  if (!site_or.ok()) return {};
  core::ServingSite& site = *site_or.value();
  EXPECT_TRUE(site.PrefetchAll().ok());

  std::vector<std::string> lines;
  Record("build", site, options.olympic, lines);

  site.StartTrigger();
  workload::FeedOptions feed_options;
  feed_options.results_per_event = 20;
  workload::ResultFeed feed(&site.db(), feed_options, kFeedSeed);
  size_t applied = 0;
  for (int day = 1; day <= options.olympic.days && applied < kFeedPrefix;
       ++day) {
    for (const workload::FeedUpdate& update : feed.BuildDaySchedule(day)) {
      if (applied == kFeedPrefix) break;
      EXPECT_TRUE(feed.Apply(update).ok());
      ++applied;
    }
  }
  EXPECT_EQ(applied, kFeedPrefix);
  site.Quiesce();
  site.StopTrigger();
  Record("feed", site, options.olympic, lines);
  return lines;
}

// The content contract of the render path: every page and fragment the
// site serves, byte for byte, and every dependence edge it records.
TEST(RenderIdentityTest, PagesAndEdgesMatchGolden) {
  const std::vector<std::string> actual = RenderIdentities();
  ASSERT_FALSE(actual.empty());
  if (const char* update = std::getenv("NAGANO_UPDATE_GOLDEN");
      update && std::string(update) == "1") {
    std::ofstream out(NAGANO_RENDER_GOLDEN);
    for (const std::string& line : actual) out << line << "\n";
  }
  std::ifstream in(NAGANO_RENDER_GOLDEN);
  ASSERT_TRUE(in.good()) << "missing " << NAGANO_RENDER_GOLDEN;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  ASSERT_EQ(golden.size(), actual.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < golden.size(); ++i) {
    if (golden[i] == actual[i]) continue;
    if (++mismatches <= 20) {
      ADD_FAILURE() << "expected: " << golden[i] << "\n  actual: " << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace nagano
