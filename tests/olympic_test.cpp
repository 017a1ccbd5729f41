#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "cache/object_cache.h"
#include "db/database.h"
#include "odg/dup.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"

namespace nagano::pagegen {
namespace {

class OlympicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.days = 4;
    config_.num_sports = 3;
    config_.events_per_sport = 4;
    config_.athletes_per_event = 6;
    config_.num_countries = 8;
    config_.initial_news_articles = 5;
    ASSERT_TRUE(OlympicSite::Build(config_, &db_).ok());
    OlympicSite::RegisterGenerators(config_, &db_, &renderer_);
  }

  // Drains the change feed past a global-seqno watermark via the cursor API.
  std::vector<db::ChangeRecord> ChangesAfter(uint64_t global_seqno) {
    auto batch = db_.ReadChanges(db_.CursorAtGlobal(global_seqno));
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) return {};
    return std::move(batch.value().records);
  }

  // RenderAndCache, returning the stored object's bytes.
  Result<std::string> RenderAndCacheBytes(std::string_view page) {
    auto stored = renderer_.RenderAndCache(page);
    if (!stored.ok()) return stored.status();
    return stored.value()->Materialize();
  }

  // Renders every page; returns name -> body.
  std::map<std::string, std::string> RenderAll() {
    std::map<std::string, std::string> bodies;
    for (const auto& page : OlympicSite::AllPageNames(config_, db_)) {
      auto body = RenderAndCacheBytes(page);
      EXPECT_TRUE(body.ok()) << page << ": " << body.status().ToString();
      if (body.ok()) bodies[page] = std::move(body).value();
    }
    return bodies;
  }

  OlympicConfig config_;
  db::Database db_{db::DatabaseOptions{}};
  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  PageRenderer renderer_{&graph_, &cache_};
};

TEST_F(OlympicTest, BuildPopulatesTables) {
  EXPECT_EQ(db_.RowCount("sports"), 3u);
  EXPECT_EQ(db_.RowCount("events"), 12u);
  EXPECT_EQ(db_.RowCount("countries"), 8u);
  EXPECT_EQ(db_.RowCount("athletes"), 36u);  // 2 * athletes_per_event per sport
  EXPECT_EQ(db_.RowCount("news"), 5u);
  EXPECT_EQ(db_.RowCount("results"), 0u);
  EXPECT_EQ(db_.RowCount("medals"), 0u);
}

TEST_F(OlympicTest, BuildTwiceFails) {
  EXPECT_FALSE(OlympicSite::Build(config_, &db_).ok());
}

TEST_F(OlympicTest, EveryPageRenders) {
  const auto bodies = RenderAll();
  EXPECT_EQ(bodies.size(), OlympicSite::AllPageNames(config_, db_).size());
  for (const auto& [page, body] : bodies) {
    EXPECT_FALSE(body.empty()) << page;
  }
}

TEST_F(OlympicTest, EveryFragmentRenders) {
  for (const auto& fragment : OlympicSite::AllFragmentNames(config_, db_)) {
    EXPECT_TRUE(RenderAndCacheBytes(fragment).ok()) << fragment;
  }
}

TEST_F(OlympicTest, PageCountScalesWithContent) {
  // Per full language (en + ja): 3 fixed + 2*days + sports + events +
  // athletes + countries + news; plus the French news tier (index +
  // articles). §3.1: the language tiers are what made the 1998 site's
  // inventory ~87,000 pages.
  // ... + 10 venue pages + /nagano + /fun per language.
  const size_t per_language = 3u + 8u + 3u + 12u + 36u + 8u + 5u + 10u + 2u;
  const auto pages = OlympicSite::AllPageNames(config_, db_);
  EXPECT_EQ(pages.size(), 2 * per_language + 1u + 5u);
}

TEST_F(OlympicTest, LanguageVariantsAreDistinctDocuments) {
  const auto en = RenderAndCacheBytes("/day/1");
  const auto ja = RenderAndCacheBytes("/ja/day/1");
  ASSERT_TRUE(en.ok());
  ASSERT_TRUE(ja.ok());
  EXPECT_NE(en.value(), ja.value());
  EXPECT_NE(ja.value().find("lang=\"ja\""), std::string::npos);
  EXPECT_NE(ja.value().find("メダル"), std::string::npos);
}

TEST_F(OlympicTest, FrenchServesNewsOnly) {
  EXPECT_TRUE(RenderAndCacheBytes("/fr/news/1").ok());
  EXPECT_TRUE(RenderAndCacheBytes("/fr/news").ok());
  EXPECT_FALSE(renderer_.CanGenerate("/fr/day/1"));
  EXPECT_FALSE(renderer_.CanGenerate("/fr/medals"));
}

TEST_F(OlympicTest, AllLanguageVariantsShareDataNodes) {
  ASSERT_TRUE(RenderAndCacheBytes("/event/1").ok());
  ASSERT_TRUE(RenderAndCacheBytes("/ja/event/1").ok());
  const auto data = graph_.Find("results:event:1");
  ASSERT_NE(data, odg::kInvalidNode);
  EXPECT_TRUE(graph_.HasEdge(data, graph_.Find("/event/1")));
  EXPECT_TRUE(graph_.HasEdge(data, graph_.Find("/ja/event/1")));
}

TEST_F(OlympicTest, VenuePagesListTheirProgramme) {
  // §3.1 category 4: venue pages carry that venue's events.
  const auto venues = db_.ScanAll("venues");
  ASSERT_FALSE(venues.empty());
  const std::string name = std::get<std::string>(venues[0][0]);
  const auto body = RenderAndCacheBytes(OlympicSite::VenuePage(name));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body.value().find(name), std::string::npos);
  // Slug round-trips names with spaces and hyphens.
  EXPECT_TRUE(RenderAndCacheBytes(OlympicSite::VenuePage("M-Wave")).ok());
  EXPECT_TRUE(
      RenderAndCacheBytes(OlympicSite::VenuePage("White Ring")).ok());
  EXPECT_EQ(
      renderer_.RenderOnly(OlympicSite::VenuePage("Atlantis")).status().code(),
      ErrorCode::kNotFound);
}

TEST_F(OlympicTest, EventChangePropagatesToVenuePage) {
  // Render a venue page, then flip an event at that venue to in_progress:
  // DUP must cover the venue page.
  const auto event = db_.Get("events", db::Value(int64_t(1)));
  ASSERT_TRUE(event.ok());
  const std::string venue = std::get<std::string>(event.value()[4]);
  const std::string page = OlympicSite::VenuePage(venue);
  ASSERT_TRUE(RenderAndCacheBytes(page).ok());

  const uint64_t baseline = db_.LastSeqno();
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 95.0).ok());
  std::set<std::string> affected;
  for (const auto& change : ChangesAfter(baseline)) {
    std::vector<odg::NodeId> changed;
    for (const auto& node : OlympicSite::MapChangeToDataNodes(change, db_)) {
      const auto id = graph_.Find(node);
      if (id != odg::kInvalidNode) changed.push_back(id);
    }
    for (const auto& obj :
         odg::DupEngine::ComputeAffected(graph_, changed).affected) {
      affected.insert(std::string(graph_.name(obj.id)));
    }
  }
  EXPECT_TRUE(affected.count(page)) << page;
}

TEST_F(OlympicTest, PhotoInsertionPropagatesToSubjectPages) {
  // §3.1: "Photographs were classified by hand and dynamically inserted
  // into the appropriate ... pages." A page rendered before any photo
  // exists must still depend on its photo node, so the first classified
  // photo lands in the DUP affected set.
  ASSERT_TRUE(RenderAndCacheBytes("/event/1").ok());
  ASSERT_TRUE(RenderAndCacheBytes("/athlete/1").ok());

  const uint64_t baseline = db_.LastSeqno();
  ASSERT_TRUE(
      OlympicSite::PublishPhoto(&db_, 1, "Gold medal leap", "event", "1", 1)
          .ok());

  std::set<std::string> affected;
  for (const auto& change : ChangesAfter(baseline)) {
    std::vector<odg::NodeId> changed;
    for (const auto& node : OlympicSite::MapChangeToDataNodes(change, db_)) {
      const auto id = graph_.Find(node);
      if (id != odg::kInvalidNode) changed.push_back(id);
    }
    for (const auto& obj :
         odg::DupEngine::ComputeAffected(graph_, changed).affected) {
      affected.insert(std::string(graph_.name(obj.id)));
    }
  }
  EXPECT_TRUE(affected.count("/event/1"));
  EXPECT_FALSE(affected.count("/athlete/1"));  // different subject

  const auto body = RenderAndCacheBytes("/event/1");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("Gold medal leap"), std::string::npos);
  EXPECT_NE(body.value().find("/img/1.jpg"), std::string::npos);
}

TEST_F(OlympicTest, PhotoCaptionsAreEscaped) {
  ASSERT_TRUE(OlympicSite::PublishPhoto(&db_, 2, "<script>alert(1)</script>",
                                        "athlete", "1", 1)
                  .ok());
  const auto body = RenderAndCacheBytes("/athlete/1");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().find("<script>"), std::string::npos);
  EXPECT_NE(body.value().find("&lt;script&gt;"), std::string::npos);
}

TEST_F(OlympicTest, PhotosOnCountryAndVenuePages) {
  ASSERT_TRUE(
      OlympicSite::PublishPhoto(&db_, 3, "Flag ceremony", "country", "JPN", 1)
          .ok());
  const auto country = RenderAndCacheBytes("/country/JPN");
  ASSERT_TRUE(country.ok());
  EXPECT_NE(country.value().find("Flag ceremony"), std::string::npos);

  const auto venues = db_.ScanAll("venues");
  const std::string venue = std::get<std::string>(venues[0][0]);
  ASSERT_TRUE(
      OlympicSite::PublishPhoto(&db_, 4, "Crowd shot", "venue", venue, 1).ok());
  const auto vpage = RenderAndCacheBytes(OlympicSite::VenuePage(venue));
  ASSERT_TRUE(vpage.ok());
  EXPECT_NE(vpage.value().find("Crowd shot"), std::string::npos);
}

TEST_F(OlympicTest, PhotoReachesDayHomeThroughEventFragment) {
  // Day homes embed the event fragments; a photo classified to an event
  // therefore changes the day home too (Fig. 15's fan-out).
  ASSERT_TRUE(RenderAndCacheBytes("/day/1").ok());
  const auto event = db_.Get("events", db::Value(int64_t(1)));
  const int day = static_cast<int>(std::get<int64_t>(event.value()[3]));
  const std::string day_home = OlympicSite::DayHomePage(day);
  ASSERT_TRUE(RenderAndCacheBytes(day_home).ok());

  ASSERT_TRUE(
      OlympicSite::PublishPhoto(&db_, 5, "Photo finish", "event", "1", day)
          .ok());
  // Regenerate fragment then page (the trigger monitor's order).
  ASSERT_TRUE(RenderAndCacheBytes(OlympicSite::EventFragment(1)).ok());
  const auto body = RenderAndCacheBytes(day_home);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("Photo finish"), std::string::npos);
}

TEST_F(OlympicTest, NaganoAndFunPagesRender) {
  const auto nagano = RenderAndCacheBytes("/nagano");
  ASSERT_TRUE(nagano.ok());
  EXPECT_NE(nagano.value().find("XVIII Olympic Winter Games"),
            std::string::npos);
  const auto fun = RenderAndCacheBytes("/fun");
  ASSERT_TRUE(fun.ok());
  EXPECT_NE(fun.value().find("children"), std::string::npos);
  EXPECT_TRUE(RenderAndCacheBytes("/ja/nagano").ok());
  EXPECT_TRUE(RenderAndCacheBytes("/ja/fun").ok());
}

TEST_F(OlympicTest, UnknownIdsAreNotFound) {
  EXPECT_EQ(renderer_.RenderOnly("/event/999").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(renderer_.RenderOnly("/athlete/999").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(renderer_.RenderOnly("/country/XXX").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(renderer_.RenderOnly("/news/999").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(renderer_.RenderOnly("/event/abc").status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(OlympicTest, RecordResultMarksEventInProgress) {
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 95.0).ok());
  const auto event = db_.Get("events", db::Value(int64_t(1)));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(std::get<std::string>(event.value()[5]), "in_progress");
  EXPECT_EQ(db_.RowCount("results"), 1u);
}

TEST_F(OlympicTest, CompleteEventAwardsMedalsAndTallies) {
  for (int rank = 1; rank <= 4; ++rank) {
    ASSERT_TRUE(
        OlympicSite::RecordResult(&db_, 1, rank, rank, 100.0 - rank).ok());
  }
  ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, 1).ok());

  const auto event = db_.Get("events", db::Value(int64_t(1)));
  EXPECT_EQ(std::get<std::string>(event.value()[5]), "final");

  const auto medal = db_.Get("medals", db::Value(int64_t(1)));
  ASSERT_TRUE(medal.ok());
  EXPECT_EQ(std::get<int64_t>(medal.value()[1]), 1);  // gold = athlete 1
  EXPECT_EQ(std::get<int64_t>(medal.value()[2]), 2);

  // Exactly three medals were tallied across all countries.
  int64_t total = 0;
  for (const auto& row : db_.ScanAll("countries")) {
    total += std::get<int64_t>(row[2]) + std::get<int64_t>(row[3]) +
             std::get<int64_t>(row[4]);
  }
  EXPECT_EQ(total, 3);
}

TEST_F(OlympicTest, CompleteEventNeedsThreeResults) {
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 1, 95.0).ok());
  EXPECT_EQ(OlympicSite::CompleteEvent(&db_, 1).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(OlympicTest, ResultAppearsInEventPage) {
  ASSERT_TRUE(RenderAndCacheBytes("/event/1").ok());
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 1, 1, 7, 88.25).ok());
  const auto body = RenderAndCacheBytes("/event/1");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("88.25"), std::string::npos);
}

TEST_F(OlympicTest, MedalFragmentOmitsZeroCountries) {
  const auto empty = renderer_.RenderOnly(OlympicSite::kMedalsFragment);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().find("Team"), std::string::npos);

  for (int rank = 1; rank <= 3; ++rank) {
    ASSERT_TRUE(
        OlympicSite::RecordResult(&db_, 1, rank, rank, 100.0 - rank).ok());
  }
  ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, 1).ok());
  const auto after = renderer_.RenderOnly(OlympicSite::kMedalsFragment);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().find("Team"), std::string::npos);
}

TEST_F(OlympicTest, DayHomeEmbedsFragments) {
  const auto body = RenderAndCacheBytes("/day/1");
  ASSERT_TRUE(body.ok());
  // The medal table and news box are spliced in; fragments are now cached.
  EXPECT_TRUE(cache_.Contains(OlympicSite::kMedalsFragment));
  EXPECT_TRUE(cache_.Contains(OlympicSite::kLatestNewsFragment));
  const auto frag = graph_.Find(OlympicSite::kMedalsFragment);
  const auto home = graph_.Find("/day/1");
  EXPECT_TRUE(graph_.HasEdge(frag, home));
}

TEST_F(OlympicTest, ChangeMapperResultRow) {
  const uint64_t before = db_.LastSeqno();
  ASSERT_TRUE(OlympicSite::RecordResult(&db_, 2, 1, 5, 90.0).ok());
  const auto changes = ChangesAfter(before);
  // RecordResult commits a results row then an events status row.
  ASSERT_GE(changes.size(), 2u);
  const auto nodes = OlympicSite::MapChangeToDataNodes(changes[0], db_);
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), "results:event:2"),
            nodes.end());
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), "results:athlete:5"),
            nodes.end());
}

TEST_F(OlympicTest, ChangeMapperNewsRow) {
  ASSERT_TRUE(OlympicSite::PublishNews(&db_, 100, 2, "t", "b", 1).ok());
  const auto changes = ChangesAfter(db_.LastSeqno() - 1);
  const auto nodes = OlympicSite::MapChangeToDataNodes(changes.back(), db_);
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), "news:100"), nodes.end());
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), "news:latest"), nodes.end());
}

TEST_F(OlympicTest, ChangeMapperDeleteFallsBackToWildcard) {
  ASSERT_TRUE(OlympicSite::PublishNews(&db_, 100, 2, "t", "b", 1).ok());
  ASSERT_TRUE(db_.Delete("news", db::Value(int64_t(100))).ok());
  const auto changes = ChangesAfter(db_.LastSeqno() - 1);
  const auto nodes = OlympicSite::MapChangeToDataNodes(changes.back(), db_);
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), "news:*"), nodes.end());
}

// The soundness property that makes DUP safe: every page whose content
// actually changes after a database commit must be in the DUP affected set
// (no false negatives). This is the invariant the 1996 site could only
// guarantee by over-invalidating.
TEST_F(OlympicTest, DupAffectedSetCoversAllChangedPages) {
  auto before = RenderAll();
  const uint64_t baseline = db_.LastSeqno();

  // A consequential update: complete event 1 (touches medals, countries,
  // events, results).
  for (int rank = 1; rank <= 3; ++rank) {
    ASSERT_TRUE(
        OlympicSite::RecordResult(&db_, 1, rank, rank, 100.0 - rank).ok());
  }
  ASSERT_TRUE(OlympicSite::CompleteEvent(&db_, 1).ok());

  // Collect DUP's affected set across the update's commits.
  std::set<std::string> affected;
  for (const auto& change : ChangesAfter(baseline)) {
    std::vector<odg::NodeId> changed;
    for (const auto& node : OlympicSite::MapChangeToDataNodes(change, db_)) {
      const auto id = graph_.Find(node);
      if (id != odg::kInvalidNode) changed.push_back(id);
    }
    for (const auto& obj : odg::DupEngine::ComputeAffected(graph_, changed)
                               .affected) {
      affected.insert(std::string(graph_.name(obj.id)));
    }
  }

  auto after = RenderAll();
  for (const auto& [page, body] : after) {
    if (before.at(page) != body) {
      EXPECT_TRUE(affected.count(page))
          << "page " << page << " changed but DUP missed it";
    }
  }
  // Precision: pages with no dependence on the touched data stay out of the
  // affected set (event 5 belongs to another sport; news never changed).
  EXPECT_FALSE(affected.count("/event/5"));
  EXPECT_FALSE(affected.count("/news/1"));
  EXPECT_FALSE(affected.count("/news"));
}

TEST_F(OlympicTest, PageNameHelpers) {
  EXPECT_EQ(OlympicSite::DayHomePage(7), "/day/7");
  EXPECT_EQ(OlympicSite::SportPage(2), "/sport/2");
  EXPECT_EQ(OlympicSite::EventPage(13), "/event/13");
  EXPECT_EQ(OlympicSite::AthletePage(4), "/athlete/4");
  EXPECT_EQ(OlympicSite::CountryPage("JPN"), "/country/JPN");
  EXPECT_EQ(OlympicSite::NewsPage(9), "/news/9");
  EXPECT_EQ(OlympicSite::EventFragment(3), "frag:event:3");
}

}  // namespace
}  // namespace nagano::pagegen
