#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/object_cache.h"
#include "core/serving_site.h"
#include "http/client.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"
#include "server/serving.h"

namespace nagano::server {
namespace {

class ServerProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    renderer_.RegisterExact("/dyn", [this](const pagegen::RenderRequest&) {
      ++renders_;
      return Result<std::string>("dynamic body v" + std::to_string(renders_));
    });
    renderer_.RegisterPrefix("/user/", [](const pagegen::RenderRequest& req) {
      return Result<std::string>("personal " + std::string(req.page));
    });
  }

  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  pagegen::PageRenderer renderer_{&graph_, &cache_};
  int renders_ = 0;
};

TEST_F(ServerProgramTest, StaticPageServed) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");
  const auto out = program.Serve("/about");
  EXPECT_EQ(out.cls, ServeClass::kStatic);
  EXPECT_EQ(out.body, "static content");
  EXPECT_EQ(out.cpu_cost, program.costs().static_page);
  EXPECT_EQ(program.stats().static_hits, 1u);
}

TEST_F(ServerProgramTest, FirstDynamicRequestGeneratesThenCaches) {
  DynamicPageServer program(&cache_, &renderer_);
  const auto miss = program.Serve("/dyn");
  EXPECT_EQ(miss.cls, ServeClass::kCacheMissGenerated);
  EXPECT_EQ(miss.cpu_cost, program.costs().generate_dynamic);
  EXPECT_EQ(miss.body, "dynamic body v1");

  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cls, ServeClass::kCacheHit);
  EXPECT_EQ(hit.cpu_cost, program.costs().cached_dynamic);
  EXPECT_EQ(hit.body, "dynamic body v1");  // cached copy, not regenerated
  EXPECT_EQ(renders_, 1);

  const auto stats = program.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.5);
}

TEST_F(ServerProgramTest, CachedDynamicCostsLikeStatic) {
  // §2: "Cached dynamic pages can be served ... at roughly the same rates
  // as static pages."
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cpu_cost, program.costs().cached_dynamic);
  EXPECT_LE(hit.cpu_cost, 2 * program.costs().static_page);
  // And an uncached dynamic page costs orders of magnitude more.
  EXPECT_GE(program.costs().generate_dynamic, 50 * program.costs().static_page);
}

TEST_F(ServerProgramTest, NotFound) {
  DynamicPageServer program(&cache_, &renderer_);
  const auto out = program.Serve("/ghost");
  EXPECT_EQ(out.cls, ServeClass::kNotFound);
  EXPECT_EQ(program.stats().not_found, 1u);
}

TEST_F(ServerProgramTest, NeverCachePrefixBypassesCache) {
  DynamicPageServer::Options options;
  options.never_cache_prefixes = {"/user/"};
  DynamicPageServer program(&cache_, &renderer_, options);
  const auto first = program.Serve("/user/alice");
  const auto second = program.Serve("/user/alice");
  EXPECT_EQ(first.cls, ServeClass::kCacheMissGenerated);
  EXPECT_EQ(second.cls, ServeClass::kCacheMissGenerated);
  EXPECT_FALSE(cache_.Contains("/user/alice"));
}

TEST_F(ServerProgramTest, SkipBodyOnSimPath) {
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  const auto out = program.Serve("/dyn", /*include_body=*/false);
  EXPECT_EQ(out.cls, ServeClass::kCacheHit);
  EXPECT_TRUE(out.body.empty());
  EXPECT_GT(out.bytes, 0u);
}

TEST_F(ServerProgramTest, TriggerUpdatedPageServedWithoutRegeneration) {
  // Update-in-place externally (as the trigger monitor does); the server
  // program serves the fresh copy as a plain hit.
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  cache_.Put("/dyn", "externally refreshed");
  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cls, ServeClass::kCacheHit);
  EXPECT_EQ(hit.body, "externally refreshed");
  EXPECT_EQ(renders_, 1);
}

// --- HTTP front end -------------------------------------------------------------

TEST_F(ServerProgramTest, HttpFrontEndServes) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");

  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  auto resp =
      http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/about");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "static content");
  EXPECT_EQ(resp.value().headers.at("X-Cache"), "STATIC");

  auto dyn = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/dyn");
  ASSERT_TRUE(dyn.ok());
  EXPECT_EQ(dyn.value().headers.at("X-Cache"), "MISS");

  auto dyn2 = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/dyn");
  ASSERT_TRUE(dyn2.ok());
  EXPECT_EQ(dyn2.value().headers.at("X-Cache"), "HIT");
  EXPECT_EQ(dyn2.value().body, "dynamic body v1");

  auto missing =
      http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/ghost");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  front.Stop();
}

TEST_F(ServerProgramTest, HttpFrontEndRejectsNonGet) {
  DynamicPageServer program(&cache_, &renderer_);
  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  http::HttpClient client("127.0.0.1", front.port());
  http::HttpRequest req;
  req.method = "DELETE";
  req.target = "/dyn";
  auto resp = client.Roundtrip(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 405);
  front.Stop();
}

TEST_F(ServerProgramTest, HttpFrontEndHeadOmitsBody) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");
  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  http::HttpClient client("127.0.0.1", front.port());
  http::HttpRequest req;
  req.method = "HEAD";
  req.target = "/about";
  auto resp = client.Roundtrip(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_TRUE(resp.value().body.empty());
  front.Stop();
}

// --- VerifyCacheConsistency on composition plans --------------------------

pagegen::OlympicConfig PlanSiteConfig() {
  pagegen::OlympicConfig config;
  config.days = 2;
  config.num_sports = 2;
  config.events_per_sport = 2;
  config.languages = {"en"};
  return config;
}

std::unique_ptr<core::ServingSite> MakePlanSite(size_t cache_capacity_bytes) {
  core::SiteOptions options;
  options.olympic = PlanSiteConfig();
  options.cache_capacity_bytes = cache_capacity_bytes;
  auto site_or = core::ServingSite::Create(std::move(options));
  EXPECT_TRUE(site_or.ok()) << site_or.status().message();
  return site_or.ok() ? std::move(site_or.value()) : nullptr;
}

// Fragment chunks of cached plans whose pinned snapshot is no longer the
// fragment's live entry.
size_t PlansPinningRetiredSnapshots(const cache::ObjectCache& cache) {
  size_t retired = 0;
  for (const auto& [key, object] : cache.Snapshot()) {
    for (const cache::PlanChunk& chunk : object->plan) {
      if (chunk.is_fragment() && cache.Peek(chunk.fragment) != chunk.source) {
        ++retired;
      }
    }
  }
  return retired;
}

TEST(VerifyCacheConsistencyTest, BoundedCacheEvictingPinnedFragmentsPasses) {
  // A cache holding half the site's bytes: prefetching evicts, and a read
  // pass in reverse order re-renders evicted pages, re-storing the
  // fragments they splice as new snapshots with the same bytes while older
  // plans still pin the previous ones.
  auto unbounded = MakePlanSite(0);
  ASSERT_NE(unbounded, nullptr);
  ASSERT_TRUE(unbounded->PrefetchAll().ok());
  const size_t site_bytes = unbounded->cache().bytes();

  auto site = MakePlanSite(site_bytes / 2);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  std::vector<std::string> pages =
      pagegen::OlympicSite::AllPageNames(PlanSiteConfig(), site->db());
  std::reverse(pages.begin(), pages.end());
  for (const std::string& page : pages) (void)site->page_server().Serve(page);
  ASSERT_GT(site->cache().stats().evictions, 0u);
  ASSERT_GT(PlansPinningRetiredSnapshots(site->cache()), 0u);

  auto verified = site->VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(VerifyCacheConsistencyTest, PlanPinningBytesTheLiveFragmentChangedFails) {
  auto site = MakePlanSite(0);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  ASSERT_TRUE(site->VerifyCacheConsistency().ok());

  // Replace one pinned fragment's live bytes without patching the plans
  // that embed it.
  std::string fragment;
  for (const auto& [key, object] : site->cache().Snapshot()) {
    for (const cache::PlanChunk& chunk : object->plan) {
      if (chunk.is_fragment()) fragment = chunk.fragment;
    }
    if (!fragment.empty()) break;
  }
  ASSERT_FALSE(fragment.empty()) << "no composition plan pins a fragment";
  site->cache().Put(fragment, "<p>changed behind the plan's back</p>");

  auto verified = site->VerifyCacheConsistency();
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.status().message().find("differ from the live entry"),
            std::string::npos)
      << verified.status().message();
}

}  // namespace
}  // namespace nagano::server
