// Allocation guard for the render path.
//
// A counting global operator new measures the heap allocations one
// PageRenderer::RenderOnly costs for an event, athlete, country and day
// page of the benchmark-sized Olympic site, and each count must stay under
// a fixed bound. Rendering writes one reserved output buffer, copies only
// the columns a page shows into its template context's arena, and skips
// the ODG re-sync when the dependencies are unchanged, so the counts are
// small and repeat exactly; a change that reintroduces per-variable strings,
// row copies or per-dependency names shows here without any timing.
//
// The same counter checks the serving path's miss: a cache miss is the
// common case under a bounded cache, and ObjectCache::TryLookup answers it
// without touching the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cache/object_cache.h"
#include "core/serving_site.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Not inlined, so GCC does not see malloc() and free() meet a new-expression
// and delete-expression at a call site and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nagano {
namespace {

class RenderAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::SiteOptions options;
    options.olympic.events_per_sport = 20;
    options.olympic.athletes_per_event = 30;
    options.olympic.num_countries = 72;
    auto site = core::ServingSite::Create(options);
    ASSERT_TRUE(site.ok()) << site.status().ToString();
    site_ = std::move(site).value().release();
    ASSERT_TRUE(site_->PrefetchAll().ok());
  }
  static void TearDownTestSuite() {
    delete site_;
    site_ = nullptr;
  }

  // Allocations made by one RenderOnly of `page`, after a first render has
  // initialised the generator's template and size hint.
  static uint64_t AllocationsPerRender(const std::string& page) {
    EXPECT_TRUE(site_->renderer().RenderOnly(page).ok()) << page;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const bool ok = site_->renderer().RenderOnly(page).ok();
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(ok) << page;
    return after - before;
  }

  static core::ServingSite* site_;
};

core::ServingSite* RenderAllocTest::site_ = nullptr;

// Bounds sit a little above the counts this render path makes (event 6,
// athlete 8, country 17, day 30) and far below those of the
// copy-per-variable renderer it replaced (30, 26, 141, 108). Country and
// day pages splice fragments, so their render also splits into a plan (one
// string per static run) that RenderOnly then concatenates.
TEST_F(RenderAllocTest, EventPage) {
  EXPECT_LE(AllocationsPerRender("/event/7"), 8u);
}

TEST_F(RenderAllocTest, AthletePage) {
  EXPECT_LE(AllocationsPerRender("/athlete/33"), 10u);
}

TEST_F(RenderAllocTest, CountryPage) {
  EXPECT_LE(AllocationsPerRender("/country/JPN"), 20u);
}

TEST_F(RenderAllocTest, DayPage) {
  EXPECT_LE(AllocationsPerRender("/day/3"), 34u);
}

TEST(CacheMissAllocTest, TryLookupMissAllocatesNothing) {
  cache::ObjectCache cache;
  cache.Put("/event/7", "<html>event 7</html>");
  // Longer than any small-string buffer, so a message naming the key
  // would have to allocate.
  const std::string absent = "/athlete/" + std::string(40, '9');
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto miss = cache.TryLookup(absent);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(miss.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace nagano
