// Concurrency stress suite for the structures on the trigger monitor's hot
// path: ObjectCache shards, BlockingQueue, and ThreadPool shutdown. These
// tests are labelled `stress` so the CI matrix runs them under
// ThreadSanitizer (see ci.sh) — their value is as much the interleavings
// they generate under TSan as the assertions they make.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/queue.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "trigger/trigger_monitor.h"

namespace nagano {
namespace {

std::string Key(int i) { return "/page/" + std::to_string(i); }
std::string Frag(int i) { return "/frag/" + std::to_string(i); }

// The plan [ "<p>" | frag:Frag(i) ] pinning `fragment`, Frag(i)'s snapshot.
std::vector<cache::PlanChunk> PlanOver(
    int i, std::shared_ptr<const cache::CachedObject> fragment) {
  std::vector<cache::PlanChunk> plan(2);
  plan[0].text = "<p>";
  plan[1].fragment = Frag(i);
  plan[1].fragment_version = fragment->version;
  plan[1].source = std::move(fragment);
  return plan;
}

// --- ObjectCache: readers racing Put / PatchPlan / Invalidate ---------------

TEST(CacheConcurrencyTest, ReadersRacingPutUpdateInvalidate) {
  cache::ObjectCache cache;
  constexpr int kKeys = 64;
  constexpr int kWriterRounds = 400;
  // Even keys are flat pages; odd keys are composition plans over their
  // own fragment, updated in place by fragment swap.
  for (int i = 0; i < kKeys; i += 2) cache.Put(Key(i), "seed");
  for (int i = 1; i < kKeys; i += 2) {
    cache.PutPlan(Key(i), PlanOver(i, cache.Put(Frag(i), "frag-seed")));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kKeys; ++i) {
          auto obj = cache.Lookup(Key(i));
          ++n;
          if (obj != nullptr) {
            // The snapshot a reader holds stays internally consistent even
            // while writers replace the entry.
            EXPECT_GT(obj->entity_size(), 0u);
            EXPECT_GE(obj->version, 1u);
          }
        }
      }
      lookups.fetch_add(n, std::memory_order_relaxed);
    });
  }

  std::thread putter([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 0; i < kKeys; i += 2) cache.Put(Key(i), "put-" + std::to_string(r));
    }
  });
  std::thread updater([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 1; i < kKeys; i += 2) {
        // The trigger's fragment-first path: refresh the fragment, then
        // re-pin it in the embedding plan. The patch aborts when the
        // invalidator has replaced the plan with a flat page; the writer
        // then stores a fresh plan, racing that invalidator again.
        auto fragment = cache.Put(Frag(i), "frag-" + std::to_string(r));
        if (cache.PatchPlan(Key(i)) == 0) {
          cache.PutPlan(Key(i), PlanOver(i, std::move(fragment)));
        }
      }
    }
  });
  std::thread invalidator([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 3; i < kKeys; i += 8) {
        cache.Invalidate(Key(i));
        cache.Put(Key(i), "back-" + std::to_string(r));
      }
    }
  });

  putter.join();
  updater.join();
  invalidator.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  const cache::CacheStats stats = cache.stats();
  // Every Lookup counted exactly one hit or miss.
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  // Entry bookkeeping balances: inserts in, invalidations/evictions out.
  EXPECT_EQ(stats.inserts - stats.invalidations - stats.evictions,
            stats.entries);
  EXPECT_EQ(stats.entries, cache.Snapshot().size());
  EXPECT_GT(stats.updates_in_place, 0u);
  EXPECT_GT(stats.plans_patched, 0u);
  EXPECT_EQ(stats.evictions, 0u);  // unbounded configuration
}

TEST(CacheConcurrencyTest, PinnedEntriesSurviveEvictionChurn) {
  cache::ObjectCache::Options options;
  options.shards = 4;
  options.capacity_bytes = 16 * 1024;
  cache::ObjectCache cache(options);

  constexpr int kHot = 8;
  auto hot_key = [](int i) { return "/hot/" + std::to_string(i); };
  for (int i = 0; i < kHot; ++i) {
    cache.Put(hot_key(i), "hot-body-" + std::to_string(i));
    cache.Pin(hot_key(i), true);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kHot; ++i) {
          auto obj = cache.Lookup(hot_key(i));
          // Pinned == the paper's hot pages: never evicted, never a miss.
          ASSERT_NE(obj, nullptr);
          EXPECT_EQ(obj->body, "hot-body-" + std::to_string(i));
        }
      }
    });
  }

  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      const std::string filler(512, 'x');
      for (int i = 0; i < 2000; ++i) {
        cache.Put("/cold/" + std::to_string(t) + "/" + std::to_string(i),
                  filler);
      }
    });
  }
  for (auto& t : churners) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(cache.stats().evictions, 0u);
  for (int i = 0; i < kHot; ++i) {
    EXPECT_TRUE(cache.Contains(hot_key(i))) << hot_key(i);
  }
}

// --- BlockingQueue: MPMC with exact accounting ------------------------------

TEST(QueueConcurrencyTest, MpmcDrainAccountsForEveryPush) {
  BlockingQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;

  std::atomic<long long> pushed_sum{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      long long sum = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        if (queue.Push(value)) sum += value;
      }
      pushed_sum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      long long sum = 0;
      uint64_t n = 0;
      while (auto item = queue.Pop()) {
        sum += *item;
        ++n;
      }
      popped_sum.fetch_add(sum, std::memory_order_relaxed);
      popped_count.fetch_add(n, std::memory_order_relaxed);
    });
  }

  for (auto& t : producers) t.join();
  queue.Close();  // consumers drain the remainder then exit
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped_count.load(), uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_EQ(queue.size(), 0u);
}

// --- ThreadPool: shutdown audit regressions ---------------------------------

TEST(ThreadPoolShutdownTest, ShutdownDrainsEveryQueuedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();  // drain-then-join: nothing queued may be dropped
  EXPECT_EQ(ran.load(), 500);
  EXPECT_FALSE(pool.Submit([] {}));  // closed for business
}

TEST(ThreadPoolShutdownTest, ConcurrentShutdownIsIdempotent) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  std::thread a([&] { pool.Shutdown(); });
  std::thread b([&] { pool.Shutdown(); });
  a.join();
  b.join();
  pool.Shutdown();  // and once more for good measure
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolShutdownTest, ThrowingTasksNeitherHangWaitNorKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&, i] {
      if (i % 2 == 0) throw std::runtime_error("render failed");
      ran.fetch_add(1);
    });
  }
  pool.Wait();  // must return even though half the tasks threw
  EXPECT_EQ(pool.tasks_completed(), 100u);
  EXPECT_EQ(pool.tasks_failed(), 50u);
  EXPECT_EQ(ran.load(), 50);
}

// --- TriggerMonitor: Stop() drains, Quiesce() never hangs -------------------

TEST(TriggerShutdownTest, StopDrainsQueuedChangesAndQuiesceReturns) {
  pagegen::OlympicConfig config;
  config.days = 2;
  config.num_sports = 2;
  config.events_per_sport = 2;
  config.athletes_per_event = 4;
  config.num_countries = 4;
  config.initial_news_articles = 2;

  db::Database db{db::DatabaseOptions{}};
  ASSERT_TRUE(pagegen::OlympicSite::Build(config, &db).ok());
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache cache;
  pagegen::PageRenderer renderer(&graph, &cache);
  pagegen::OlympicSite::RegisterGenerators(config, &db, &renderer);
  ASSERT_TRUE(renderer.RenderAndCache("/event/1").ok());

  trigger::TriggerOptions options;
  options.policy = trigger::CachePolicy::kDupUpdateInPlace;
  options.worker_threads = 4;
  trigger::TriggerMonitor monitor(
      &db, &graph, &cache, &renderer,
      [&db](const db::ChangeRecord& change) {
        return pagegen::OlympicSite::MapChangeToDataNodes(change, db);
      },
      options);

  monitor.Start();
  for (int rank = 1; rank <= 4; ++rank) {
    ASSERT_TRUE(
        pagegen::OlympicSite::RecordResult(&db, 1, rank, rank, 90.0 - rank)
            .ok());
  }
  // Stop without quiescing: drain-then-join must still process everything.
  monitor.Stop();
  // After a drained Stop, the quiesce barrier is already satisfied — if a
  // queued change had been dropped with its counter stuck, this would hang
  // (and the ctest timeout would flag it).
  monitor.Quiesce();

  const auto stats = monitor.stats();
  EXPECT_GT(stats.changes_processed, 0u);
  EXPECT_GT(stats.objects_updated, 0u);
  const auto cached = cache.Peek("/event/1");
  ASSERT_NE(cached, nullptr);
  const auto fresh = renderer.RenderOnly("/event/1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(cached->Materialize(), fresh.value());
  monitor.Stop();  // idempotent
}

}  // namespace
}  // namespace nagano
