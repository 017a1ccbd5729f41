// Randomized property suites across modules:
//  * ObjectCache behaves exactly like a reference map under arbitrary
//    operation sequences;
//  * the template engine never crashes: structured-random templates
//    compile and render, byte-random inputs either compile or error;
//  * the serving fabric serves every request while any complex is healthy,
//    under arbitrary failure/recovery sequences;
//  * replication converges to the master's log from any alive tree after
//    arbitrary interleavings of commits, pumps and outages.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "cluster/fabric.h"
#include "cluster/net.h"
#include "common/rng.h"
#include "db/database.h"
#include "odg/dup.h"
#include "pagegen/template.h"
#include "replication/replication.h"

namespace nagano {
namespace {

// --- cache vs reference model --------------------------------------------------

class CacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheModelTest, MatchesReferenceMap) {
  Rng rng(GetParam());
  cache::ObjectCache cache;                  // unbounded: no eviction
  std::map<std::string, std::string> model;  // reference

  auto random_key = [&rng] {
    return "/p" + std::to_string(rng.NextBelow(40));
  };

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 45) {  // put
      const std::string key = random_key();
      const std::string body = "v" + std::to_string(step);
      cache.Put(key, body);
      model[key] = body;
    } else if (op < 80) {  // lookup
      const std::string key = random_key();
      const auto cached = cache.Lookup(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(cached, nullptr) << key;
      } else {
        ASSERT_NE(cached, nullptr) << key;
        EXPECT_EQ(cached->body, it->second) << key;
      }
    } else if (op < 90) {  // invalidate
      const std::string key = random_key();
      const bool was_present = model.erase(key) > 0;
      EXPECT_EQ(cache.Invalidate(key), was_present) << key;
    } else if (op < 97) {  // prefix invalidate
      const std::string prefix = "/p" + std::to_string(rng.NextBelow(4));
      size_t removed = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->first.starts_with(prefix)) {
          it = model.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(cache.InvalidatePrefix(prefix), removed) << prefix;
    } else {  // clear
      cache.Clear();
      model.clear();
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
  }
  // Final full sweep.
  for (const auto& [key, body] : model) {
    const auto cached = cache.Peek(key);
    ASSERT_NE(cached, nullptr) << key;
    EXPECT_EQ(cached->body, body) << key;
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- template fuzzing -------------------------------------------------------------

// Builds a structurally valid random template and a context that can
// exercise it.
std::string RandomValidTemplate(Rng& rng, int depth = 0) {
  std::string out;
  const int pieces = static_cast<int>(rng.NextInt(1, 6));
  for (int i = 0; i < pieces; ++i) {
    switch (rng.NextBelow(depth < 2 ? 6 : 4)) {
      case 0:
        out += "text" + std::to_string(rng.NextBelow(10)) + " ";
        break;
      case 1:
        out += "{{var" + std::to_string(rng.NextBelow(4)) + "}}";
        break;
      case 2:
        out += "{{{raw" + std::to_string(rng.NextBelow(3)) + "}}}";
        break;
      case 3:
        out += "{{! a comment }}";
        break;
      case 4: {
        const std::string name = "list" + std::to_string(rng.NextBelow(3));
        out += "{{#" + name + "}}" + RandomValidTemplate(rng, depth + 1) +
               "{{/" + name + "}}";
        break;
      }
      case 5: {
        const std::string name = "list" + std::to_string(rng.NextBelow(3));
        out += "{{^" + name + "}}" + RandomValidTemplate(rng, depth + 1) +
               "{{/" + name + "}}";
        break;
      }
    }
  }
  return out;
}

class TemplateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemplateFuzzTest, ValidGrammarAlwaysCompilesAndRenders) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string source = RandomValidTemplate(rng);
    auto compiled = pagegen::CompiledTemplate::Compile(source);
    ASSERT_TRUE(compiled.ok()) << source << " -> "
                               << compiled.status().ToString();

    pagegen::TemplateContext ctx;
    for (int v = 0; v < 4; ++v) {
      ctx.Set("var" + std::to_string(v), "V" + std::to_string(v));
    }
    for (int r = 0; r < 3; ++r) {
      ctx.Set("raw" + std::to_string(r), "<R" + std::to_string(r) + ">");
    }
    for (int l = 0; l < 3; ++l) {
      const std::string list = "list" + std::to_string(l);
      for (size_t i = rng.NextBelow(3); i > 0; --i) {
        ctx.AddItem(list).Set("var0", "inner");
      }
    }
    std::string output;
    compiled.value().Render(ctx, output);
    // Escaped output never leaks a raw '<' from variable substitution of
    // the V* values (they contain none) — mostly we assert no crash and
    // deterministic behaviour:
    std::string again;
    compiled.value().Render(ctx, again);
    EXPECT_EQ(output, again);
  }
}

TEST_P(TemplateFuzzTest, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam() ^ 0x5eed);
  const char alphabet[] = "{}#^/>!abc {{}}\n\r\"";
  for (int trial = 0; trial < 500; ++trial) {
    std::string source;
    const size_t len = rng.NextBelow(60);
    for (size_t i = 0; i < len; ++i) {
      source += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
    }
    auto compiled = pagegen::CompiledTemplate::Compile(source);
    if (compiled.ok()) {
      pagegen::TemplateContext ctx;
      ctx.Set("a", "x");
      std::string out;
      compiled.value().Render(ctx, out);  // must not crash
    } else {
      EXPECT_FALSE(compiled.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateFuzzTest,
                         ::testing::Range<uint64_t>(50, 56));

// --- fabric under random failures -----------------------------------------------

class FabricChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FabricChaosTest, ServedWheneverAnyComplexHealthy) {
  Rng rng(GetParam());
  SimClock clock;
  cluster::ServingFabric fabric(cluster::FabricOptions::Olympic(
      cluster::RegionCosts::OlympicDefault(), &clock));
  const std::vector<std::string> complexes = {"Schaumburg", "Columbus",
                                              "Bethesda", "Tokyo"};
  std::set<std::string> down;

  for (int step = 0; step < 600; ++step) {
    // Random complex-level flap, biased toward recovery so that a healthy
    // complex usually exists.
    const std::string& target = complexes[rng.NextBelow(complexes.size())];
    if (down.count(target)) {
      if (rng.NextBool(0.7)) {
        ASSERT_TRUE(fabric.RecoverComplex(target).ok());
        down.erase(target);
      }
    } else if (rng.NextBool(0.25) && down.size() + 1 < complexes.size()) {
      // Never take the last complex down in this test.
      ASSERT_TRUE(fabric.FailComplex(target).ok());
      down.insert(target);
    }
    // Also flap random nodes/dispatchers inside an up complex.
    if (rng.NextBool(0.3)) {
      const std::string& cx = complexes[rng.NextBelow(complexes.size())];
      (void)fabric.FailNode(cx, static_cast<int>(rng.NextBelow(3)),
                            static_cast<int>(rng.NextBelow(8)));
    }
    if (rng.NextBool(0.3)) {
      const std::string& cx = complexes[rng.NextBelow(complexes.size())];
      (void)fabric.RecoverNode(cx, static_cast<int>(rng.NextBelow(3)),
                               static_cast<int>(rng.NextBelow(8)));
    }

    const size_t region = rng.NextBelow(5);
    const auto out = fabric.Route(region, FromMillis(5), 4096,
                                  cluster::Lan10M());
    ASSERT_TRUE(out.served) << "step " << step << " with " << down.size()
                            << " complexes down";
    ASSERT_NE(out.complex_index, SIZE_MAX);
    // Never served by a downed complex.
    EXPECT_FALSE(down.count(fabric.complex_name(out.complex_index)));
  }
  EXPECT_DOUBLE_EQ(fabric.stats().Availability(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricChaosTest,
                         ::testing::Range<uint64_t>(100, 108));

// --- concurrent ODG mutation vs traversal -----------------------------------------

TEST(OdgConcurrencyTest, TraversalsSafeUnderConcurrentMutation) {
  // The renderer re-records dependencies while the trigger monitor runs
  // DUP. Hammer both paths from separate threads; every traversal must
  // return a well-formed result (no crash, ids in range, scores in (0,1]).
  odg::ObjectDependenceGraph graph;
  std::vector<odg::NodeId> data, pages;
  for (int i = 0; i < 20; ++i) {
    data.push_back(graph.EnsureNode("d" + std::to_string(i),
                                    odg::NodeKind::kUnderlyingData));
  }
  for (int i = 0; i < 100; ++i) {
    pages.push_back(
        graph.EnsureNode("p" + std::to_string(i), odg::NodeKind::kObject));
  }

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Rng rng(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const odg::NodeId page = pages[rng.NextBelow(pages.size())];
      graph.ClearInEdges(page);
      for (int k = 0; k < 4; ++k) {
        (void)graph.AddDependence(data[rng.NextBelow(data.size())], page,
                                  1.0 + double(rng.NextBelow(5)));
      }
    }
  });

  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<odg::NodeId> changed = {data[rng.NextBelow(data.size())],
                                        data[rng.NextBelow(data.size())]};
    const auto result = odg::DupEngine::ComputeAffected(graph, changed);
    for (const auto& obj : result.affected) {
      ASSERT_LT(obj.id, graph.node_count());
      ASSERT_GT(obj.obsolescence, 0.0);
      ASSERT_LE(obj.obsolescence, 1.0);
    }
  }
  stop = true;
  mutator.join();
}

// --- replication chaos -----------------------------------------------------------

class ReplicationChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationChaosTest, ConvergesAfterArbitraryInterleaving) {
  Rng rng(GetParam());
  SimClock clock;
  replication::ReplicationTopology topology(&clock);

  std::map<std::string, std::unique_ptr<db::Database>> dbs;
  const std::vector<std::string> nodes = {"master", "a", "b", "a1", "a2"};
  for (const auto& name : nodes) {
    db::DatabaseOptions db_options;
    db_options.clock = &clock;
    dbs[name] = std::make_unique<db::Database>(std::move(db_options));
    ASSERT_TRUE(
        dbs[name]->CreateTable("t", {{"k", db::ColumnType::kInt}}).ok());
    ASSERT_TRUE(topology.AddNode(name, dbs[name].get()).ok());
  }
  ASSERT_TRUE(topology.SetFeed("a", "master", FromMillis(10)).ok());
  ASSERT_TRUE(topology.SetFeed("b", "master", FromMillis(25)).ok());
  ASSERT_TRUE(topology.SetFeed("a1", "a", FromMillis(5)).ok());
  ASSERT_TRUE(topology.SetFeed("a2", "a", FromMillis(5)).ok());
  ASSERT_TRUE(topology.SetFailoverFeed("a1", "b").ok());

  int64_t next_key = 1;
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      ASSERT_TRUE(
          dbs["master"]->Upsert("t", {db::Value(next_key++)}).ok());
    } else if (op < 70) {
      clock.Advance(FromMillis(static_cast<double>(rng.NextBelow(40))));
      topology.Pump();
    } else if (op < 80) {
      (void)topology.MarkDown("a");
    } else if (op < 95) {
      (void)topology.MarkUp("a");
    } else {
      clock.Advance(kSecond);
      topology.PumpUntilQuiet();
    }
  }

  // Heal everything and drain.
  for (const auto& name : nodes) (void)topology.MarkUp(name);
  clock.Advance(kMinute);
  topology.PumpUntilQuiet();
  EXPECT_TRUE(topology.Converged());

  const auto ReadFullLog = [](const db::Database& database) {
    auto batch = database.ReadChanges(db::ChangeCursor{});
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    return batch.ok() ? std::move(batch.value().records)
                      : std::vector<db::ChangeRecord>{};
  };
  const auto master_log = ReadFullLog(*dbs["master"]);
  for (const auto& name : nodes) {
    const auto log = ReadFullLog(*dbs[name]);
    ASSERT_EQ(log.size(), master_log.size()) << name;
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seqno, master_log[i].seqno) << name;
      EXPECT_EQ(log[i].key, master_log[i].key) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationChaosTest,
                         ::testing::Range<uint64_t>(200, 208));

}  // namespace
}  // namespace nagano
