// E2E — the whole system of Figs. 3-6 in one simulation:
//
//   master database in Nagano
//     -> replication tree (Tokyo; Schaumburg -> Columbus, Bethesda)
//       -> per-complex trigger monitor + DUP + renderer + cache
//         -> MSIPR-routed request traffic served at each complex
//
// One compressed games day. The scoring feed commits to the master at its
// scheduled (simulated) times; the change log ships down the tree with
// per-link lag; each complex's trigger monitor independently refreshes its
// own cache; clients are routed geographically and served from their
// complex's copy. Reported: global dynamic hit rate, end-to-end freshness
// (master commit -> page fresh at each complex, dominated by replication
// lag), per-complex load, and availability.
//
// This is the paper's claim structure exactly: DUP keeps *every* complex's
// cache fresh within seconds of a result being recorded in Nagano, while
// geographic routing keeps each audience on its nearest copy.
#include <cinttypes>
#include <map>
#include <memory>

#include "bench_util.h"
#include "cluster/fabric.h"
#include "cluster/net.h"
#include "core/serving_site.h"
#include "replication/replication.h"
#include "workload/feed.h"
#include "workload/profiles.h"
#include "workload/sampler.h"

using namespace nagano;

int main() {
  bench::Header("E2E", "four replicated complexes behind MSIPR, one day");

  SimClock clock(0);

  pagegen::OlympicConfig content;
  content.days = 16;
  content.num_sports = 7;
  content.events_per_sport = 10;
  content.athletes_per_event = 12;
  content.num_countries = 24;

  // Master: content + feed, no serving.
  db::DatabaseOptions master_db_options;
  master_db_options.clock = &clock;
  auto master_db = std::make_unique<db::Database>(std::move(master_db_options));
  if (!pagegen::OlympicSite::Build(content, master_db.get()).ok()) return 1;
  db::Database* master = master_db.get();

  // Replication tree with the paper's topology and transpacific lags.
  replication::ReplicationOptions replication_options;
  replication_options.clock = &clock;
  replication::ReplicationTopology replication_tree(
      std::move(replication_options));
  if (!replication_tree.AddNode("Nagano", master).ok()) return 1;

  const std::vector<std::string>& complexes = workload::Complexes();
  std::map<std::string, std::unique_ptr<core::ServingSite>> sites;
  for (const auto& name : complexes) {
    db::DatabaseOptions replica_db_options;
    replica_db_options.clock = &clock;
    auto replica =
        std::make_unique<db::Database>(std::move(replica_db_options));
    if (!pagegen::OlympicSite::CreateSchema(replica.get()).ok()) return 1;
    core::SiteOptions options;
    options.olympic = content;
    options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
    options.clock = &clock;
    db::Database* replica_ptr = replica.get();
    auto site = core::ServingSite::CreateAround(std::move(options),
                                                std::move(replica));
    if (!site.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   site.status().ToString().c_str());
      return 1;
    }
    sites[name] = std::move(site).value();
    if (!replication_tree.AddNode(name, replica_ptr).ok()) return 1;
  }
  (void)replication_tree.SetFeed("Tokyo", "Nagano", FromMillis(40));
  (void)replication_tree.SetFeed("Schaumburg", "Nagano", FromMillis(130));
  (void)replication_tree.SetFeed("Columbus", "Schaumburg", FromMillis(25));
  (void)replication_tree.SetFeed("Bethesda", "Schaumburg", FromMillis(25));
  (void)replication_tree.SetFailoverFeed("Schaumburg", "Tokyo");

  // Initial catch-up: ship the pre-games content, then prefetch per complex.
  clock.Advance(kSecond);
  replication_tree.PumpUntilQuiet();
  size_t prefetched = 0;
  for (const auto& name : complexes) {
    auto count = sites[name]->PrefetchAll();
    if (!count.ok()) return 1;
    prefetched = count.value();
    sites[name]->StartTrigger();
  }
  bench::Row("4 complexes online, %zu objects prefetched at each", prefetched);

  cluster::RegionCosts costs = cluster::RegionCosts::OlympicDefault();
  cluster::ServingFabric fabric(cluster::FabricOptions::Olympic(
      cluster::RegionCosts::OlympicDefault(), &clock));

  // One day's feed, with requests interleaved by simulated time.
  workload::ResultFeed feed(master, workload::FeedOptions{}, 98);
  auto schedule = feed.BuildDaySchedule(1);
  size_t feed_cursor = 0;

  workload::PageSampler sampler(content, *master);
  sampler.SetCurrentDay(1);
  Rng rng(98);

  constexpr size_t kRequests = 30'000;
  const TimeNs step = kDay / kRequests;
  Histogram response_ms;
  uint64_t hits = 0, misses = 0, failed = 0;
  std::vector<uint64_t> served_by(complexes.size(), 0);

  for (size_t i = 0; i < kRequests; ++i) {
    const TimeNs now = static_cast<TimeNs>(i) * step;
    clock.AdvanceTo(now);

    bool fed = false;
    while (feed_cursor < schedule.size() && schedule[feed_cursor].at <= now) {
      if (!feed.Apply(schedule[feed_cursor++]).ok()) return 1;
      fed = true;
    }
    // The log ships continuously; complexes apply whatever has arrived.
    replication_tree.Pump();
    if (fed) {
      for (const auto& name : complexes) sites[name]->Quiesce();
    }

    const size_t region = workload::SampleRegion(rng);
    const std::string page = sampler.Sample(rng);
    const auto routed = fabric.Route(region, FromMillis(5), 10 * 1024,
                                     cluster::Isdn64k());
    if (!routed.served) {
      ++failed;
      continue;
    }
    const std::string& complex_name = fabric.complex_name(routed.complex_index);
    const auto outcome = sites[complex_name]->Serve(page);
    ++served_by[routed.complex_index];
    if (outcome.cls == server::ServeClass::kCacheHit) {
      ++hits;
    } else if (outcome.cls == server::ServeClass::kCacheMissGenerated) {
      ++misses;
    }
    // Replace the routing estimate with the actual serve cost.
    response_ms.Add(ToMillis(routed.response_time - FromMillis(5) +
                             outcome.cpu_cost));
  }
  // Drain the tail of the feed and verify convergence.
  while (feed_cursor < schedule.size()) {
    if (!feed.Apply(schedule[feed_cursor++]).ok()) return 1;
  }
  clock.Advance(kSecond);
  replication_tree.PumpUntilQuiet();
  for (const auto& name : complexes) {
    sites[name]->Quiesce();
    sites[name]->StopTrigger();
  }

  bench::Section("serving");
  const double hit_rate =
      100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses);
  bench::Row("requests %zu, failed %" PRIu64 ", dynamic hit rate %.2f%%",
             kRequests, failed, hit_rate);
  for (size_t c = 0; c < complexes.size(); ++c) {
    bench::Row("  %-12s served %" PRIu64, complexes[c].c_str(), served_by[c]);
  }
  bench::Row("response: %s ms", response_ms.Summary().c_str());

  bench::Section("freshness across the tree (master commit -> applied)");
  bench::Row("replication apply lag: %s ms",
             replication_tree.apply_lag().Summary().c_str());
  // After the drain every complex's cached pages match its own database;
  // spot-check one hot page body agrees across all four complexes.
  bool converged_identical = replication_tree.Converged();
  const std::string probe = pagegen::OlympicSite::EventPage(1);
  const auto reference = sites[complexes[0]]->cache().Peek(probe);
  for (const auto& name : complexes) {
    const auto body = sites[name]->cache().Peek(probe);
    if (body == nullptr || reference == nullptr ||
        body->Materialize() != reference->Materialize()) {
      converged_identical = false;
    }
  }

  bench::Section("paper comparison");
  bench::Compare("global hit rate with DUP everywhere", 99.5, hit_rate, "%");
  bench::Compare("availability", 100.0,
                 100.0 * (1.0 - static_cast<double>(failed) / kRequests), "%");
  bench::Compare("freshness bound (60 s)", 60'000.0,
                 replication_tree.apply_lag().max(), "ms (replication apply)");
  bench::CompareText("all complexes byte-identical after drain", "yes",
                     converged_identical ? "yes" : "NO");
  return 0;
}
