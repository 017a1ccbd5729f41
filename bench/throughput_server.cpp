// THRU — §1/§2 serving-cost claims, measured with google-benchmark on the
// real serving path (no simulated costs — wall-clock of the actual code):
//
//   * "a single server can serve several hundred dynamic pages per second
//      if the pages are cacheable"
//   * "Cached dynamic pages can be served ... at roughly the same rates as
//      static pages"
//   * an uncached dynamic page costs orders of magnitude more than a
//      cached one (render + DB reads vs a hash lookup)
//
// Also includes the co-location ablation (§2): the 1996 site ran updates
// on the serving processors; serving throughput under a concurrent update
// storm shows the interference the 1998 design avoided by moving the
// trigger monitor to separate processors.
//
// Custom main: after the google-benchmark micro benches, a multi-reactor
// HTTP sweep (reactors 1/2/4, round-robin accept for deterministic
// balance) drives the real epoll server on a pure cache-hit workload with
// the benchmark package's open-loop client (perfbench/loadgen.h) in
// saturate mode, and emits BENCH_throughput.json: wall-clock req/s,
// client-side p50/p99 latency and per-reactor balance, each the median
// with min/max over three repeats, plus the nagano_http_body_copies_total
// proof that a hit never copies its body. Scaling is the ratio of measured
// rates; a point where reactors + client threads exceed the host's
// hardware threads is marked oversubscribed, never modeled.
// `--quick` runs one short sweep and compares against a committed
// BENCH_throughput.json baseline instead of writing one (the ci.sh
// throughput smoke leg: >20% regression, a missing baseline, a failed
// request or any hit-path body copy fails).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/serving_site.h"
#include "loadgen.h"
#include "workload/sampler.h"

using namespace nagano;

namespace {

core::SiteOptions BenchSite() {
  core::SiteOptions options;
  options.olympic.days = 8;
  options.olympic.num_sports = 5;
  options.olympic.events_per_sport = 8;
  options.olympic.athletes_per_event = 10;
  options.olympic.num_countries = 16;
  return options;
}

struct SiteFixtureState {
  std::unique_ptr<core::ServingSite> site;
  std::unique_ptr<workload::PageSampler> sampler;

  SiteFixtureState() {
    auto site_or = core::ServingSite::Create(BenchSite());
    if (!site_or.ok()) std::abort();
    site = std::move(site_or).value();
    if (!site->PrefetchAll().ok()) std::abort();
    sampler = std::make_unique<workload::PageSampler>(site->olympic_config(),
                                                      site->db());
    sampler->SetCurrentDay(2);
  }
};

SiteFixtureState& State() {
  static SiteFixtureState state;
  return state;
}

void BM_ServeStaticPage(benchmark::State& bench_state) {
  auto& s = State();
  s.site->page_server().AddStaticPage("/static/about", std::string(8192, 'x'));
  for (auto _ : bench_state) {
    auto out = s.site->Serve("/static/about");
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeStaticPage);

void BM_ServeCachedDynamicPage(benchmark::State& bench_state) {
  auto& s = State();
  for (auto _ : bench_state) {
    auto out = s.site->Serve("/day/2");
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeCachedDynamicPage);

void BM_ServeCachedDynamicZipfMix(benchmark::State& bench_state) {
  auto& s = State();
  Rng rng(7);
  for (auto _ : bench_state) {
    auto out = s.site->Serve(s.sampler->Sample(rng));
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeCachedDynamicZipfMix);

void BM_GenerateUncachedDynamicPage(benchmark::State& bench_state) {
  auto& s = State();
  for (auto _ : bench_state) {
    // RenderOnly regenerates from the database every time — the cost a
    // cache miss pays.
    auto body = s.site->renderer().RenderOnly("/day/2");
    benchmark::DoNotOptimize(body);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_GenerateUncachedDynamicPage);

// Ablation: serving while an update storm regenerates pages. arg(0)==0:
// updates on the trigger monitor's own thread (1998 design — serving
// thread only serves). arg(0)==1: co-located, the serving thread itself
// applies every update synchronously before serving (1996 design).
void BM_ServeDuringUpdateStorm(benchmark::State& bench_state) {
  const bool colocated = bench_state.range(0) == 1;
  auto site_or = core::ServingSite::Create(BenchSite());
  if (!site_or.ok()) std::abort();
  auto& site = *site_or.value();
  if (!site.PrefetchAll().ok()) std::abort();
  site.StartTrigger();

  workload::PageSampler sampler(site.olympic_config(), site.db());
  sampler.SetCurrentDay(2);
  Rng rng(11);
  int64_t event = 1;
  int rank = 1;
  for (auto _ : bench_state) {
    // One scoring update per 20 serves, as a steady background rate.
    (void)site.RecordResult(event, rank, rank, 80.0 + rank);
    // 1996: the serving processor blocks until the regeneration work is
    // done before it can serve. 1998: regeneration proceeds on the trigger
    // monitor's thread while this thread serves immediately.
    if (colocated) site.Quiesce();
    ++rank;
    if (rank > 20) {
      rank = 1;
      event = event % 30 + 1;
    }
    auto out = site.Serve(sampler.Sample(rng));
    benchmark::DoNotOptimize(out.bytes);
  }
  site.Quiesce();
  site.StopTrigger();
  bench_state.SetItemsProcessed(bench_state.iterations());
  bench_state.SetLabel(colocated ? "colocated-1996" : "separate-1998");
  // Per-stage pipeline counters from the trigger monitor, so the storm
  // bench shows how much regeneration work rode behind the serving numbers.
  const auto tstats = site.trigger_monitor().stats();
  bench_state.counters["batches"] = static_cast<double>(tstats.batches);
  bench_state.counters["coalesced"] =
      static_cast<double>(tstats.changes_coalesced);
  bench_state.counters["renders"] =
      static_cast<double>(tstats.renders_attempted);
  bench_state.counters["updated"] = static_cast<double>(tstats.objects_updated);
  bench_state.counters["batch_ms_p99"] = tstats.batch_apply_ms.Percentile(0.99);
}
BENCHMARK(BM_ServeDuringUpdateStorm)->Arg(0)->Arg(1);

// --- multi-reactor HTTP sweep ------------------------------------------------

// The load: kClientThreads open-loop clients, each on its own thread with
// kConnectionsPerClient keep-alive connections, 8 in all. 8 is a multiple
// of every swept reactor count, so round-robin accept deals the same
// number of connections to each reactor. One client thread saturates near
// the single-reactor rate, so it would cap the sweep; two do not.
constexpr size_t kClientThreads = 2;
constexpr size_t kConnectionsPerClient = 4;

struct SweepRun {
  size_t reactors = 0;
  uint64_t requests = 0;        // answered 200 with a complete body
  uint64_t failed = 0;          // failed or never sent
  double req_per_s = 0.0;       // summed over the client threads
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double balance = 0.0;         // min reactor share / fair share, 1.0 = even
  uint64_t body_copies = 0;     // hit-only run: must stay 0
};

// Drives one front end with `reactors` event loops on a pure cache-hit page
// for `seconds`.
std::optional<SweepRun> RunSweep(size_t reactors, double seconds) {
  auto site_or = core::ServingSite::Create(BenchSite());
  if (!site_or.ok()) return std::nullopt;
  auto& site = *site_or.value();
  if (!site.PrefetchAll().ok()) return std::nullopt;

  server::FrontEndOptions options;
  options.http.reactors = reactors;
  options.http.accept_mode = http::AcceptMode::kRoundRobin;
  server::HttpFrontEnd front(&site.page_server(), std::move(options));
  if (!front.Start().ok()) return std::nullopt;

  const perfbench::ReadStream stream{{"/day/2"}, {1.0}};
  perfbench::PhaseOptions phase;
  phase.saturate = true;
  phase.duration_ns = static_cast<int64_t>(seconds * 1e9);
  // Connect every client before any sends, so accept deals the
  // connections in a fixed order.
  std::vector<std::unique_ptr<perfbench::OpenLoopClient>> clients;
  for (size_t c = 0; c < kClientThreads; ++c) {
    clients.push_back(std::make_unique<perfbench::OpenLoopClient>(
        &stream, front.port(), kConnectionsPerClient));
    if (!clients.back()->Connect().ok()) return std::nullopt;
  }
  std::vector<perfbench::PhaseResult> results(kClientThreads);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClientThreads; ++c) {
    threads.emplace_back([&, c] { results[c] = clients[c]->Run(phase); });
  }
  for (auto& t : threads) t.join();

  // The clients run side by side over the same window, so their rates add.
  SweepRun run;
  run.reactors = reactors;
  perfbench::Samples latency;
  for (const perfbench::PhaseResult& result : results) {
    for (const perfbench::RequestTiming& r : result.requests) {
      if (r.ok) latency.Add(r.done - r.due);
    }
    run.requests += result.succeeded();
    run.failed += result.requests.size() - result.succeeded();
    run.req_per_s += result.Throughput();
    if (!result.errors.empty()) {
      std::fprintf(stderr, "reactors=%zu: %s\n", reactors,
                   result.errors.front().c_str());
    }
  }
  run.p50_ms = latency.QuantileMs(0.5);
  run.p99_ms = latency.QuantileMs(0.99);
  run.body_copies = front.http_stats().body_copies;
  front.Stop();

  // Balance: the smallest reactor's share of the per-reactor request totals
  // against a perfectly even split.
  const std::vector<uint64_t> per_reactor = front.reactor_requests();
  uint64_t total = 0, min_requests = UINT64_MAX;
  for (uint64_t r : per_reactor) {
    total += r;
    min_requests = std::min(min_requests, r);
  }
  run.balance = (total > 0 && !per_reactor.empty())
                    ? static_cast<double>(min_requests) *
                          static_cast<double>(per_reactor.size()) /
                          static_cast<double>(total)
                    : 0.0;
  return run;
}

int SweepMain(bool quick, const std::string& baseline_path) {
  bench::Header("THRPT", "multi-reactor HTTP serving sweep (cache hits)");
  // The gate's floor is read before anything runs: a missing baseline is a
  // failure, not a skipped gate.
  std::optional<double> baseline;
  if (quick) {
    baseline = bench::BaselineValue(baseline_path, "single_reactor_req_per_s");
    if (!baseline) {
      std::fprintf(stderr, "FAIL: no single_reactor_req_per_s in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
  }
  const unsigned host_threads = std::thread::hardware_concurrency();
  const std::vector<size_t> reactor_counts =
      quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4};
  const double seconds = quick ? 0.5 : 1.5;
  const int repeats = quick ? 1 : 3;
  bench::Row("host threads: %u, client threads: %zu x %zu connections, "
             "accept: round-robin, %.1f s per point, %d repeat(s)",
             host_threads, kClientThreads, kConnectionsPerClient, seconds,
             repeats);
  const auto oversubscribed = [&](size_t reactors) {
    return reactors + kClientThreads > host_threads;
  };

  // runs[i] holds every repeat of reactor_counts[i]; repeats go round the
  // sweep so slow host phases spread over all points.
  std::vector<std::vector<SweepRun>> runs(reactor_counts.size());
  uint64_t hit_requests = 0, hit_copies = 0, failed_requests = 0;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    for (size_t i = 0; i < reactor_counts.size(); ++i) {
      auto run = RunSweep(reactor_counts[i], seconds);
      if (!run) {
        std::fprintf(stderr, "sweep (reactors=%zu) failed\n",
                     reactor_counts[i]);
        return 1;
      }
      hit_requests += run->requests;
      hit_copies += run->body_copies;
      failed_requests += run->failed;
      bench::Row("reactors=%zu  %8llu req  %9.0f req/s  p50=%.3f ms  "
                 "p99=%.3f ms  balance=%.3f  failed=%llu  copies=%llu%s",
                 run->reactors, static_cast<unsigned long long>(run->requests),
                 run->req_per_s, run->p50_ms, run->p99_ms, run->balance,
                 static_cast<unsigned long long>(run->failed),
                 static_cast<unsigned long long>(run->body_copies),
                 oversubscribed(run->reactors) ? "  (oversubscribed)" : "");
      runs[i].push_back(*run);
    }
  }

  const auto scaling = [&](size_t i) {
    return bench::SpreadOf(runs[i], &SweepRun::req_per_s).median /
           bench::SpreadOf(runs[0], &SweepRun::req_per_s).median;
  };
  const double base_rate = bench::SpreadOf(runs[0], &SweepRun::req_per_s).median;
  bench::Section("summary");
  for (size_t i = 1; i < reactor_counts.size(); ++i) {
    const std::string metric = "cache-hit scaling, " +
                               std::to_string(reactor_counts[i]) +
                               " vs 1 reactors";
    bench::Compare(metric.c_str(), static_cast<double>(reactor_counts[i]),
                   scaling(i),
                   oversubscribed(reactor_counts[i])
                       ? "x (measured; oversubscribed host)"
                       : "x (measured)");
  }
  bench::CompareText("hit path copies bodies", "no",
                     hit_copies == 0 ? "no" : "yes");
  bench::Row("hit-only requests served: %llu, failed: %llu, bodies copied: "
             "%llu",
             static_cast<unsigned long long>(hit_requests),
             static_cast<unsigned long long>(failed_requests),
             static_cast<unsigned long long>(hit_copies));

  bool failed = false;
  if (hit_copies != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu response bodies were copied on a hit-only run\n",
                 static_cast<unsigned long long>(hit_copies));
    failed = true;
  }
  if (failed_requests != 0) {
    std::fprintf(stderr, "FAIL: %llu cache-hit requests failed\n",
                 static_cast<unsigned long long>(failed_requests));
    failed = true;
  }

  if (quick) {
    // Smoke gate: compare the single-reactor rate to the committed
    // baseline. 20% headroom absorbs machine noise; a real hot-path
    // regression (a reintroduced copy, a serialization slowdown) is
    // far larger than that.
    const double floor = *baseline * 0.8;
    bench::Row("regression gate: measured %.0f req/s vs baseline %.0f "
               "(floor %.0f)",
               base_rate, *baseline, floor);
    if (base_rate < floor) {
      std::fprintf(stderr,
                   "FAIL: single-reactor rate %.0f req/s is more than 20%% "
                   "below the committed baseline %.0f req/s\n",
                   base_rate, *baseline);
      failed = true;
    }
    return failed ? 1 : 0;
  }

  std::ofstream json("BENCH_throughput.json");
  json << "{\n";
  bench::WriteContext(json, "throughput", repeats);
  json << "  \"client_threads\": " << kClientThreads << ",\n"
       << "  \"connections\": " << kClientThreads * kConnectionsPerClient
       << ",\n"
       << "  \"accept_mode\": \"round_robin\",\n"
       << "  \"seconds_per_point\": " << seconds << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::vector<SweepRun>& point = runs[i];
    json << "    {\"reactors\": " << reactor_counts[i]
         << ", \"oversubscribed\": "
         << (oversubscribed(reactor_counts[i]) ? "true" : "false") << ", ";
    bench::WriteSpread(json, "req_per_s",
                       bench::SpreadOf(point, &SweepRun::req_per_s)) << ", ";
    bench::WriteSpread(json, "p50_ms",
                       bench::SpreadOf(point, &SweepRun::p50_ms)) << ", ";
    bench::WriteSpread(json, "p99_ms",
                       bench::SpreadOf(point, &SweepRun::p99_ms)) << ", ";
    bench::WriteSpread(json, "balance",
                       bench::SpreadOf(point, &SweepRun::balance))
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"single_reactor_req_per_s\": " << base_rate << ",\n";
  for (size_t i = 1; i < reactor_counts.size(); ++i) {
    json << "  \"scaling_1to" << reactor_counts[i] << "\": " << scaling(i)
         << ",\n";
  }
  json << "  \"hit_requests\": " << hit_requests << ",\n"
       << "  \"failed_requests\": " << failed_requests << ",\n"
       << "  \"hit_body_copies\": " << hit_copies << ",\n"
       << "  \"zero_copy_hit_path\": " << (hit_copies == 0 ? "true" : "false")
       << "\n}\n";
  json.close();
  bench::Row("wrote BENCH_throughput.json");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline = "BENCH_throughput.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!quick) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return SweepMain(quick, baseline);
}
