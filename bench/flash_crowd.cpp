// FLASH — flash-crowd resilience under the §5 medal-decided spike (the
// record minute was exactly such an event):
//
//   * invalidation storm: a scoreboard tick invalidates the hot page while
//     a 32-request herd is already racing it. With single-flight coalescing
//     ("on") one render feeds the whole herd. The "off" mode lists the hot
//     page in never_cache_prefixes: the real serve path for a never-cache
//     page, which renders through PageRenderer::RenderOnly with no flight
//     at either layer (DynamicPageServer or PageRenderer), so every
//     participant pays its own render. The gate: coalescing must cut
//     renders-per-storm by >= 10x at equal availability.
//   * 50x breaking-news spike: the ScenarioGenerator's deterministic
//     arrival stream replayed in real time against the serving path, with a
//     scoreboard invalidating the hot page mid-spike. Reports availability
//     and p50/p99 serve latency.
//
// `--quick` runs one repeat with fewer storms and compares against a
// committed BENCH_flashcrowd.json baseline instead of writing one (the
// ci.sh flashcrowd leg: reduction below 10x, availability below 99.9%, or
// p99 more than 3x the baseline fails; so does a missing baseline). The
// spike is the same in both modes, so the p99 gate compares like with
// like. Without `--quick` it runs three repeats and writes
// BENCH_flashcrowd.json to the working directory: the shared context block
// (bench_util.h) and the median plus min/max of each repeated figure.
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cache/object_cache.h"
#include "common/stats.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"
#include "server/serving.h"
#include "workload/scenarios.h"

using namespace nagano;

namespace {

constexpr int kHerd = 32;
constexpr double kSpikeSeconds = 3.0;
constexpr char kHotPage[] = "/medals";

bool IsServed(server::ServeClass cls) {
  switch (cls) {
    case server::ServeClass::kStatic:
    case server::ServeClass::kCacheHit:
    case server::ServeClass::kCacheMissGenerated:
    case server::ServeClass::kDegradedStale:
      return true;
    default:
      return false;
  }
}

// --- invalidation storms -----------------------------------------------------

struct StormRun {
  bool coalesce = false;
  int storms = 0;
  uint64_t renders = 0;
  uint64_t requests = 0;
  uint64_t served = 0;
  double renders_per_storm = 0.0;
  double availability = 0.0;
};

// `storms` rounds of: invalidate the hot page, then release a kHerd-thread
// herd at it simultaneously. The generator stalls ~2 ms so the herd is
// guaranteed to overlap the in-flight render — exactly the window
// coalescing exists for.
StormRun RunStorms(bool coalesce, int storms) {
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache::Options cache_options;
  cache_options.retain_stale = true;
  cache::ObjectCache cache(cache_options);
  pagegen::PageRenderer renderer(&graph, &cache);

  std::atomic<uint64_t> renders{0};
  renderer.RegisterExact(kHotPage, [&](const pagegen::RenderRequest&) {
    renders.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Result<std::string>(std::string(2048, 'm'));
  });

  server::DynamicPageServer::Options options;
  if (!coalesce) options.never_cache_prefixes = {kHotPage};
  server::DynamicPageServer program(&cache, &renderer, options);

  StormRun run;
  run.coalesce = coalesce;
  run.storms = storms;
  std::atomic<uint64_t> served{0};
  for (int storm = 0; storm < storms; ++storm) {
    cache.Invalidate(kHotPage);  // the scoreboard tick (first round: cold)
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> herd;
    herd.reserve(kHerd);
    for (int i = 0; i < kHerd; ++i) {
      herd.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto out = program.Serve(kHotPage, /*include_body=*/false);
        if (IsServed(out.cls)) served.fetch_add(1);
      });
    }
    while (ready.load() < kHerd) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : herd) t.join();
  }

  run.renders = renders.load();
  run.requests = static_cast<uint64_t>(storms) * kHerd;
  run.served = served.load();
  run.renders_per_storm =
      storms > 0 ? static_cast<double>(run.renders) / storms : 0.0;
  run.availability = run.requests > 0 ? static_cast<double>(run.served) /
                                            static_cast<double>(run.requests)
                                      : 0.0;
  return run;
}

// --- 50x breaking-news spike -------------------------------------------------

struct SpikeRun {
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t renders = 0;
  uint64_t invalidations = 0;
  uint64_t coalesced = 0;
  double availability = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double renders_per_invalidation = 0.0;
};

// Replays the deterministic breaking-news arrival stream (pure spike: no
// background sampler, peak = baseline_rps x 50) in real time from a small
// worker pool while a scoreboard thread invalidates the hot page on a fixed
// cadence. Latency is the serve-path time per request — the quantity the
// coalescing/shedding machinery protects when a tick lands mid-crowd.
std::optional<SpikeRun> RunSpike() {
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache::Options cache_options;
  cache_options.retain_stale = true;
  cache::ObjectCache cache(cache_options);
  pagegen::PageRenderer renderer(&graph, &cache);

  std::atomic<uint64_t> renders{0};
  renderer.RegisterExact(kHotPage, [&](const pagegen::RenderRequest&) {
    renders.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Result<std::string>(std::string(2048, 'm'));
  });
  server::DynamicPageServer program(&cache, &renderer);

  workload::ScenarioOptions scenario;
  scenario.duration = FromSeconds(kSpikeSeconds);
  scenario.baseline_rps = 200.0;  // peak = 50x this
  scenario.spike_multiplier = 50.0;
  scenario.spike_start = static_cast<TimeNs>(0.2 * kSecond);
  scenario.spike_ramp = static_cast<TimeNs>(0.2 * kSecond);
  scenario.spike_duration = scenario.duration - scenario.spike_start;
  scenario.hot_page = kHotPage;
  const workload::ScenarioGenerator generator(nullptr, scenario,
                                              0x666c617368ULL);  // "flash"
  const auto arrivals =
      generator.Build(workload::ScenarioKind::kBreakingNews);
  if (arrivals.empty()) return std::nullopt;

  constexpr size_t kWorkers = 8;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> served{0};
  std::vector<Histogram> latencies(kWorkers);
  std::atomic<bool> done{false};
  const auto start = std::chrono::steady_clock::now();

  // The scoreboard: invalidate the hot page every 150 ms for the whole
  // replay, so the spike repeatedly degenerates into a same-key miss herd.
  std::atomic<uint64_t> invalidations{0};
  std::thread scoreboard([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      if (done.load(std::memory_order_relaxed)) break;
      cache.Invalidate(kHotPage);
      invalidations.fetch_add(1);
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= arrivals.size()) break;
        const auto due = start + std::chrono::nanoseconds(arrivals[i].at);
        if (due > std::chrono::steady_clock::now()) {
          std::this_thread::sleep_until(due);
        }
        const auto t0 = std::chrono::steady_clock::now();
        const auto out =
            program.Serve(arrivals[i].page, /*include_body=*/false);
        const auto t1 = std::chrono::steady_clock::now();
        if (IsServed(out.cls)) served.fetch_add(1);
        latencies[w].Add(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true);
  scoreboard.join();

  SpikeRun run;
  run.requests = arrivals.size();
  run.served = served.load();
  run.renders = renders.load();
  run.invalidations = invalidations.load();
  run.coalesced = program.stats().coalesced;
  run.availability = static_cast<double>(run.served) /
                     static_cast<double>(run.requests);
  Histogram merged;
  for (auto& h : latencies) merged.Merge(h);
  run.p50_ms = merged.Percentile(0.5);
  run.p99_ms = merged.Percentile(0.99);
  run.renders_per_invalidation =
      static_cast<double>(run.renders) /
      static_cast<double>(run.invalidations + 1);  // +1: the cold first fill
  return run;
}

// --- summary + main ----------------------------------------------------------

using bench::Spread;
using bench::SpreadOf;
using bench::WriteSpread;

// Sums the repeats of one storm mode into one run over every storm.
StormRun Pooled(const std::vector<StormRun>& runs) {
  StormRun pooled;
  pooled.coalesce = runs.front().coalesce;
  for (const StormRun& run : runs) {
    pooled.storms += run.storms;
    pooled.renders += run.renders;
    pooled.requests += run.requests;
    pooled.served += run.served;
  }
  pooled.renders_per_storm =
      static_cast<double>(pooled.renders) / pooled.storms;
  pooled.availability = static_cast<double>(pooled.served) /
                        static_cast<double>(pooled.requests);
  return pooled;
}

double Reduction(const StormRun& off, const StormRun& on) {
  return on.renders > 0 ? static_cast<double>(off.renders) /
                              static_cast<double>(on.renders)
                        : static_cast<double>(off.renders);
}

int RunMain(bool quick, const std::string& baseline_path) {
  bench::Header("FLASH", "flash-crowd resilience: coalescing + 50x spike");
  std::optional<double> base_p99;
  if (quick) {
    base_p99 = bench::BaselineValue(baseline_path, "spike_p99_ms");
    if (!base_p99) {
      std::fprintf(stderr, "FAIL: no spike_p99_ms in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
  }
  const int storms = quick ? 8 : 24;
  const int repeats = quick ? 1 : 3;
  bench::Row("herd=%d concurrent requests per storm, %d storms per mode, "
             "%d repeat(s)",
             kHerd, storms, repeats);

  std::vector<StormRun> offs;
  std::vector<StormRun> ons;
  std::vector<SpikeRun> spikes;
  std::vector<double> reductions;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    bench::Section("invalidation storms: renders per storm, coalescing on/off");
    offs.push_back(RunStorms(/*coalesce=*/false, storms));
    ons.push_back(RunStorms(/*coalesce=*/true, storms));
    for (const StormRun* run : {&offs.back(), &ons.back()}) {
      bench::Row("coalescing %-3s  %5llu renders / %d storms = %6.2f per storm"
                 "  availability=%.4f (%llu/%llu)",
                 run->coalesce ? "on" : "off",
                 static_cast<unsigned long long>(run->renders), run->storms,
                 run->renders_per_storm, run->availability,
                 static_cast<unsigned long long>(run->served),
                 static_cast<unsigned long long>(run->requests));
    }
    reductions.push_back(Reduction(offs.back(), ons.back()));

    bench::Section("50x breaking-news spike with mid-spike invalidations");
    const auto spike = RunSpike();
    if (!spike) {
      std::fprintf(stderr, "spike replay produced no arrivals\n");
      return 1;
    }
    spikes.push_back(*spike);
    bench::Row("%llu requests, availability=%.4f, p50=%.3f ms, p99=%.3f ms",
               static_cast<unsigned long long>(spike->requests),
               spike->availability, spike->p50_ms, spike->p99_ms);
    bench::Row("%llu invalidations -> %llu renders (%.2f per invalidation), "
               "%llu requests coalesced",
               static_cast<unsigned long long>(spike->invalidations),
               static_cast<unsigned long long>(spike->renders),
               spike->renders_per_invalidation,
               static_cast<unsigned long long>(spike->coalesced));
  }

  const StormRun off = Pooled(offs);
  const StormRun on = Pooled(ons);
  const Spread reduction = SpreadOf(std::move(reductions));
  const Spread p50 = SpreadOf(spikes, &SpikeRun::p50_ms);
  const Spread p99 = SpreadOf(spikes, &SpikeRun::p99_ms);
  const Spread availability = SpreadOf(spikes, &SpikeRun::availability);
  const Spread per_invalidation =
      SpreadOf(spikes, &SpikeRun::renders_per_invalidation);

  bench::Section("summary");
  bench::Compare("renders/storm, coalescing off", kHerd, off.renders_per_storm,
                 "renders (herd regenerates redundantly)");
  bench::Compare("renders/storm, coalescing on", 1.0, on.renders_per_storm,
                 "renders (single flight)");
  bench::Compare("coalescing render reduction", 10.0, reduction.median,
                 "x (gate: >= 10x at equal availability)");
  bench::Compare("spike availability", 1.0, availability.min,
                 "(gate: >= 0.999)");
  bench::Compare("spike renders/invalidation", 1.0, per_invalidation.median,
                 "renders (one flight per scoreboard tick)");

  bool failed = false;
  if (reduction.min < 10.0) {
    std::fprintf(stderr,
                 "FAIL: coalescing reduced renders-per-storm by only %.2fx "
                 "(acceptance gate: >= 10x)\n",
                 reduction.min);
    failed = true;
  }
  if (off.availability < 0.999 || on.availability < 0.999 ||
      availability.min < 0.999) {
    std::fprintf(stderr,
                 "FAIL: availability dipped below 99.9%% (storms off=%.4f "
                 "on=%.4f, spike=%.4f)\n",
                 off.availability, on.availability, availability.min);
    failed = true;
  }

  if (quick) {
    // 3x headroom: serve-path p99 is a couple of milliseconds and jumps
    // an order of magnitude if a herd ever renders uncoalesced.
    const double ceiling = *base_p99 * 3.0;
    bench::Row("regression gate: measured p99 %.3f ms vs baseline %.3f "
               "(ceiling %.3f)",
               p99.median, *base_p99, ceiling);
    if (p99.median > ceiling) {
      std::fprintf(stderr,
                   "FAIL: spike p99 %.3f ms is more than 3x the committed "
                   "baseline %.3f ms\n",
                   p99.median, *base_p99);
      failed = true;
    }
    return failed ? 1 : 0;
  }

  std::ofstream json("BENCH_flashcrowd.json");
  json << "{\n";
  bench::WriteContext(json, "flashcrowd", repeats);
  json << "  \"herd\": " << kHerd << ",\n"
       << "  \"storms\": " << storms << ",\n"
       << "  \"storm_runs\": [\n";
  const std::vector<StormRun>* modes[] = {&offs, &ons};
  const StormRun* pooled[] = {&off, &on};
  for (size_t i = 0; i < 2; ++i) {
    const StormRun& r = *pooled[i];
    json << "    {\"coalesce\": " << (r.coalesce ? "true" : "false")
         << ", \"renders\": " << r.renders << ", ";
    WriteSpread(json, "renders_per_storm",
                SpreadOf(*modes[i], &StormRun::renders_per_storm))
        << ", \"requests\": " << r.requests << ", \"served\": " << r.served
         << ", \"availability\": " << r.availability << "}"
         << (i == 0 ? "," : "") << "\n";
  }
  WriteSpread(json << "  ],\n  ", "coalesce_reduction_x", reduction)
      << ",\n"
      << "  \"spike_seconds\": " << kSpikeSeconds << ",\n"
      << "  \"spike_requests\": " << spikes.front().requests << ",\n  ";
  WriteSpread(json, "spike_availability", availability) << ",\n  ";
  WriteSpread(json, "spike_p50_ms", p50) << ",\n  ";
  WriteSpread(json, "spike_p99_ms", p99) << ",\n  ";
  WriteSpread(json, "spike_invalidations",
              SpreadOf(spikes, &SpikeRun::invalidations)) << ",\n  ";
  WriteSpread(json, "spike_renders", SpreadOf(spikes, &SpikeRun::renders))
      << ",\n  ";
  WriteSpread(json, "spike_renders_per_invalidation", per_invalidation)
      << ",\n  ";
  WriteSpread(json, "spike_coalesced", SpreadOf(spikes, &SpikeRun::coalesced))
      << "\n}\n";
  json.close();
  bench::Row("wrote BENCH_flashcrowd.json");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline = "BENCH_flashcrowd.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    }
  }
  return RunMain(quick, baseline);
}
