// The dynamic-page serving path (paper §2, Fig. 6).
//
// "When a request for a dynamic page is received, the server program
// invoked to satisfy the request first determines if the page is cached.
// If so, the cached page is returned. Otherwise, the program must generate
// the page in order to satisfy the request [and] decide whether or not to
// cache the newly generated page."
//
// DynamicPageServer is that server program, invoked through an in-process
// FastCGI-like interface rather than CGI (the paper rejects CGI for its
// per-request process overhead). It is transport-independent: HttpFrontEnd
// adapts it to the real epoll HTTP server, and the cluster simulator calls
// Serve() directly with simulated time.
//
// Cost model (paper §2): a static page costs 2-10 ms of CPU; an uncached
// dynamic page "several orders of magnitude more"; a cached dynamic page is
// served "at roughly the same rate as static pages". Serve() reports the
// modeled CPU cost of each request so the simulator can charge it to a
// node, and the THRU bench measures the real cost too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/single_flight.h"
#include "common/stats.h"
#include "http/message.h"
#include "http/server.h"
#include "pagegen/renderer.h"

namespace nagano::server {

struct CostModel {
  TimeNs static_page = FromMillis(5);          // 2-10 ms in the paper
  TimeNs cached_dynamic = FromMillis(5);       // ≈ static
  TimeNs generate_dynamic = FromMillis(500);   // ~2 orders of magnitude more
  TimeNs not_found = FromMillis(1);
};

enum class ServeClass : uint8_t {
  kStatic,
  kCacheHit,
  kCacheMissGenerated,
  // Generation failed (or the cache path was down) and the last-known-good
  // cached copy was served instead — §4.2's elegant degradation applied to
  // content freshness. HTTP layer marks these X-Cache: STALE plus an
  // X-Nagano-Stale age header.
  kDegradedStale,
  kNotFound,
  kError,
  // Shed by admission control: the render queue was full (or the deadline
  // already spent) and no last-known-good copy existed to degrade to. HTTP
  // layer answers 503 with a Retry-After hint.
  kRejected,
};

struct ServeOutcome {
  ServeClass cls = ServeClass::kNotFound;
  TimeNs cpu_cost = 0;    // modeled CPU charge
  size_t bytes = 0;       // response body size
  // Owned body copy. Cached sources (static/hit/stale) fill it only when
  // include_body was requested — the zero-copy HTTP path reads body_ref
  // instead. Freshly generated pages always land here (moving them is
  // free; there is no shared copy to reference).
  std::string body;
  // Zero-copy handles into the page's backing store, set whenever the
  // source is ref-counted (static pages, cache hits, degraded stale):
  // the entity bytes and the pre-serialized "Content-Length/..." header
  // prefix. They alias the cached object, so the page stays alive until
  // the last holder (e.g. an in-flight socket write) drops it.
  std::shared_ptr<const std::string> body_ref;
  // Scatter-gather alternative to body_ref, set when the cached source is a
  // composition plan: one ref per chunk (static text aliasing the plan
  // object, fragment bytes aliasing the pinned fragment snapshot), in body
  // order. The HTTP layer splices them straight into the socket write queue
  // — a composed page is served with zero body copies, same as a flat one.
  // Mutually exclusive with body_ref.
  std::vector<std::shared_ptr<const std::string>> body_chunks;
  std::shared_ptr<const std::string> entity_headers;
  uint32_t retries = 0;   // transparent retry attempts beyond the first
  TimeNs stale_age = 0;   // kDegradedStale: age of the copy served
  Status error;           // kError / kDegradedStale / kRejected: what failed
  // This request joined another request's in-flight render instead of
  // running its own (single-flight coalescing). The body_ref it carries is
  // the same ref-counted object every other participant got.
  bool coalesced = false;
  // kRejected: how long the client should back off before retrying —
  // roughly one render's worth of queue drain. HttpFrontEnd rounds it up
  // into the Retry-After header.
  TimeNs retry_after = 0;
};

// Every ServeStats counter, declared once (see common/metrics.h).
#define NAGANO_SERVE_METRICS(X)                                               \
  X(Counter, static_hits, "nagano_serve_static_hits_total",                   \
    "requests answered from the static file set")                             \
  X(Counter, cache_hits, "nagano_serve_cache_hits_total",                     \
    "dynamic requests answered from cache")                                   \
  X(Counter, cache_misses, "nagano_serve_cache_misses_total",                 \
    "dynamic requests that forced generation")                                \
  X(Counter, not_found, "nagano_serve_not_found_total",                       \
    "requests with no page")                                                  \
  X(Counter, errors, "nagano_serve_errors_total", "requests that failed")     \
  X(Counter, stale_serves, "nagano_serve_stale_total",                        \
    "degraded responses served from the last-known-good cached copy")         \
  X(Counter, retries, "nagano_serve_retries_total",                           \
    "transient generation failures retried")                                  \
  X(Counter, deadline_exceeded, "nagano_serve_deadline_exceeded_total",       \
    "retry budgets cut short by the request deadline")                        \
  X(Counter, coalesced, "nagano_serve_coalesced_total",                       \
    "requests that joined another request's in-flight render")               \
  X(Counter, coalesce_timeouts, "nagano_serve_coalesce_timeout_total",        \
    "coalesced waiters whose own deadline expired before the render")         \
  X(Counter, shed, "nagano_serve_shed_total",                                 \
    "requests rejected by admission control (no stale copy to soften to)")    \
  X(Counter, shed_softened, "nagano_serve_shed_softened_total",               \
    "admission-control sheds answered with the last-known-good stale copy")   \
  X(Counter, renders_cancelled, "nagano_serve_renders_cancelled_total",       \
    "coalesced renders abandoned after every participant's deadline expired")

struct ServeStats {
  NAGANO_METRIC_FIELDS(NAGANO_SERVE_METRICS)

  uint64_t total() const {
    return static_hits + cache_hits + cache_misses + not_found + errors +
           stale_serves + shed;
  }
  double CacheHitRate() const {
    const uint64_t dynamic = cache_hits + cache_misses;
    return dynamic == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(dynamic);
  }
};

// Bounded retry with exponential backoff + jitter, applied to transient
// (IsTransient) generation failures. Backoff sleeps are real only when
// sleep_on_backoff is set; under SimClock the schedule is still consulted
// for deadline math but nothing blocks.
struct RetryOptions : OptionsBase {
  uint32_t max_attempts = 3;            // total tries, including the first
  TimeNs initial_backoff = FromMillis(10);
  double multiplier = 2.0;
  TimeNs max_backoff = FromMillis(200);
  double jitter = 0.2;                  // backoff scaled by U[1-j, 1+j]

  Status Validate() const;
};

class DynamicPageServer {
 public:
  struct Options : OptionsBase {
    CostModel costs;
    // Pages the program declines to cache (per-request personalization in a
    // real deployment). Prefix match; empty = cache everything. Concurrent
    // misses on every other page coalesce into one render (single-flight);
    // a never-cache page renders once per request.
    std::vector<std::string> never_cache_prefixes;

    // Retry policy for transient generation failures. When generation fails
    // outright (retries exhausted or deadline hit) the cache's
    // last-known-good copy is served as kDegradedStale instead of kError;
    // the cache needs retain_stale to also cover invalidated entries.
    RetryOptions retry;
    // Deadline budget applied when Serve() is called without an explicit
    // deadline. 0 = unbounded.
    TimeNs default_deadline = 0;
    // Admission control: maximum renders in flight at once (coalesced
    // flights count once, however many waiters share them). A miss that
    // cannot start a render is shed — preferably softened to the
    // last-known-good stale copy, else kRejected (HTTP 503 + Retry-After).
    // 0 = unbounded (admission control off).
    size_t max_concurrent_renders = 0;
    // Actually sleep the backoff schedule (live deployments). Off by
    // default so simulations and tests never block.
    bool sleep_on_backoff = false;
    // Deadline + staleness clock. nullptr = RealClock.
    const Clock* clock = nullptr;

    // Registry + instance label for the nagano_serve_* metrics.
    metrics::Options metrics;

    Status Validate() const;
  };

  DynamicPageServer(cache::ObjectCache* cache, pagegen::PageRenderer* renderer)
      : DynamicPageServer(cache, renderer, Options()) {}
  DynamicPageServer(cache::ObjectCache* cache, pagegen::PageRenderer* renderer,
                    Options options);

  // Registers an in-memory static file (the paper's file-system pages).
  void AddStaticPage(std::string path, std::string body);

  // Attaches an access log (see access_log.h); every Serve() appends one
  // record stamped with `clock`. Pass nullptr to detach. Not owned.
  void SetAccessLog(class AccessLog* log, const Clock* clock = nullptr);

  // Serves one page. `include_body` false lets the simulator skip the body
  // copy on its hot path. `deadline` is an absolute time on the server's
  // clock bounding retries (0 = apply default_deadline, if any).
  ServeOutcome Serve(std::string_view path, bool include_body = true,
                     TimeNs deadline = 0);

  ServeStats stats() const;
  const CostModel& costs() const { return options_.costs; }

 private:
  // In-flight renders of cacheable pages, by page key. A waiter adopts the
  // leader's outcome, whose body travels by body_ref only, so the whole
  // fan-out shares one ref-counted copy.
  using Flights = SingleFlight<ServeOutcome>;

  ServeOutcome ServeInternal(std::string_view path, bool include_body,
                             TimeNs deadline);
  bool ShouldCache(std::string_view path) const;
  // Generation with bounded retry; fills retries on the outcome. With a
  // `flight`, the page is rendered into the cache and the retry schedule is
  // bounded by the flight's deadline horizon (which waiters may extend)
  // instead of the leader's own deadline; without one it is rendered
  // uncached. The result is the snapshot the caching render stored, or the
  // uncached render's bytes.
  struct Generated {
    std::shared_ptr<const cache::CachedObject> stored;  // with a flight
    std::string body;                                   // without one
  };
  Result<Generated> GenerateWithRetry(std::string_view path, TimeNs deadline,
                                      uint32_t* retries,
                                      const Flights::Ticket* flight);
  // The degraded fallback: last-known-good copy, or kError when there is
  // none.
  ServeOutcome DegradeToStale(std::string_view path, bool include_body,
                              Status error);
  // Admission-controlled render of a cacheable page: join an in-flight
  // render as a waiter, or lead a new one. Returns the final outcome for
  // this request (generated / degraded / rejected).
  ServeOutcome RenderCoalesced(std::string_view path, bool include_body,
                               TimeNs deadline);
  // Leads one render (admission slot already held) and publishes the
  // outcome to `flight`; a never-cache page renders with no flight.
  ServeOutcome LeadRender(std::string_view path, bool include_body,
                          TimeNs deadline, const Flights::Ticket* flight);
  // Blocks until the flight publishes, or this waiter's own deadline
  // expires; adopts the shared outcome.
  ServeOutcome AwaitFlight(const Flights::Ticket& flight,
                           std::string_view path, bool include_body,
                           TimeNs deadline);
  // Admission control: reserve/release one of max_concurrent_renders slots.
  bool TryAdmitRender();
  void ReleaseRender();
  // Shed one request: soften to the last-known-good stale copy when
  // possible, else kRejected with a Retry-After hint.
  ServeOutcome Shed(std::string_view path, bool include_body, Status why);
  // Bump the per-class counter for an outcome adopted from a flight (the
  // leader's own counters were bumped when the outcome was produced).
  void CountAdopted(const ServeOutcome& outcome);

  cache::ObjectCache* cache_;
  pagegen::PageRenderer* renderer_;
  Options options_;
  const Clock* clock_;
  class AccessLog* access_log_ = nullptr;
  const Clock* log_clock_ = nullptr;

  // Static pages are stored as ref-counted CachedObjects (body + the same
  // pre-serialized entity-header prefix the cache builds) so the serving
  // path hands them out by reference exactly like a cache hit.
  std::mutex static_mutex_;
  std::map<std::string, std::shared_ptr<const cache::CachedObject>,
           std::less<>>
      static_pages_;

  std::mutex backoff_mutex_;
  Rng backoff_rng_;

  Flights flights_;
  // Renders currently running (leaders + never-cache), for admission.
  std::atomic<size_t> active_renders_{0};

  NAGANO_METRIC_CELLS(Cells, NAGANO_SERVE_METRICS, ServeStats);
  Cells cells_;
  metrics::Histogram* coalesce_wait_ms_;
};

// One site-health verdict for /healthz: overall up/down plus the reasons a
// probe failed (empty when healthy).
struct HealthReport {
  bool ok = true;
  std::vector<std::string> problems;
};

using HealthCheck = std::function<HealthReport()>;

// Requests carry no front-end deadline of their own: each Serve() gets the
// program's DynamicPageServer::Options.default_deadline.
struct FrontEndOptions : OptionsBase {
  http::HttpServer::Options http;

  Status Validate() const { return http.Validate(); }
};

// Adapts a DynamicPageServer to the epoll HTTP server, and optionally
// exposes the live admin surface:
//   /metrics  Prometheus text exposition (format 0.0.4)
//   /healthz  200 "ok" / 503 with one problem per line
//   /statusz  human-readable per-subsystem snapshot
class HttpFrontEnd {
 public:
  explicit HttpFrontEnd(DynamicPageServer* program,
                        FrontEndOptions options = {});

  // Turns on /metrics, /healthz and /statusz, served from `registry`
  // (nullptr = the process-wide Default()). `health` backs /healthz; with no
  // probe the endpoint always answers 200. Call before Start() — the admin
  // paths shadow any same-named cached page.
  void EnableAdmin(metrics::MetricRegistry* registry = nullptr,
                   HealthCheck health = nullptr);

  Status Start();
  void Stop();
  uint16_t port() const { return server_->port(); }
  http::ServerStats http_stats() const { return server_->stats(); }
  // Per-reactor request totals — the load-balance view (see
  // HttpServer::reactor_requests).
  std::vector<uint64_t> reactor_requests() const {
    return server_->reactor_requests();
  }

 private:
  http::HttpResponse Handle(const http::HttpRequest& request);
  http::HttpResponse HandleAdmin(std::string_view path);

  DynamicPageServer* program_;
  metrics::MetricRegistry* admin_registry_ = nullptr;  // null = admin off
  HealthCheck health_;
  std::unique_ptr<http::HttpServer> server_;
};

}  // namespace nagano::server
