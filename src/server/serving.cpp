#include "server/serving.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>

#include "server/access_log.h"

namespace nagano::server {
namespace {

// Copies the shared entity bytes into out.body (include_body callers only):
// one string copy from body_ref, or the chunk concatenation for plans.
void CopySharedBody(ServeOutcome& out) {
  if (out.body_ref != nullptr) {
    out.body = *out.body_ref;
    return;
  }
  if (out.body_chunks.empty()) return;
  size_t total = 0;
  for (const auto& chunk : out.body_chunks) total += chunk->size();
  out.body.reserve(total);
  for (const auto& chunk : out.body_chunks) out.body += *chunk;
}

// Fills the zero-copy handles of `out` from a cached object: flat entries
// travel as a single body_ref, composition plans as one ref per chunk.
void FillCachedEntity(ServeOutcome& out,
                      const std::shared_ptr<const cache::CachedObject>& obj,
                      bool include_body) {
  out.bytes = obj->entity_size();
  out.entity_headers = cache::EntityHeadersRef(obj);
  if (obj->is_plan()) {
    out.body_chunks = cache::BodyChunkRefs(obj);
  } else {
    out.body_ref = cache::BodyRef(obj);
  }
  if (include_body) CopySharedBody(out);
}

// Seeds the backoff jitter stream, so each server's schedule is
// deterministic.
constexpr uint64_t kBackoffSeed = 0x7365727665ULL;  // "serve"

}  // namespace

Status RetryOptions::Validate() const {
  if (max_attempts == 0) {
    return InvalidArgumentError("RetryOptions.max_attempts must be >= 1");
  }
  if (initial_backoff < 0 || max_backoff < 0) {
    return InvalidArgumentError("RetryOptions backoffs must be >= 0");
  }
  if (multiplier < 1.0) {
    return InvalidArgumentError("RetryOptions.multiplier must be >= 1");
  }
  if (jitter < 0.0 || jitter > 1.0) {
    return InvalidArgumentError("RetryOptions.jitter must be in [0, 1]");
  }
  return Status::Ok();
}

Status DynamicPageServer::Options::Validate() const {
  if (Status s = retry.Validate(); !s.ok()) return s;
  if (default_deadline < 0) {
    return InvalidArgumentError(
        "DynamicPageServer::Options.default_deadline must be >= 0");
  }
  return Status::Ok();
}

DynamicPageServer::DynamicPageServer(cache::ObjectCache* cache,
                                     pagegen::PageRenderer* renderer,
                                     Options options)
    : cache_(cache),
      renderer_(renderer),
      options_((ValidateOrDie(options, "DynamicPageServer::Options"),
                std::move(options))),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()),
      backoff_rng_(kBackoffSeed) {
  assert(cache_ && renderer_);
  const auto scope = metrics::Scope::Resolve(options_.metrics, "serve");
  cells_.Register(scope);
  coalesce_wait_ms_ = scope.GetHistogram(
      "nagano_serve_coalesce_wait_ms",
      "time a coalesced waiter spent blocked on the shared render");
}

void DynamicPageServer::AddStaticPage(std::string path, std::string body) {
  auto obj = std::make_shared<cache::CachedObject>();
  obj->body = std::move(body);
  obj->entity_headers =
      "Content-Length: " + std::to_string(obj->body.size()) + "\r\n";
  std::lock_guard<std::mutex> lock(static_mutex_);
  static_pages_[std::move(path)] = std::move(obj);
}

bool DynamicPageServer::ShouldCache(std::string_view path) const {
  for (const auto& prefix : options_.never_cache_prefixes) {
    if (path.starts_with(prefix)) return false;
  }
  return true;
}

void DynamicPageServer::SetAccessLog(AccessLog* log, const Clock* clock) {
  access_log_ = log;
  log_clock_ = clock ? clock : &RealClock::Instance();
}

ServeOutcome DynamicPageServer::Serve(std::string_view path, bool include_body,
                                      TimeNs deadline) {
  if (deadline == 0 && options_.default_deadline > 0) {
    deadline = clock_->Now() + options_.default_deadline;
  }
  ServeOutcome out = ServeInternal(path, include_body, deadline);
  if (access_log_ != nullptr) {
    access_log_->Append(log_clock_->Now(), path, out.cls, out.bytes,
                        out.cpu_cost);
  }
  return out;
}

Result<DynamicPageServer::Generated> DynamicPageServer::GenerateWithRetry(
    std::string_view path, TimeNs deadline, uint32_t* retries,
    const Flights::Ticket* flight) {
  const RetryOptions& retry = options_.retry;
  TimeNs backoff = retry.initial_backoff;
  Status last = InternalError("no attempt made");
  for (uint32_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (flight != nullptr) {
      auto stored = renderer_->RenderAndCache(path);
      if (stored.ok()) return Generated{std::move(stored).value(), {}};
      last = stored.status();
    } else {
      auto body = renderer_->RenderOnly(path);
      if (body.ok()) return Generated{nullptr, std::move(body).value()};
      last = body.status();
    }
    // kNotFound is a stable answer and anything non-transient is a bug or
    // a hard failure: retrying either just burns the deadline.
    if (!IsTransient(last)) return last;
    if (attempt + 1 >= retry.max_attempts) break;

    TimeNs pause = backoff;
    if (retry.jitter > 0.0 && pause > 0) {
      std::lock_guard<std::mutex> lock(backoff_mutex_);
      const double scale =
          1.0 - retry.jitter + 2.0 * retry.jitter * backoff_rng_.NextDouble();
      pause = static_cast<TimeNs>(static_cast<double>(pause) * scale);
    }
    // A coalesced flight's horizon may have grown since the last attempt
    // (new waiters joined) — refresh it before deciding whether to go on.
    // When the horizon has passed, every participant's deadline has
    // expired: the render is abandoned, not just this request's budget.
    const TimeNs effective =
        flight != nullptr ? flights_.Horizon(*flight) : deadline;
    if (effective != 0 && clock_->Now() + pause >= effective) {
      cells_.deadline_exceeded->Increment();
      if (flight != nullptr) cells_.renders_cancelled->Increment();
      break;
    }
    if (options_.sleep_on_backoff && pause > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pause));
    }
    backoff = std::min<TimeNs>(
        retry.max_backoff,
        static_cast<TimeNs>(static_cast<double>(backoff) * retry.multiplier));
    ++*retries;
    cells_.retries->Increment();
  }
  return last;
}

ServeOutcome DynamicPageServer::DegradeToStale(std::string_view path,
                                               bool include_body,
                                               Status error) {
  ServeOutcome out;
  out.error = error;
  if (auto stale = cache_->LookupStale(path)) {
    cells_.stale_serves->Increment();
    out.cls = ServeClass::kDegradedStale;
    out.cpu_cost = options_.costs.cached_dynamic;
    out.stale_age = std::max<TimeNs>(0, clock_->Now() - stale->stored_at);
    FillCachedEntity(out, stale, include_body);
    return out;
  }
  cells_.errors->Increment();
  out.cls = ServeClass::kError;
  out.cpu_cost = options_.costs.not_found;
  return out;
}

bool DynamicPageServer::TryAdmitRender() {
  const size_t limit = options_.max_concurrent_renders;
  if (limit == 0) {
    active_renders_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  size_t current = active_renders_.load(std::memory_order_relaxed);
  while (current < limit) {
    if (active_renders_.compare_exchange_weak(current, current + 1,
                                              std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void DynamicPageServer::ReleaseRender() {
  active_renders_.fetch_sub(1, std::memory_order_relaxed);
}

ServeOutcome DynamicPageServer::Shed(std::string_view path, bool include_body,
                                     Status why) {
  ServeOutcome out;
  // Stale-if-error beats rejection: a viewer with a slightly old page is
  // better off than a viewer with a 503 (the paper's availability-first
  // stance, extended to overload).
  if (auto stale = cache_->LookupStale(path)) {
    cells_.stale_serves->Increment();
    cells_.shed_softened->Increment();
    out.cls = ServeClass::kDegradedStale;
    out.cpu_cost = options_.costs.cached_dynamic;
    out.stale_age = std::max<TimeNs>(0, clock_->Now() - stale->stored_at);
    out.error = std::move(why);
    FillCachedEntity(out, stale, include_body);
    return out;
  }
  cells_.shed->Increment();
  out.cls = ServeClass::kRejected;
  out.cpu_cost = options_.costs.not_found;
  out.error = std::move(why);
  // Retry after roughly one render's worth of queue drain.
  out.retry_after = options_.costs.generate_dynamic;
  return out;
}

void DynamicPageServer::CountAdopted(const ServeOutcome& outcome) {
  switch (outcome.cls) {
    case ServeClass::kStatic:
      cells_.static_hits->Increment();
      break;
    case ServeClass::kCacheHit:
      cells_.cache_hits->Increment();
      break;
    case ServeClass::kCacheMissGenerated:
      cells_.cache_misses->Increment();
      break;
    case ServeClass::kDegradedStale:
      cells_.stale_serves->Increment();
      break;
    case ServeClass::kNotFound:
      cells_.not_found->Increment();
      break;
    case ServeClass::kError:
      cells_.errors->Increment();
      break;
    case ServeClass::kRejected:
      cells_.shed->Increment();
      break;
  }
}

ServeOutcome DynamicPageServer::RenderCoalesced(std::string_view path,
                                                bool include_body,
                                                TimeNs deadline) {
  // Our deadline extends an open flight's horizon; a new flight needs a
  // render slot.
  const Flights::Ticket flight = flights_.Join(
      std::string(path), deadline, [this] { return TryAdmitRender(); });
  if (!flight) {
    return Shed(path, include_body,
                ResourceExhaustedError("render queue full"));
  }
  if (flight.leader) return LeadRender(path, include_body, deadline, &flight);
  return AwaitFlight(flight, path, include_body, deadline);
}

ServeOutcome DynamicPageServer::LeadRender(std::string_view path,
                                           bool include_body, TimeNs deadline,
                                           const Flights::Ticket* flight) {
  ServeOutcome out;
  auto generated = GenerateWithRetry(path, deadline, &out.retries, flight);
  ReleaseRender();
  if (generated.ok()) {
    cells_.cache_misses->Increment();
    out.cls = ServeClass::kCacheMissGenerated;
    out.cpu_cost = options_.costs.generate_dynamic;
    if (flight == nullptr) {
      // A never-cache page is ours alone to give away — moving it is free,
      // so the body travels regardless of include_body.
      out.body = std::move(generated.value().body);
      out.bytes = out.body.size();
      return out;
    }
    // Serve by reference the snapshot RenderAndCache stored: the whole
    // fan-out — leader, waiters, and the HTTP write path — shares one
    // ref-counted copy (misses are zero-copy too), even if an invalidation
    // or eviction has already dropped the entry. A composed page arrives as
    // per-chunk refs, same as a cache hit.
    FillCachedEntity(out, generated.value().stored, /*include_body=*/false);
  } else if (generated.status().code() == ErrorCode::kNotFound) {
    cells_.not_found->Increment();
    out.cls = ServeClass::kNotFound;
    out.cpu_cost = options_.costs.not_found;
  } else {
    // Retries exhausted: elegant degradation — last-known-good copy over a
    // 500.
    const uint32_t retries = out.retries;
    out = DegradeToStale(path, include_body, generated.status());
    out.retries = retries;
  }
  if (flight != nullptr) {
    ServeOutcome shared = out;
    shared.body.clear();  // waiters copy from body_ref only if asked to
    flights_.Publish(std::string(path), *flight, std::move(shared));
    if (include_body && out.body.empty()) CopySharedBody(out);
  }
  return out;
}

ServeOutcome DynamicPageServer::AwaitFlight(const Flights::Ticket& flight,
                                            std::string_view path,
                                            bool include_body,
                                            TimeNs deadline) {
  cells_.coalesced->Increment();
  const TimeNs wait_start = clock_->Now();
  ServeOutcome out;
  if (auto shared = flights_.Await(flight, deadline, *clock_)) {
    out = *std::move(shared);  // body empty; the refs are shared
    CountAdopted(out);
    if (include_body) CopySharedBody(out);
  } else {
    cells_.coalesce_timeouts->Increment();
    out = DegradeToStale(
        path, include_body,
        UnavailableError("coalesced render missed the request deadline"));
  }
  out.coalesced = true;
  coalesce_wait_ms_->Observe(
      static_cast<double>(clock_->Now() - wait_start) / 1e6);
  return out;
}

ServeOutcome DynamicPageServer::ServeInternal(std::string_view path,
                                              bool include_body,
                                              TimeNs deadline) {
  ServeOutcome out;

  // 1. Static file system.
  {
    std::lock_guard<std::mutex> lock(static_mutex_);
    auto it = static_pages_.find(path);
    if (it != static_pages_.end()) {
      cells_.static_hits->Increment();
      out.cls = ServeClass::kStatic;
      out.cpu_cost = options_.costs.static_page;
      FillCachedEntity(out, it->second, include_body);
      return out;
    }
  }

  // 2. Dynamic page cache. A transient lookup error (the cache path is
  // down) is NOT a miss: fall through to generation, which may still work.
  const bool cacheable = ShouldCache(path);
  if (cacheable) {
    auto cached = cache_->TryLookup(path);
    if (cached.ok()) {
      cells_.cache_hits->Increment();
      out.cls = ServeClass::kCacheHit;
      out.cpu_cost = options_.costs.cached_dynamic;
      FillCachedEntity(out, cached.value(), include_body);
      return out;
    }
  }

  // 3. Generate (and usually cache) the page, retrying transient failures
  // within the deadline.
  if (renderer_->CanGenerate(path)) {
    // Deadline-aware early rejection: when admission control is on and the
    // budget is already spent, shed now instead of burning a render slot on
    // a response nobody can use.
    if (options_.max_concurrent_renders > 0 && deadline != 0 &&
        clock_->Now() >= deadline) {
      return Shed(path, include_body,
                  UnavailableError("deadline spent before render started"));
    }
    if (cacheable) return RenderCoalesced(path, include_body, deadline);
    // A personalized never-cache page: every request renders for itself
    // but still holds a slot.
    if (!TryAdmitRender()) {
      return Shed(path, include_body,
                  ResourceExhaustedError("render queue full"));
    }
    return LeadRender(path, include_body, deadline, /*flight=*/nullptr);
  }

  cells_.not_found->Increment();
  out.cls = ServeClass::kNotFound;
  out.cpu_cost = options_.costs.not_found;
  return out;
}

ServeStats DynamicPageServer::stats() const { return cells_.Snapshot(); }

HttpFrontEnd::HttpFrontEnd(DynamicPageServer* program, FrontEndOptions options)
    : program_(program),
      server_(std::make_unique<http::HttpServer>(
          [this](const http::HttpRequest& request) { return Handle(request); },
          std::move(options.http))) {
  assert(program_);
}

void HttpFrontEnd::EnableAdmin(metrics::MetricRegistry* registry,
                               HealthCheck health) {
  admin_registry_ = registry ? registry : &metrics::MetricRegistry::Default();
  health_ = std::move(health);
}

Status HttpFrontEnd::Start() { return server_->Start(); }
void HttpFrontEnd::Stop() { server_->Stop(); }

http::HttpResponse HttpFrontEnd::HandleAdmin(std::string_view path) {
  http::HttpResponse r;
  if (path == "/metrics") {
    r.status = 200;
    r.reason = "OK";
    r.headers["Content-Type"] = "text/plain; version=0.0.4; charset=utf-8";
    r.body = admin_registry_->RenderPrometheus();
    return r;
  }
  if (path == "/healthz") {
    HealthReport report = health_ ? health_() : HealthReport{};
    r.status = report.ok ? 200 : 503;
    r.reason = report.ok ? "OK" : "Service Unavailable";
    r.headers["Content-Type"] = "text/plain; charset=utf-8";
    if (report.ok) {
      r.body = "ok\n";
    } else {
      for (const std::string& problem : report.problems) {
        r.body += problem;
        r.body += '\n';
      }
      if (r.body.empty()) r.body = "unhealthy\n";
    }
    return r;
  }
  // /statusz
  r.status = 200;
  r.reason = "OK";
  r.headers["Content-Type"] = "text/plain; charset=utf-8";
  r.body = admin_registry_->RenderStatusz();
  return r;
}

http::HttpResponse HttpFrontEnd::Handle(const http::HttpRequest& request) {
  if (request.method != "GET" && request.method != "HEAD") {
    http::HttpResponse r;
    r.status = 405;
    r.reason = "Method Not Allowed";
    return r;
  }
  const std::string path = request.Path();  // Path() returns by value
  if (admin_registry_ != nullptr &&
      (path == "/metrics" || path == "/healthz" || path == "/statusz")) {
    http::HttpResponse r = HandleAdmin(path);
    if (request.method == "HEAD") r.body.clear();
    return r;
  }
  // include_body=false: cached sources answer with body_ref/entity_headers
  // aliased into the cached object (the zero-copy hit path); generated
  // pages arrive moved into outcome.body either way.
  ServeOutcome outcome =
      program_->Serve(request.Path(), /*include_body=*/false);
  const auto fill_entity = [&request, &outcome](http::HttpResponse& r) {
    if (request.method == "HEAD") return;  // keep Content-Length: 0
    if (outcome.body_ref != nullptr || !outcome.body_chunks.empty()) {
      r.body_ref = std::move(outcome.body_ref);
      r.body_chunks = std::move(outcome.body_chunks);
      r.header_ref = std::move(outcome.entity_headers);
    } else {
      r.body = std::move(outcome.body);
    }
  };
  switch (outcome.cls) {
    case ServeClass::kStatic:
    case ServeClass::kCacheHit:
    case ServeClass::kCacheMissGenerated: {
      auto r = http::HttpResponse::Ok(std::string());
      fill_entity(r);
      r.headers["X-Cache"] =
          outcome.cls == ServeClass::kCacheHit ? "HIT"
          : outcome.cls == ServeClass::kStatic ? "STATIC"
                                               : "MISS";
      if (outcome.coalesced) r.headers["X-Nagano-Coalesced"] = "1";
      return r;
    }
    case ServeClass::kDegradedStale: {
      // Last-known-good copy: still a 200 (the viewer gets a page, per the
      // paper's availability-first stance) but labeled so clients and tests
      // can tell.
      auto r = http::HttpResponse::Ok(std::string());
      fill_entity(r);
      r.headers["X-Cache"] = "STALE";
      char age[32];
      std::snprintf(age, sizeof(age), "%.3f",
                    static_cast<double>(outcome.stale_age) / 1e9);
      r.headers["X-Nagano-Stale"] = age;
      if (outcome.coalesced) r.headers["X-Nagano-Coalesced"] = "1";
      return r;
    }
    case ServeClass::kNotFound:
      return http::HttpResponse::NotFound();
    case ServeClass::kError:
      return http::HttpResponse::ServerError();
    case ServeClass::kRejected: {
      // Shed by admission control: tell the client when the render queue
      // should have drained enough to be worth another try.
      auto r = http::HttpResponse::ServiceUnavailable("overloaded\n");
      const TimeNs hint = std::max<TimeNs>(outcome.retry_after, 1);
      r.headers["Retry-After"] =
          std::to_string((hint + kSecond - 1) / kSecond);
      return r;
    }
  }
  return http::HttpResponse::ServerError("unreachable");
}

}  // namespace nagano::server
