// Unified metrics substrate — one process-wide registry of named,
// label-tagged counters, gauges, and histograms that every subsystem
// (cache, trigger monitor, renderer, serving path, HTTP server, fabric,
// ODG, database) registers into at construction.
//
// The paper's §5 evaluation was driven entirely by audited logs and live
// operator monitoring; this module is the reproduction's equivalent spine:
// the same cells back the per-subsystem stats() snapshots (generated from
// one declare-once list per subsystem, see the bottom of this file), the
// /metrics·/healthz·/statusz admin surface of the HTTP front end, and the
// figure benches.
//
// Concurrency contract:
//  * Counter is a sharded-atomic monotone counter — hot-path increments
//    touch one cache line per thread shard and never block, and reading is
//    a lock-free sum over the shards.
//  * Gauge is a single atomic double (Set/Add).
//  * Histogram wraps the common log-bucketed nagano::Histogram behind a
//    per-histogram mutex; Observe() happens on cold-ish paths (per batch /
//    per regenerated object), so the mutex is uncontended in practice.
//  * Registration is mutex-guarded get-or-create; the registry owns every
//    cell and never frees it, so subsystems hold raw pointers that stay
//    valid for the life of the process (Default() is deliberately leaked).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace nagano::metrics {

// Label set attached to a metric: sorted-on-registration key/value pairs.
// (name, labels) identifies a cell; two registrations with the same identity
// return the same cell.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing counter, sharded across cache lines so that
// concurrent writers (render workers, the epoll loop, serving threads) never
// contend. value() is a lock-free relaxed sum — monotone but not a linearized
// point snapshot, which is all monitoring needs.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    cells_[ShardIndex()].v.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t ShardIndex();
  std::array<Cell, kShards> cells_{};
};

// Instantaneous value (cache entries, bytes resident, graph nodes). Add()
// applies a delta so mutation paths can maintain the gauge incrementally.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop instead of atomic<double>::fetch_add for toolchain
    // portability.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Thread-safe distribution cell reusing the common log-bucketed Histogram
// as storage. snapshot() returns a plain Histogram copy, which is how the
// legacy TriggerStats view hands histograms back to callers unchanged.
class Histogram {
 public:
  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    h_.Add(value);
  }
  nagano::Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return h_;
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return h_.count();
  }
  // nagano::Histogram::Percentile, computed in place (no snapshot copy).
  double Percentile(double q) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return h_.Percentile(q);
  }

 private:
  mutable std::mutex mutex_;
  nagano::Histogram h_;
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

// One rendered metric point, as returned by MetricRegistry::Snapshot().
struct Sample {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  std::string help;
  double value = 0.0;           // counters and gauges
  nagano::Histogram histogram;  // histograms only
};

class MetricRegistry {
 public:
  MetricRegistry() = default;

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry every subsystem uses unless handed an
  // explicit one. Leaked on purpose: cells must outlive any static-duration
  // subsystem object.
  static MetricRegistry& Default();

  // Get-or-create. The same (name, labels) always returns the same cell, so
  // components sharing an identity share counts; per-instance uniqueness
  // comes from the instance label (see AutoInstance).
  Counter* GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {},
                          std::string_view help = {});

  // "cache" -> "cache1", "cache2", ... — unique within this registry.
  // Subsystems call this when constructed without an explicit instance
  // label, so two caches in one process never alias each other's cells.
  std::string AutoInstance(std::string_view prefix);

  // Point-in-time copy of every registered metric, registration-ordered.
  // Writers are never blocked: counter/gauge reads are lock-free and each
  // histogram is locked only long enough to copy its buckets.
  std::vector<Sample> Snapshot() const;

  // Prometheus text exposition format (version 0.0.4). Histograms render as
  // summaries: quantile-labelled series plus _sum and _count.
  std::string RenderPrometheus() const;

  // Human-readable per-subsystem snapshot for /statusz: metrics grouped by
  // the subsystem segment of their name, histograms as Summary() lines.
  std::string RenderStatusz() const;

  size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricType type = MetricType::kCounter;
    std::string help;
    // Exactly one of these is non-null, matching `type`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreateLocked(std::string_view name, Labels labels,
                            std::string_view help, MetricType type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // stable cell addresses
  // (name, type, sorted labels) identity -> entry, for O(log n) get-or-create.
  std::map<std::string, Entry*> index_;
  std::atomic<uint64_t> next_instance_{0};
};

// Scope every instrumented subsystem carries: which registry to register
// into (nullptr => Default()) and the value of the `site` label (empty =>
// auto-assigned via AutoInstance so instances never alias).
struct Options {
  MetricRegistry* registry = nullptr;
  std::string instance;
};

// Resolves Options to a concrete (registry, label set): picks Default() when
// no registry was given and auto-assigns the instance label when empty.
struct Scope {
  MetricRegistry* registry = nullptr;
  Labels labels;  // {{"site", <instance>}}

  static Scope Resolve(const Options& options, std::string_view auto_prefix);

  Counter* GetCounter(std::string_view name, std::string_view help = {}) const {
    return registry->GetCounter(name, labels, help);
  }
  Gauge* GetGauge(std::string_view name, std::string_view help = {}) const {
    return registry->GetGauge(name, labels, help);
  }
  Histogram* GetHistogram(std::string_view name,
                          std::string_view help = {}) const {
    return registry->GetHistogram(name, labels, help);
  }
  // Same scope with extra labels (e.g. per-complex fabric counters).
  Labels With(std::string_view key, std::string_view value) const;
};

// The value a *Stats snapshot copies out of each cell kind. Gauges a stats
// struct exposes are resident counts (graph nodes and edges).
inline uint64_t Read(const Counter& cell) { return cell.value(); }
inline size_t Read(const Gauge& cell) {
  return static_cast<size_t>(cell.value());
}
inline nagano::Histogram Read(const Histogram& cell) { return cell.snapshot(); }

template <class Cell>
using StatsValue = decltype(Read(std::declval<const Cell&>()));

}  // namespace nagano::metrics

// --- Declare-once metric lists ---------------------------------------------
//
// A subsystem whose stats() snapshot mirrors its registry cells declares
// each such metric once, as one entry of an X-macro list:
//
//   #define NAGANO_CACHE_METRICS(X)
//     X(Counter, hits, "nagano_cache_hits_total", "cache lookups served")
//     X(Counter, misses, "nagano_cache_misses_total", "cache lookups missed")
//     ...
//
// (each line of the real list ends in a backslash continuation).
//
// An entry is (cell kind: Counter | Gauge | Histogram, *Stats field,
// Prometheus name, help). The list generates the struct field, the cell
// pointer, its registration and its snapshot copy:
//
//   struct CacheStats { NAGANO_METRIC_FIELDS(NAGANO_CACHE_METRICS) ... };
//   NAGANO_METRIC_CELLS(Cells, NAGANO_CACHE_METRICS, CacheStats);  // class
//   Cells cells_;
//   cells_.Register(scope);                // constructor
//   CacheStats s = cells_.Snapshot();      // stats()
//
// Hot paths keep incrementing the sharded cell directly
// (cells_.hits->Increment()) with no name or map lookup. Names are spelled
// out rather than derived from the field because the two already differ
// (stale_serves is nagano_serve_stale_total) and the exposition is a
// contract with dashboards, pinned by tests/metrics_identity.golden.
// Per-label families and cells no stats struct exposes stay hand-written.
#define NAGANO_METRIC_FIELD_(kind, field, name, help) \
  ::nagano::metrics::StatsValue<::nagano::metrics::kind> field{};
#define NAGANO_METRIC_CELL_(kind, field, name, help) \
  ::nagano::metrics::kind* field = nullptr;
#define NAGANO_METRIC_REGISTER_(kind, field, name, help) \
  field = scope.Get##kind(name, help);
#define NAGANO_METRIC_COPY_(kind, field, name, help) \
  s.field = ::nagano::metrics::Read(*field);

// The *Stats fields, value-initialised (counters 0, histograms empty).
#define NAGANO_METRIC_FIELDS(LIST) LIST(NAGANO_METRIC_FIELD_)

// A struct `Name` holding one cell pointer per entry, with Register() to
// resolve them against a Scope and Snapshot() to copy them into a Stats.
#define NAGANO_METRIC_CELLS(Name, LIST, Stats)                 \
  struct Name {                                                \
    LIST(NAGANO_METRIC_CELL_)                                  \
    void Register(const ::nagano::metrics::Scope& scope) {     \
      LIST(NAGANO_METRIC_REGISTER_)                            \
    }                                                          \
    Stats Snapshot() const {                                   \
      Stats s;                                                 \
      LIST(NAGANO_METRIC_COPY_)                                \
      return s;                                                \
    }                                                          \
  }
