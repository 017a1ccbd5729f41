// The trigger monitor (paper §2, Fig. 6).
//
// "A component known as the trigger monitor is responsible for monitoring
// databases and notifying the cache when changes to the databases occur."
//
// This implementation subscribes to the database change log, coalesces
// committed changes into batches, maps each change to the underlying-data
// ODG vertices it touched (via a pluggable ChangeMapper — the Olympic
// mapper lives in pagegen/olympic.h), runs DUP to find the affected cached
// objects, and applies a consistency policy:
//
//   kDupUpdateInPlace  — 1998 Nagano: regenerate each affected object and
//                        store it back, so hot pages never miss;
//   kDupInvalidate     — precise invalidation: drop exactly the affected set;
//   kConservative1996  — 1996 Atlanta baseline: invalidate configured page
//                        prefixes per changed table (a large superset);
//   kNone              — no maintenance (staleness baseline).
//
// All regeneration happens on the monitor's own threads — the paper ran
// updates "on different processors from the ones serving pages" so update
// bursts would not hurt response times.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/queue.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "odg/dup.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"

namespace nagano::trigger {

enum class CachePolicy {
  kDupUpdateInPlace,
  kDupInvalidate,
  kConservative1996,
  kNone,
};

std::string_view CachePolicyName(CachePolicy policy);

struct TriggerOptions : OptionsBase {
  CachePolicy policy = CachePolicy::kDupUpdateInPlace;

  // Render workers for the update-in-place policy. 1 = fully sequential.
  // With more, the affected set is partitioned by DUP topological level:
  // objects sharing a level are mutually independent and regenerate in
  // parallel (one contiguous, NodeId-ordered chunk per worker); levels run
  // in ascending order with a barrier between them, so fragments are always
  // fresh before the pages embedding them re-render. Small levels render
  // inline (kInlineRenderCutover in the .cpp), and effective parallelism is
  // clamped to the machine's hardware concurrency.
  size_t worker_threads = 1;

  // Coalesce up to this many queued change records into one DUP run.
  size_t batch_max = 64;

  // Passed through to the DUP engine.
  double obsolescence_threshold = 0.0;
  bool enable_simple_fast_path = true;

  // kConservative1996: table name -> cache-key prefixes to bulk-invalidate
  // when any row of that table changes. Empty map = invalidate everything.
  std::map<std::string, std::vector<std::string>> conservative_prefixes;

  // Clock for batching latencies and propagation stamps. nullptr =
  // RealClock.
  const Clock* clock = nullptr;

  // Consulted per commit notification ({"trigger", <instance>, "notify"}):
  // kError drops the notification (healed from the change log by the next
  // one, or by CatchUp()); kDuplicate delivers it again.
  fault::FaultInjector* faults = nullptr;

  // Registry + instance label for the nagano_trigger_* metrics.
  metrics::Options metrics;

  Status Validate() const;
};

// Default 1996-style mapping for the Olympic site: any scoring change blows
// away every results-bearing page family.
std::map<std::string, std::vector<std::string>> OlympicConservativePrefixes();

// Every TriggerStats metric, declared once (see common/metrics.h).
//  * rerendered_bytes: a patched plan contributes nothing, only the
//    re-rendered fragment's bytes count, so this is the fragment-vs-whole-
//    page fanout cost the update bench gates on.
//  * propagation_latency_ms is finer-grained than update_latency_ms: each
//    object is stamped the moment its fresh body (or its removal) becomes
//    visible to readers, not at batch end — the paper's <= 60 s freshness
//    bound made measurable.
#define NAGANO_TRIGGER_METRICS(X)                                             \
  X(Counter, changes_processed, "nagano_trigger_changes_processed_total",     \
    "database changes applied")                                               \
  X(Counter, batches, "nagano_trigger_batches_total", "coalesced DUP batches") \
  X(Counter, dup_runs, "nagano_trigger_dup_runs_total", "DUP traversals")     \
  X(Counter, objects_updated, "nagano_trigger_objects_updated_total",         \
    "objects regenerated in place")                                           \
  X(Counter, objects_invalidated, "nagano_trigger_objects_invalidated_total", \
    "objects dropped from the cache")                                         \
  X(Counter, objects_skipped, "nagano_trigger_objects_skipped_total",         \
    "affected but uncached objects left to on-demand render")                 \
  X(Counter, render_failures, "nagano_trigger_render_failures_total",         \
    "regenerations that failed")                                              \
  X(Counter, plans_patched, "nagano_trigger_plans_patched_total",             \
    "composition plans refreshed by fragment swap (no page re-render)")       \
  X(Counter, rerendered_bytes, "nagano_dup_rerendered_bytes_total",           \
    "bytes produced by update-in-place re-renders")                           \
  /* fault-path counters */                                                   \
  X(Counter, notifications_dropped,                                           \
    "nagano_trigger_notifications_dropped_total",                             \
    "commit notifications lost to injected faults")                           \
  X(Counter, notifications_recovered,                                         \
    "nagano_trigger_notifications_recovered_total",                           \
    "dropped changes healed from the change log")                             \
  X(Counter, duplicates_injected, "nagano_trigger_duplicates_injected_total", \
    "injected duplicate notification deliveries")                             \
  /* parallel-pipeline stage counters */                                      \
  X(Counter, changes_coalesced, "nagano_trigger_changes_coalesced_total",     \
    "changes that rode along in a multi-change batch")                        \
  X(Counter, render_jobs, "nagano_trigger_render_jobs_total",                 \
    "render jobs dispatched to the pool")                                     \
  X(Counter, renders_attempted, "nagano_trigger_renders_attempted_total",     \
    "regenerations tried")                                                    \
  X(Histogram, update_latency_ms, "nagano_trigger_update_latency_ms",         \
    "commit to cache-consistent latency per batch (ms)")                      \
  X(Histogram, fanout, "nagano_trigger_fanout", "affected objects per batch") \
  X(Histogram, fanout_bytes, "nagano_dup_fanout_bytes",                       \
    "bytes re-rendered per update batch")                                     \
  X(Histogram, batch_apply_ms, "nagano_trigger_batch_apply_ms",               \
    "regenerate + distribute wall time per batch (ms)")                       \
  X(Histogram, batch_levels, "nagano_trigger_batch_levels",                   \
    "topological stages per update-in-place batch")                           \
  X(Histogram, propagation_latency_ms, "nagano_dup_propagation_latency_ms",   \
    "commit to cache-visible latency per affected object (ms)")

struct TriggerStats {
  NAGANO_METRIC_FIELDS(NAGANO_TRIGGER_METRICS)
};

class TriggerMonitor : public db::ChangeSink {
 public:
  // Names the underlying-data vertices a change touched.
  using ChangeMapper =
      std::function<std::vector<std::string>(const db::ChangeRecord&)>;

  TriggerMonitor(db::Database* db, odg::ObjectDependenceGraph* graph,
                 cache::ObjectCache* cache, pagegen::PageRenderer* renderer,
                 ChangeMapper mapper, TriggerOptions options = {});
  ~TriggerMonitor();

  TriggerMonitor(const TriggerMonitor&) = delete;
  TriggerMonitor& operator=(const TriggerMonitor&) = delete;

  // Subscribes to the database and starts the dispatcher thread.
  void Start();

  // Unsubscribes, drains the queue, joins threads. Idempotent.
  void Stop();

  // Blocks until every change committed before the call has been fully
  // processed (its cache effects applied). The consistency property tests
  // are phrased against this barrier.
  void Quiesce();

  // True between Start() and Stop() — the /healthz "trigger running" probe.
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Changes enqueued but not yet applied to the cache. A bounded backlog is
  // the paper's ≤60 s freshness guarantee in queue form.
  uint64_t backlog() const;

  // Re-reads the change feed past the per-shard cursor and enqueues
  // anything missed — the recovery half of lossy notifications. The same
  // healing runs implicitly whenever a later notification arrives; CatchUp
  // forces it when no further change is coming. Returns changes recovered.
  size_t CatchUp();

  TriggerStats stats() const;

  // The q-quantile of propagation_latency_ms (0 before any sample), read in
  // place: /healthz asks on every probe, and stats() would copy every
  // trigger histogram to answer.
  double PropagationLatencyMs(double q) const {
    return cells_.propagation_latency_ms->Percentile(q);
  }

 private:
  // db::ChangeSink: fires synchronously on every commit (subscribed with
  // kAllShards — the monitor maintains the whole cache; per-shard
  // subscriptions are for consumers owning a slice).
  void OnChange(uint32_t shard, const db::ChangeRecord& change) override;
  // Pushes one record (counted for Quiesce), rolling back if the queue
  // already closed. Never called with seq_mutex_ held.
  void EnqueueChange(const db::ChangeRecord& change);
  void DispatchLoop();
  void ProcessBatch(const std::vector<db::ChangeRecord>& batch);
  // `oldest_commit` is the earliest committed_at in the batch; the apply
  // paths stamp each object's commit -> cache-visible propagation latency
  // against it.
  void ApplyUpdateInPlace(const odg::DupResult& dup, TimeNs oldest_commit);
  void ApplyInvalidate(const odg::DupResult& dup, TimeNs oldest_commit);
  void ApplyConservative(const std::vector<db::ChangeRecord>& batch);

  db::Database* db_;
  odg::ObjectDependenceGraph* graph_;
  cache::ObjectCache* cache_;
  pagegen::PageRenderer* renderer_;
  ChangeMapper mapper_;
  TriggerOptions options_;
  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::string instance_;  // fault-injection site name (== metrics label)

  // Per-shard positions of the highest change ever enqueued; the
  // gap-healing watermark. A dropped notification shows up as a hole in
  // one shard's dense numbering, healed from that shard's log alone.
  std::mutex seq_mutex_;
  db::ChangeCursor cursor_;

  BlockingQueue<db::ChangeRecord> queue_;
  std::unique_ptr<ThreadPool> pool_;  // only when worker_threads > 1
  std::thread dispatcher_;
  uint64_t subscription_ = 0;
  std::atomic<bool> running_{false};

  mutable std::mutex mutex_;  // guards the quiesce counters
  std::condition_variable quiesce_cv_;
  uint64_t enqueued_ = 0;
  uint64_t processed_ = 0;

  NAGANO_METRIC_CELLS(Cells, NAGANO_TRIGGER_METRICS, TriggerStats);
  Cells cells_;
};

}  // namespace nagano::trigger
