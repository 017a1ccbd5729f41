#include "trigger/trigger_monitor.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "common/logging.h"

namespace nagano::trigger {
namespace {

// Levels with at most this many affected objects render inline on the
// trigger thread instead of round-tripping through the pool: for tiny
// levels the submit/wake/barrier overhead exceeds the render work itself,
// which is what dragged the measured parallel "speedup" below 1.0 on small
// hosts.
constexpr size_t kInlineRenderCutover = 32;

}  // namespace

std::string_view CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kDupUpdateInPlace: return "dup-update-in-place";
    case CachePolicy::kDupInvalidate: return "dup-invalidate";
    case CachePolicy::kConservative1996: return "conservative-1996";
    case CachePolicy::kNone: return "none";
  }
  return "unknown";
}

std::map<std::string, std::vector<std::string>> OlympicConservativePrefixes() {
  // The 1996 site could not tell which pages a scoring change affected, so
  // it invalidated whole page families. Any results/medal/event change
  // clears every page that *might* show results; news clears the news
  // family and the home pages.
  const std::vector<std::string> results_family = {
      "/day/", "/event/", "/sport/", "/athlete/", "/country/",
      "/medals", "frag:"};
  return {
      {"results", results_family},
      {"events", results_family},
      {"medals", results_family},
      {"countries", results_family},
      {"athletes", {"/athlete/", "/country/", "/event/"}},
      {"news", {"/news", "/day/", "/country/", "frag:news:latest"}},
  };
}

Status TriggerOptions::Validate() const {
  if (worker_threads == 0) {
    return InvalidArgumentError("TriggerOptions.worker_threads must be >= 1");
  }
  if (batch_max == 0) {
    return InvalidArgumentError("TriggerOptions.batch_max must be >= 1");
  }
  if (obsolescence_threshold < 0.0) {
    return InvalidArgumentError(
        "TriggerOptions.obsolescence_threshold must be >= 0");
  }
  return Status::Ok();
}

TriggerMonitor::TriggerMonitor(db::Database* db,
                               odg::ObjectDependenceGraph* graph,
                               cache::ObjectCache* cache,
                               pagegen::PageRenderer* renderer,
                               ChangeMapper mapper, TriggerOptions options)
    : db_(db),
      graph_(graph),
      cache_(cache),
      renderer_(renderer),
      mapper_(std::move(mapper)),
      options_((ValidateOrDie(options, "TriggerOptions"), std::move(options))),
      clock_(options_.clock ? options_.clock : &RealClock::Instance()),
      faults_(options_.faults) {
  assert(db_ && graph_ && cache_ && renderer_ && mapper_);
  if (options_.worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }

  const auto scope = metrics::Scope::Resolve(options_.metrics, "trigger");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  cells_.Register(scope);
}

TriggerMonitor::~TriggerMonitor() { Stop(); }

void TriggerMonitor::Start() {
  if (running_.exchange(true)) return;
  // Changes already in the log predate this monitor (e.g. the site build);
  // gap-healing must only recover what was committed while running, or the
  // first notification would replay the whole build log.
  {
    std::lock_guard<std::mutex> lock(seq_mutex_);
    cursor_ = db_->AppliedCursor();
  }
  subscription_ = db_->Subscribe(this, db::kAllShards);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

void TriggerMonitor::EnqueueChange(const db::ChangeRecord& change) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++enqueued_;
  }
  if (!queue_.Push(change)) {
    // Raced with Stop(): the queue is closed and this change will never
    // be processed. Roll the counter back, or a concurrent Quiesce()
    // would wait forever on a change nobody is going to process.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --enqueued_;
    }
    quiesce_cv_.notify_all();
  }
}

void TriggerMonitor::OnChange(uint32_t shard, const db::ChangeRecord& change) {
  const auto fate = fault::Decide(faults_, "trigger", instance_, "notify");
  if (!fate.status.ok()) {
    // Lost notification. The commit is durable in the change log, so the
    // next notification (or an explicit CatchUp) heals the gap.
    cells_.notifications_dropped->Increment();
    return;
  }
  std::vector<db::ChangeRecord> to_enqueue;
  {
    std::lock_guard<std::mutex> lock(seq_mutex_);
    if (cursor_.positions.size() <= shard) {
      cursor_.positions.resize(shard + 1, 0);
    }
    const uint64_t pos = cursor_.positions[shard];
    if (change.shard_seqno > pos + 1) {
      // Earlier notifications from this shard were dropped; recover them
      // from the shard's log in order, ahead of this change. (A read
      // failure leaves the hole for CatchUp — or skips records already
      // truncated, exactly like the pre-cursor watermark did.)
      auto missed_or =
          db_->ReadShardChanges(shard, pos, change.shard_seqno - pos - 1);
      if (missed_or.ok()) {
        for (auto& missed : missed_or.value()) {
          if (missed.shard_seqno >= change.shard_seqno) break;
          to_enqueue.push_back(std::move(missed));
        }
        cells_.notifications_recovered->Increment(to_enqueue.size());
      }
    }
    if (change.shard_seqno > pos) cursor_.positions[shard] = change.shard_seqno;
  }
  to_enqueue.push_back(change);
  for (uint32_t i = 0; i < fate.duplicates; ++i) to_enqueue.push_back(change);
  if (fate.duplicates > 0) {
    cells_.duplicates_injected->Increment(fate.duplicates);
  }
  for (const auto& record : to_enqueue) EnqueueChange(record);
}

size_t TriggerMonitor::CatchUp() {
  if (!running_.load(std::memory_order_relaxed)) return 0;
  std::vector<db::ChangeRecord> to_enqueue;
  {
    std::lock_guard<std::mutex> lock(seq_mutex_);
    // Two passes at most: the second only runs when a shard's records were
    // truncated past the cursor — clamp to the oldest retained position
    // and take what survives.
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto batch_or = db_->ReadChanges(cursor_);
      if (!batch_or.ok()) break;
      db::ChangeBatch& batch = batch_or.value();
      for (auto& record : batch.records) {
        to_enqueue.push_back(std::move(record));
      }
      cursor_ = std::move(batch.next);
      if (batch.gap_shards.empty()) break;
      const db::ChangeCursor retained = db_->RetainedCursor();
      for (const uint32_t shard : batch.gap_shards) {
        if (cursor_.positions.size() <= shard) {
          cursor_.positions.resize(shard + 1, 0);
        }
        cursor_.positions[shard] =
            std::max(cursor_.positions[shard], retained.at(shard));
      }
    }
    if (!to_enqueue.empty()) {
      cells_.notifications_recovered->Increment(to_enqueue.size());
    }
  }
  std::sort(to_enqueue.begin(), to_enqueue.end(),
            [](const db::ChangeRecord& a, const db::ChangeRecord& b) {
              return a.seqno < b.seqno;
            });
  for (const auto& record : to_enqueue) EnqueueChange(record);
  return to_enqueue.size();
}

void TriggerMonitor::Stop() {
  if (!running_.exchange(false)) return;
  // Drain-then-join: Close() stops new pushes but the dispatcher keeps
  // popping until the queue is empty, so every change enqueued before Stop
  // still reaches the cache. The pool shuts down only after the dispatcher
  // has joined (it is the sole submitter), so no render job is dropped.
  db_->Unsubscribe(subscription_);
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (pool_) pool_->Shutdown();
}

void TriggerMonitor::Quiesce() {
  std::unique_lock<std::mutex> lock(mutex_);
  quiesce_cv_.wait(lock, [&] { return processed_ == enqueued_; });
}

uint64_t TriggerMonitor::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enqueued_ - processed_;
}

void TriggerMonitor::DispatchLoop() {
  for (;;) {
    auto first = queue_.Pop();
    if (!first) return;  // closed and drained
    std::vector<db::ChangeRecord> batch;
    batch.push_back(std::move(*first));
    while (batch.size() < options_.batch_max) {
      auto next = queue_.TryPop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    ProcessBatch(batch);
    cells_.batches->Increment();
    cells_.changes_processed->Increment(batch.size());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      processed_ += batch.size();
    }
    quiesce_cv_.notify_all();
  }
}

void TriggerMonitor::ProcessBatch(const std::vector<db::ChangeRecord>& batch) {
  if (options_.policy == CachePolicy::kNone) return;
  if (options_.policy == CachePolicy::kConservative1996) {
    ApplyConservative(batch);
    return;
  }

  // Map changes to underlying-data vertices. Unknown vertices (nothing
  // cached ever depended on them) simply have no out-edges.
  std::vector<odg::NodeId> changed;
  for (const auto& change : batch) {
    for (const std::string& node : mapper_(change)) {
      const odg::NodeId id =
          graph_->EnsureNode(node, odg::NodeKind::kUnderlyingData);
      changed.push_back(id);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  odg::DupOptions dup_options;
  dup_options.obsolescence_threshold = options_.obsolescence_threshold;
  dup_options.enable_simple_fast_path = options_.enable_simple_fast_path;
  const odg::DupResult dup =
      odg::DupEngine::ComputeAffected(*graph_, changed, dup_options);

  cells_.dup_runs->Increment();
  if (batch.size() > 1) cells_.changes_coalesced->Increment(batch.size() - 1);
  cells_.fanout->Observe(static_cast<double>(dup.affected.size()));

  // Oldest commit in the batch: the floor every per-object propagation
  // observation is stamped against.
  TimeNs oldest = batch.front().committed_at;
  for (const auto& c : batch) oldest = std::min(oldest, c.committed_at);

  const TimeNs apply_start = clock_->Now();
  if (options_.policy == CachePolicy::kDupUpdateInPlace) {
    ApplyUpdateInPlace(dup, oldest);
  } else {
    ApplyInvalidate(dup, oldest);
  }
  const double apply_ms = ToMillis(clock_->Now() - apply_start);
  cells_.batch_apply_ms->Observe(std::max(0.0, apply_ms));

  // Batch latency: oldest commit in the batch -> now.
  const double latency_ms = ToMillis(clock_->Now() - oldest);
  cells_.update_latency_ms->Observe(std::max(0.0, latency_ms));
}

void TriggerMonitor::ApplyUpdateInPlace(const odg::DupResult& dup,
                                        TimeNs oldest_commit) {
  // dup.affected carries a topological level per object: objects sharing a
  // level have no dependence path between them, so each level regenerates
  // in parallel; levels run in ascending order with a barrier between them
  // so a page always splices the already-refreshed fragments of earlier
  // levels. Partitioning is deterministic — within a level objects are
  // NodeId-sorted and carved into one contiguous chunk per worker — so a
  // feed day produces the same render schedule at any worker count.
  enum class Outcome { kUpdated, kSkipped, kFailed };
  std::atomic<uint64_t> updated{0}, failures{0}, skipped{0}, attempted{0};
  std::atomic<uint64_t> patched{0}, bytes_rerendered{0};

  // dup.obsolete is NodeId-sorted, so closure membership is a binary search.
  auto in_closure = [&](odg::NodeId id) {
    return std::binary_search(dup.obsolete.begin(), dup.obsolete.end(), id);
  };
  // A cached composition plan can absorb this update by fragment swap iff
  // every obsolete input feeding the page is a fragment the plan embeds.
  // Any obsolete direct data dependence (or a fragment the plan does not
  // carry — the layout changed since the plan was stored) forces a full
  // re-render.
  auto plan_patchable = [&](const odg::AffectedObject& obj,
                            const cache::CachedObject& cached) {
    for (const odg::Edge& e : graph_->InEdges(obj.id)) {
      if (!in_closure(e.to)) continue;
      if (graph_->kind(e.to) != odg::NodeKind::kBoth) return false;
      const std::string_view frag = graph_->name(e.to);
      const bool in_plan =
          std::any_of(cached.plan.begin(), cached.plan.end(),
                      [&](const cache::PlanChunk& chunk) {
                        return chunk.fragment == frag;
                      });
      if (!in_plan) return false;
    }
    return true;
  };

  auto regenerate = [&](const odg::AffectedObject& obj) -> Outcome {
    const std::string name(graph_->name(obj.id));
    // Only refresh objects that are actually cached somewhere; uncached
    // pages will be generated (with fresh data) on their next request.
    const bool in_fleet =
        options_.fleet != nullptr && options_.fleet->ContainsAnywhere(name);
    if (!cache_->Contains(name) && !in_fleet) return Outcome::kSkipped;

    // Fragment-first fast path: the level barrier already refreshed every
    // fragment this page embeds, so the plan just re-pins them and
    // recomputes its entity headers — no generator run, ~zero fanout bytes.
    if (const auto cached = cache_->Peek(name);
        cached != nullptr && cached->is_plan() &&
        plan_patchable(obj, *cached) && cache_->PatchPlan(name) != 0) {
      patched.fetch_add(1, std::memory_order_relaxed);
      // Fleet nodes hold flat copies; distribution materializes once.
      if (options_.fleet != nullptr) {
        if (const auto fresh = cache_->Peek(name)) {
          options_.fleet->PutAll(name, fresh->Materialize());
        }
      }
      cells_.propagation_latency_ms->Observe(
          std::max(0.0, ToMillis(clock_->Now() - oldest_commit)));
      return Outcome::kUpdated;
    }

    attempted.fetch_add(1, std::memory_order_relaxed);
    auto stored = renderer_->RenderAndCache(name);
    if (!stored.ok()) return Outcome::kFailed;
    bytes_rerendered.fetch_add(stored.value()->entity_size(),
                               std::memory_order_relaxed);
    // Fig. 6 distribution: push the fresh copy to every serving node.
    if (options_.fleet != nullptr) {
      options_.fleet->PutAll(name, stored.value()->Materialize());
    }
    // The fresh body is now what readers see: stamp commit -> cache-visible.
    cells_.propagation_latency_ms->Observe(
        std::max(0.0, ToMillis(clock_->Now() - oldest_commit)));
    return Outcome::kUpdated;
  };
  auto tally = [&](Outcome outcome) {
    if (outcome == Outcome::kUpdated) {
      updated.fetch_add(1, std::memory_order_relaxed);
    } else if (outcome == Outcome::kFailed) {
      failures.fetch_add(1, std::memory_order_relaxed);
    } else {
      skipped.fetch_add(1, std::memory_order_relaxed);
    }
  };

  uint64_t jobs = 0;
  if (pool_ == nullptr) {
    for (const auto& obj : dup.affected) tally(regenerate(obj));
  } else {
    std::vector<std::vector<const odg::AffectedObject*>> levels(dup.num_levels);
    for (const auto& obj : dup.affected) levels[obj.level].push_back(&obj);
    // Clamp parallelism to the machine: a pool wider than the core count
    // cannot render faster, it only shrinks chunks and adds dispatch churn.
    const size_t hw =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    const size_t workers = std::min(pool_->num_threads(), hw);
    for (auto& level : levels) {
      std::sort(level.begin(), level.end(),
                [](const odg::AffectedObject* a, const odg::AffectedObject* b) {
                  return a->id < b->id;
                });
      if (workers <= 1 || level.size() <= kInlineRenderCutover) {
        // Not worth a pool round-trip.
        for (const auto* obj : level) tally(regenerate(*obj));
        continue;
      }
      const size_t chunk = (level.size() + workers - 1) / workers;
      for (size_t begin = 0; begin < level.size(); begin += chunk) {
        const size_t end = std::min(begin + chunk, level.size());
        auto job = [&, begin, end, &level_ref = level] {
          for (size_t i = begin; i < end; ++i) tally(regenerate(*level_ref[i]));
        };
        ++jobs;
        if (!pool_->Submit(job)) job();  // pool shut down: run inline
      }
      pool_->Wait();  // barrier: next level may embed this level's output
    }
  }

  cells_.objects_updated->Increment(updated.load());
  cells_.render_failures->Increment(failures.load());
  cells_.objects_skipped->Increment(skipped.load());
  cells_.renders_attempted->Increment(attempted.load());
  cells_.render_jobs->Increment(jobs);
  cells_.plans_patched->Increment(patched.load());
  cells_.rerendered_bytes->Increment(bytes_rerendered.load());
  cells_.fanout_bytes->Observe(static_cast<double>(bytes_rerendered.load()));
  cells_.batch_levels->Observe(static_cast<double>(dup.num_levels));
}

void TriggerMonitor::ApplyInvalidate(const odg::DupResult& dup,
                                     TimeNs oldest_commit) {
  uint64_t invalidated = 0;
  for (const auto& obj : dup.affected) {
    const std::string name(graph_->name(obj.id));
    if (cache_->Invalidate(name)) {
      ++invalidated;
      // Staleness window closed by removal rather than refresh.
      cells_.propagation_latency_ms->Observe(
          std::max(0.0, ToMillis(clock_->Now() - oldest_commit)));
    }
    if (options_.fleet != nullptr) options_.fleet->InvalidateAll(name);
  }
  cells_.objects_invalidated->Increment(invalidated);
}

void TriggerMonitor::ApplyConservative(
    const std::vector<db::ChangeRecord>& batch) {
  uint64_t invalidated = 0;
  std::vector<std::string> prefixes;
  for (const auto& change : batch) {
    if (options_.conservative_prefixes.empty()) {
      prefixes.push_back("");  // invalidate everything
      break;
    }
    auto it = options_.conservative_prefixes.find(change.table);
    if (it == options_.conservative_prefixes.end()) continue;
    for (const auto& p : it->second) prefixes.push_back(p);
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  for (const auto& p : prefixes) {
    invalidated += cache_->InvalidatePrefix(p);
    if (options_.fleet != nullptr) options_.fleet->InvalidatePrefixAll(p);
  }
  cells_.objects_invalidated->Increment(invalidated);
  cells_.fanout->Observe(static_cast<double>(invalidated));
}

TriggerStats TriggerMonitor::stats() const { return cells_.Snapshot(); }

}  // namespace nagano::trigger
