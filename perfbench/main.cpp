// nagano_bench — the repository's end-to-end benchmark.
//
//   nagano_bench --workload <hot_read|live_games|cold_tail> --seed <n>
//                --seconds <s> --trace <0|1> --work-dir <dir>
//                [--git-sha <sha>] [--span-file <path>]
//
// Builds the live topology (topology.h), drives it with the open-loop load
// generator (loadgen.h) and the seeded scoring feed, checks every output,
// and prints each metric by name with its unit, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans recorded around the benchmark's calls into each module and
// prints the per-layer metrics. See README.md for what each workload is for.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "http/client.h"
#include "inputs.h"
#include "loadgen.h"
#include "reference.h"
#include "samples.h"
#include "topology.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int64_t kSec = 1'000'000'000;
constexpr size_t kConnections = 4;      // keep-alive load connections
constexpr size_t kSetupRepeats = 5;     // setup_s is the median of these
constexpr double kWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 0.5;       // fixed-rate phase window
constexpr double kSaturateSeconds = 0.3;     // one closed-loop capacity step
constexpr size_t kSaturatePairs = 12;        // capacity steps on each path
constexpr size_t kReferenceBodyBytes = 1024;  // the reference chain's answer
constexpr size_t kKeepBodyEvery = 97;        // fixed-rate bodies kept: slot % 97 == 0
// A kept body may show any database state current on the master up to this
// long before it was read: a wide bound on replication plus trigger lag,
// which the freshness spans put at milliseconds.
constexpr int64_t kBodyStalenessNs = 5 * kSec;
constexpr double kProbeInterval = 0.004;     // traced-run probe cadence, s
constexpr size_t kVerifyPages = 200;         // post-run byte-for-byte checks

// --- workloads -----------------------------------------------------------

struct Workload {
  const char* name;
  const char* why;
  double read_rate;          // fixed open-loop read rate, requests/s
  double feed_rate;          // commits/s during the read phases (0 = none)
  size_t cache_capacity;     // bytes per backend cache (0 = unbounded)
  workload::SamplerOptions sampler;
};

workload::SamplerOptions FlatSampler() {
  workload::SamplerOptions s;
  // Archive-heavy, flatter popularity: the long tail of athlete, country
  // and past-day pages dominates, so most reads fall outside the cache.
  s.day_home = 0.05;
  s.event_pages = 0.25;
  s.athlete_pages = 0.35;
  s.sport_pages = 0.05;
  s.country_pages = 0.15;
  s.medals_page = 0.02;
  s.news_pages = 0.10;
  s.schedule_pages = 0.02;
  s.welcome_page = 0.01;
  s.zipf_skew = 0.4;
  s.today_bias = 0.1;
  return s;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"hot_read",
       "read-only Zipf traffic over fully prefetched caches: every read is a "
       "hit, so request cost is parse, proxy hop and writev",
       1500.0, 0.0, 0, workload::SamplerOptions{}},
      {"live_games",
       "the same reads plus the scoring feed committed into the WAL-backed "
       "master and replicated to both backends, whose triggers run DUP",
       1500.0, 50.0, 0, workload::SamplerOptions{}},
      {"cold_tail",
       "flat archive-heavy reads over caches a fraction of the site's bytes: "
       "reads miss, render from the replica and evict",
       1500.0, 0.0, 160u << 10, FlatSampler()},
  };
  return kWorkloads;
}

// --- spans ----------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t trace;   // shared by the spans of one probe / commit / request
  int64_t start;
  int64_t end;
  int64_t dur() const { return end - start; }
};

// Spans are kept in memory per producing thread and merged at the end.
struct SpanLog {
  bool on = false;
  std::vector<Span> spans;
  void Add(const char* name, uint64_t trace, int64_t start, int64_t end) {
    if (on) spans.push_back({name, trace, start, end});
  }
};

Samples Durations(const std::vector<Span>& spans, std::string_view name) {
  Samples s;
  for (const Span& sp : spans) {
    if (name == sp.name) s.Add(sp.dur());
  }
  return s;
}

// For spans a and b of the same trace: dur(a) - dur(b).
Samples PairedDifference(const std::vector<Span>& spans, std::string_view a,
                         std::string_view b) {
  std::map<uint64_t, int64_t> da, db;
  for (const Span& sp : spans) {
    if (a == sp.name) da[sp.trace] = sp.dur();
    if (b == sp.name) db[sp.trace] = sp.dur();
  }
  Samples s;
  for (const auto& [trace, d] : da) {
    auto it = db.find(trace);
    if (it != db.end()) s.Add(d - it->second);
  }
  return s;
}

// --- the scoring feed and freshness tracking ------------------------------

struct PendingFresh {
  uint64_t trace = 0;
  int64_t due = 0;
  int64_t committed = 0;
  uint64_t seqno = 0;
  std::string page;
  std::string row_prefix;  // "<tr><td>RANK</td><td><a href="/athlete/ID">"
  std::string score_cell;  // "<td>SCORE</td></tr>"
  int64_t replicated = 0;
};

struct CommitTiming {
  int64_t due = 0;
  int64_t start = 0;
  int64_t end = 0;
  bool ok = true;
};

// Written by the feed thread, read by the pump thread.
struct FreshQueue {
  std::mutex mutex;
  std::condition_variable committed;  // the master has something to pump
  std::vector<PendingFresh> incoming;
  uint64_t commits = 0;
};

std::string FormatScore(double score) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", score);
  return buf;
}

// The feed writer: commits updates[cursor..] into the master at a fixed
// rate until `stop` or the stream runs out.
class FeedWriter {
 public:
  FeedWriter(Topology* topo, const std::vector<workload::FeedUpdate>* updates,
             FreshQueue* fresh)
      : topo_(topo), updates_(updates), fresh_(fresh),
        applier_(&topo->master(), workload::FeedOptions{}, 0) {}

  void Start(double rate, bool trace) {
    stop_.store(false);
    span_log_.on = trace;
    thread_ = std::thread([this, rate] { Loop(rate); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  ~FeedWriter() { Stop(); }

  // Commits completed since the last TakeTimings().
  std::vector<CommitTiming> TakeTimings() {
    std::vector<CommitTiming> out;
    out.swap(timings_);
    return out;
  }
  std::vector<Span> TakeSpans() {
    std::vector<Span> out;
    out.swap(span_log_.spans);
    return out;
  }
  // Commits applied so far (any thread).
  uint64_t completed() const { return completed_.load(); }

 private:
  void Loop(double rate) {
    const int64_t start = NowNs();
    uint64_t k = 0;
    while (!stop_.load() && cursor_ < updates_->size()) {
      const int64_t due = start + static_cast<int64_t>(k * 1e9 / rate);
      ++k;
      timespec ts{due / kSec, due % kSec};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
      }
      if (stop_.load()) break;
      const workload::FeedUpdate& u = (*updates_)[cursor_++];
      CommitTiming t;
      t.due = due;
      t.start = NowNs();
      t.ok = applier_.Apply(u).ok();
      t.end = NowNs();
      const uint64_t seqno = topo_->master().LastSeqno();
      span_log_.Add("db.commit", cursor_, t.start, t.end);
      timings_.push_back(t);
      completed_.fetch_add(1);
      if (t.ok && u.kind == workload::FeedUpdate::Kind::kResult) {
        PendingFresh p;
        p.trace = cursor_;
        p.due = due;
        p.committed = t.end;
        p.seqno = seqno;
        p.page = pagegen::OlympicSite::EventPage(u.event_id);
        p.row_prefix = "<tr><td>" + std::to_string(u.rank) +
                       "</td><td><a href=\"/athlete/" +
                       std::to_string(u.athlete_id) + "\">";
        p.score_cell = "<td>" + FormatScore(u.score) + "</td></tr>";
        std::lock_guard<std::mutex> lock(fresh_->mutex);
        fresh_->incoming.push_back(std::move(p));
      }
      {
        std::lock_guard<std::mutex> lock(fresh_->mutex);
        ++fresh_->commits;
      }
      fresh_->committed.notify_one();
    }
  }

  Topology* topo_;
  const std::vector<workload::FeedUpdate>* updates_;
  FreshQueue* fresh_;
  workload::ResultFeed applier_;  // Apply() only; its schedule is unused
  size_t cursor_ = 0;
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> stop_{false};
  std::vector<CommitTiming> timings_;
  SpanLog span_log_;
  std::thread thread_;  // last: joins before the state above goes
};

// The replication pump: pulls the master's change log into every replica,
// then checks pending result commits for visibility on every backend.
class Pump {
 public:
  Pump(Topology* topo, FreshQueue* fresh) : topo_(topo), fresh_(fresh) {}

  void Start(bool trace) {
    span_log_.on = trace;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    fresh_->committed.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  ~Pump() { Stop(); }

  // Window control: only records of the current window are kept.
  void ResetWindow() {
    std::lock_guard<std::mutex> lock(mutex_);
    fresh_done_.clear();
    records_ = 0;
    productive_pumps_ = 0;
    backlog_max_ = 0;
    span_log_.spans.clear();
  }
  struct Window {
    std::vector<int64_t> fresh;  // ns from due to visible on every backend
    uint64_t records = 0;
    uint64_t productive_pumps = 0;
    uint64_t backlog_max = 0;
    std::vector<Span> spans;
  };
  Window TakeWindow() {
    std::lock_guard<std::mutex> lock(mutex_);
    Window w;
    w.fresh.swap(fresh_done_);
    w.records = records_;
    w.productive_pumps = productive_pumps_;
    w.backlog_max = backlog_max_;
    w.spans.swap(span_log_.spans);
    records_ = productive_pumps_ = backlog_max_ = 0;
    return w;
  }
  size_t pending() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::lock_guard<std::mutex> lock2(fresh_->mutex);
    return pending_.size() + fresh_->incoming.size();
  }

 private:
  bool VisibleOn(size_t b, const PendingFresh& p) {
    // The feed runs only on workloads whose caches hold every page.
    auto object = topo_->site(b).cache().Peek(p.page);
    if (object == nullptr) return false;
    const std::string body = object->Materialize();
    const size_t row = body.find(p.row_prefix);
    if (row == std::string::npos) return false;
    const size_t row_end = body.find("</tr>", row);
    if (row_end == std::string::npos) return false;
    const size_t cell = body.find(p.score_cell, row);
    return cell != std::string::npos && cell + p.score_cell.size() == row_end + 5;
  }

  void Loop() {
    const size_t backends = topo_->backend_count();
    while (!stop_.load()) {
      const int64_t t0 = NowNs();
      const size_t applied = topo_->replication().Pump();
      const int64_t t1 = NowNs();
      uint64_t backlog = 0;
      for (size_t b = 0; b < backends; ++b) {
        backlog = std::max(backlog, topo_->site(b).trigger_monitor().backlog());
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        backlog_max_ = std::max(backlog_max_, backlog);
        if (applied > 0) {
          records_ += applied;
          ++productive_pumps_;
          span_log_.Add("replication.pump", productive_pumps_, t0, t1);
        }
        {
          std::lock_guard<std::mutex> lock2(fresh_->mutex);
          for (auto& p : fresh_->incoming) pending_.push_back(std::move(p));
          fresh_->incoming.clear();
        }
        const int64_t now = NowNs();
        for (auto it = pending_.begin(); it != pending_.end();) {
          if (it->replicated == 0) {
            bool all = true;
            for (size_t b = 0; b < backends && all; ++b) {
              all = topo_->site(b).db().LastSeqno() >= it->seqno;
            }
            if (all) it->replicated = now;
          }
          bool visible = it->replicated != 0;
          for (size_t b = 0; b < backends && visible; ++b) {
            visible = VisibleOn(b, *it);
          }
          if (visible) {
            const int64_t seen = NowNs();
            fresh_done_.push_back(seen - it->due);
            span_log_.Add("fresh.replicate", it->trace, it->committed,
                          it->replicated);
            span_log_.Add("fresh.apply", it->trace, it->replicated, seen);
            it = pending_.erase(it);
          } else {
            ++it;
          }
        }
        if (applied > 0) continue;
        if (!pending_.empty()) {
          // Waiting on the trigger monitors: poll visibility every 250 us,
          // a fine grain against freshness of about a millisecond, but not
          // so fine that the poller itself crowds the reactors off the
          // host's cores.
          std::this_thread::sleep_for(std::chrono::microseconds(250));
          continue;
        }
      }
      // Idle: sleep until the feed commits (or a stop / slow poll).
      std::unique_lock<std::mutex> lock(fresh_->mutex);
      fresh_->committed.wait_for(lock, std::chrono::milliseconds(2), [&] {
        return fresh_->commits != seen_commits_ || stop_.load();
      });
      seen_commits_ = fresh_->commits;
    }
  }

  Topology* topo_;
  FreshQueue* fresh_;
  std::mutex mutex_;  // guards everything below
  std::deque<PendingFresh> pending_;
  std::vector<int64_t> fresh_done_;
  uint64_t records_ = 0;
  uint64_t productive_pumps_ = 0;
  uint64_t backlog_max_ = 0;
  uint64_t seen_commits_ = 0;  // pump thread only
  SpanLog span_log_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- counters -------------------------------------------------------------

struct Counters {
  dispatch::DispatcherStats dispatch;
  std::vector<uint64_t> backend_requests;
  std::vector<nagano::http::ServerStats> http;
  std::vector<server::ServeStats> serve;
  std::vector<nagano::cache::CacheStats> cache;
  std::vector<nagano::trigger::TriggerStats> trigger;
  wal::WalStats wal;
  uint64_t master_seqno = 0;
};

Counters Snapshot(Topology& t) {
  Counters c;
  c.dispatch = t.dispatcher().stats();
  for (const auto& b : t.dispatcher().snapshots()) {
    c.backend_requests.push_back(b.requests);
  }
  for (size_t i = 0; i < t.backend_count(); ++i) {
    c.http.push_back(t.front(i).http_stats());
    c.serve.push_back(t.site(i).page_server().stats());
    c.cache.push_back(t.site(i).cache().stats());
    c.trigger.push_back(t.site(i).trigger_monitor().stats());
  }
  c.wal = t.master_wal().stats();
  c.master_seqno = t.master().LastSeqno();
  return c;
}

template <typename F>
uint64_t SumDelta(const Counters& a, const Counters& b, F field) {
  uint64_t total = 0;
  for (size_t i = 0; i < a.serve.size(); ++i) total += field(b, i) - field(a, i);
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count / basis, printed beside the value
  bool in_json;      // false: printed for the reader only (see README.md)
};

// Figures too noisy on a shared host to gate a change on: printed on their
// own `report` line, left out of the JSON result (README.md says why).
constexpr bool kReportOnly = false;

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "", bool in_json = true) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), in_json});
  }
  void AddQuantile(const std::string& name, const Samples& s, double q,
                   double scale, const std::string& unit, bool in_json = true) {
    Add(name, static_cast<double>(s.QuantileNs(q)) / scale, unit,
        "n=" + std::to_string(s.count()), in_json);
  }
  void Context(std::string key, std::string value) {
    context_.emplace_back(std::move(key), std::move(value));
  }
  void PrintHuman() const {
    for (const auto& [k, v] : context_) std::printf("# %s: %s\n", k.c_str(), v.c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-7s %-34s %14.6f %-6s %s\n", m.in_json ? "metric" : "report",
                  m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
    }
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      char num[64];
      std::snprintf(num, sizeof num, "%.9g", std::isfinite(m.value) ? m.value : 0.0);
      out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

// CPU time of the calling thread (the load generator's).
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

// --- the run --------------------------------------------------------------

// A kept body and the oracle states that may reproduce it: the database as
// it was after records[lo] .. records[hi] of the master's change log.
struct BodyWindow {
  const KeptBody* kept;
  size_t lo;
  size_t hi;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string span_file;  // trace runs write their spans here (JSON lines)
};

class Checks {
 public:
  void Fail(std::string what) {
    if (failures_.size() < 20) failures_.push_back(std::move(what));
    ok_ = false;
  }
  void Expect(bool cond, const std::string& what) {
    if (!cond) Fail(what);
  }
  bool ok() const { return ok_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool ok_ = true;
  std::vector<std::string> failures_;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w) : args_(args), w_(w) {}

  int Run();

 private:
  TopologyOptions TopoOptions(size_t k) const {
    TopologyOptions o;
    o.olympic = spec_.olympic;
    o.cache_capacity_bytes = w_.cache_capacity;
    o.wal_dir = args_.work_dir + "/wal-" + std::to_string(k);
    return o;
  }
  PhaseResult Reads(double rate, double seconds, size_t keep_body_every = 0) {
    PhaseOptions o;
    o.rate = rate;
    o.duration_ns = static_cast<int64_t>(seconds * kSec);
    o.keep_body_every = keep_body_every;
    return client_->Run(o);
  }
  // One reference window, on fresh connections. Its reads are not the
  // system's operations, but any failure voids the ratios built on them.
  PhaseResult ReferenceReads(const PhaseOptions& o) {
    if (auto s = ref_client_->Connect(); !s.ok()) checks_.Fail("reference: " + s.message());
    PhaseResult r = ref_client_->Run(o);
    for (const auto& e : r.errors) checks_.Fail("reference read " + e);
    if (r.unsent() != 0) checks_.Fail("reference reads left unsent");
    return r;
  }
  // A read the generator never got to send counts as failed.
  void Count(const PhaseResult& r) {
    attempted_ += r.requests.size();
    failed_ += r.failed() + r.unsent();
    for (const auto& e : r.errors) checks_.Fail("read " + e);
  }
  void Count(const std::vector<CommitTiming>& commits) {
    for (const auto& c : commits) {
      ++attempted_;
      if (!c.ok) {
        ++failed_;
        checks_.Fail("a feed commit failed");
      }
    }
  }
  void StartFeed(bool trace) {
    if (w_.feed_rate > 0) feed_->Start(w_.feed_rate, trace);
  }
  void StopFeed() {
    if (w_.feed_rate > 0) feed_->Stop();
  }
  struct Capacity {
    std::vector<double> system_rps, reference_rps, ratio;
  };
  Capacity MeasureCapacity();
  void WaitQuiet();
  nagano::Result<std::vector<BodyWindow>> UnmatchedBodies(
      const std::vector<db::ChangeRecord>& records, std::vector<BodyWindow> windows);
  void CompareBodies();
  void VerifyPass();
  void ConsistencyChecks();
  void ProbeLoop(std::atomic<bool>* stop, std::vector<Span>* spans,
                 std::vector<std::string>* failures);

  Args args_;
  const Workload& w_;
  InputSpec spec_;
  Inputs inputs_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<OpenLoopClient> client_;
  std::unique_ptr<ReferenceChain> ref_;
  std::unique_ptr<OpenLoopClient> ref_client_;  // same stream, into ref_
  FreshQueue fresh_;
  std::unique_ptr<Pump> pump_;
  std::unique_ptr<FeedWriter> feed_;
  Checks checks_;
  Report report_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;  // findings that do not fail the run
  std::vector<KeptBody> bodies_;     // fixed-rate bodies, for CompareBodies
};

// Capacity: closed-loop steps on the same connections, alternating
// between the topology and the reference chain. A step's completion rate is
// the path's throughput with that many connections, the rate at which a
// backlog stops growing. The feed is paused: how much its trigger work
// took from the read path moved with the host by a third between runs, so
// live_games shows its write-side cost in the fixed-rate metrics only.
Bench::Capacity Bench::MeasureCapacity() {
  PhaseOptions o;
  o.saturate = true;
  o.duration_ns = static_cast<int64_t>(kSaturateSeconds * kSec);
  Capacity c;
  for (size_t i = 0; i < kSaturatePairs; ++i) {
    if (auto s = client_->Connect(); !s.ok()) checks_.Fail(s.message());
    const PhaseResult sys = client_->Run(o);
    Count(sys);
    const PhaseResult ref = ReferenceReads(o);
    c.system_rps.push_back(sys.Throughput());
    c.reference_rps.push_back(ref.Throughput());
    c.ratio.push_back(Ratio(c.system_rps.back(), c.reference_rps.back()));
  }
  return c;
}

void Bench::WaitQuiet() {
  const int64_t deadline = NowNs() + 30 * kSec;
  while (NowNs() < deadline &&
         (!topo_->replication().Converged() || pump_->pending() > 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  checks_.Expect(topo_->replication().Converged(),
                 "replicas did not converge after the feed stopped");
  for (size_t b = 0; b < topo_->backend_count(); ++b) topo_->site(b).Quiesce();
  // Commits still pending visibility after quiescence never became visible.
  const int64_t grace = NowNs() + 5 * kSec;
  while (NowNs() < grace && pump_->pending() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  checks_.Expect(pump_->pending() == 0,
                 "some result commits never became visible on every backend");
}

// Replays the master's change log into an oracle replica one record at a
// time, from the lowest window start, and after each record renders, from
// an emptied cache, the page of every body whose window covers that state.
// Returns the bodies no state in their window reproduced byte for byte.
nagano::Result<std::vector<BodyWindow>> Bench::UnmatchedBodies(
    const std::vector<db::ChangeRecord>& records, std::vector<BodyWindow> windows) {
  std::vector<BodyWindow> unmatched;
  if (windows.empty()) return unmatched;
  std::sort(windows.begin(), windows.end(),
            [](const BodyWindow& a, const BodyWindow& b) { return a.lo < b.lo; });
  nagano::metrics::MetricRegistry registry;
  db::DatabaseOptions db_options;
  db_options.metrics = {&registry, "oracle-db"};
  auto replica = std::make_unique<db::Database>(std::move(db_options));
  if (auto s = pagegen::OlympicSite::CreateSchema(replica.get()); !s.ok()) return s;
  const size_t first = windows.front().lo;
  for (size_t i = 0; i <= first; ++i) {
    if (auto s = replica->ApplyReplicated(records[i]); !s.ok()) return s;
  }
  // The oracle's trigger never starts: nothing but these renders touches
  // its cache, which is emptied before each state's renders.
  core::SiteOptions site_options;
  site_options.olympic = spec_.olympic;
  site_options.metrics = {&registry, "oracle"};
  auto site_or = core::ServingSite::CreateAround(std::move(site_options), std::move(replica));
  if (!site_or.ok()) return site_or.status();
  core::ServingSite& oracle = *site_or.value();

  std::vector<BodyWindow> active;
  size_t next = 0;
  for (size_t i = first; next < windows.size() || !active.empty(); ++i) {
    if (i > first) {
      if (auto s = oracle.db().ApplyReplicated(records[i]); !s.ok()) return s;
    }
    while (next < windows.size() && windows[next].lo <= i) active.push_back(windows[next++]);
    if (active.empty()) continue;
    oracle.cache().Clear();
    std::map<std::string, std::string> rendered;  // page -> render at state i
    for (auto it = active.begin(); it != active.end();) {
      const std::string& page = inputs_.reads.targets[it->kept->slot];
      auto r = rendered.find(page);
      if (r == rendered.end()) {
        auto body = oracle.renderer().RenderOnly(page);
        r = rendered.emplace(page, body.ok() ? std::move(body.value()) : std::string()).first;
      }
      const bool match = r->second == it->kept->body;
      if (match || it->hi == i) {
        if (!match) unmatched.push_back(*it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }
  return unmatched;
}

// Every kept body must equal an independent render of its page at a
// database state a backend could have served when the body was read: from
// the state current on the master kBodyStalenessNs earlier up to the
// newest record committed by then. Read-only workloads have one state.
// Each body is tried first at the newest state of its window (almost all
// match there), then over its whole window.
void Bench::CompareBodies() {
  db::Database& master = topo_->master();
  auto log = master.ReadChanges(master.CursorAtGlobal(0));
  if (!log.ok() || log.value().records.empty()) {
    checks_.Fail("cannot read the master's change log");
    return;
  }
  const std::vector<db::ChangeRecord>& records = log.value().records;
  std::vector<int64_t> committed;  // running maximum of committed_at
  for (const db::ChangeRecord& r : records) {
    committed.push_back(std::max(r.committed_at, committed.empty() ? 0 : committed.back()));
  }
  // Index of the last record committed by `t` (the build precedes the run).
  auto state_at = [&](int64_t t) -> size_t {
    const auto it = std::upper_bound(committed.begin(), committed.end(), t);
    return it == committed.begin() ? 0 : static_cast<size_t>(it - committed.begin()) - 1;
  };
  std::vector<BodyWindow> newest;
  for (const KeptBody& k : bodies_) {
    const size_t hi = state_at(k.done);
    newest.push_back({&k, hi, hi});
  }
  auto first_try = UnmatchedBodies(records, std::move(newest));
  if (!first_try.ok()) {
    checks_.Fail("oracle replay failed: " + first_try.status().message());
    return;
  }
  std::vector<BodyWindow> windows;
  for (BodyWindow w : first_try.value()) {
    w.lo = state_at(w.kept->done - kBodyStalenessNs);
    windows.push_back(w);
  }
  const size_t older = windows.size();
  auto second_try = UnmatchedBodies(records, std::move(windows));
  if (!second_try.ok()) {
    checks_.Fail("oracle replay failed: " + second_try.status().message());
    return;
  }
  for (const BodyWindow& w : second_try.value()) {
    ++failed_;  // the read itself was counted as attempted
    checks_.Fail("served body of " + inputs_.reads.targets[w.kept->slot] +
                 " matches no render of a state it could have had");
  }
  report_.Context("bodies", std::to_string(bodies_.size()) + " kept over " +
                                std::to_string(records.size()) + " log records: " +
                                std::to_string(bodies_.size() - older) +
                                " == oracle render at the newest state, " +
                                std::to_string(older - second_try.value().size()) +
                                " at an older state, " +
                                std::to_string(second_try.value().size()) + " at none");
}

void Bench::VerifyPass() {
  nagano::http::HttpClient via("127.0.0.1", topo_->dispatcher_port());
  std::vector<std::unique_ptr<nagano::http::HttpClient>> direct;
  for (size_t b = 0; b < topo_->backend_count(); ++b) {
    direct.push_back(std::make_unique<nagano::http::HttpClient>(
        "127.0.0.1", topo_->backend_port(b)));
  }
  std::vector<std::string> pages;
  for (size_t i = 0; i < inputs_.reads.targets.size() && pages.size() < kVerifyPages; ++i) {
    const std::string& p = inputs_.reads.targets[i];
    if (std::find(pages.begin(), pages.end(), p) == pages.end()) pages.push_back(p);
  }
  for (const std::string& page : pages) {
    ++attempted_;
    auto expected = topo_->site(0).renderer().RenderOnly(page);
    bool ok = expected.ok();
    auto got = via.Get(page);
    ok = ok && got.ok() && got.value().status == 200 &&
         got.value().body == expected.value();
    for (size_t b = 0; b < direct.size() && ok; ++b) {
      auto other = topo_->site(b).renderer().RenderOnly(page);
      auto d = direct[b]->Get(page);
      ok = other.ok() && other.value() == expected.value() && d.ok() &&
           d.value().status == 200 && d.value().body == expected.value();
    }
    if (!ok) {
      ++failed_;
      checks_.Fail("verification read of " + page +
                   " did not match the in-process render");
    }
  }
}

void Bench::ConsistencyChecks() {
  for (size_t b = 0; b < topo_->backend_count(); ++b) {
    core::ServingSite& site = topo_->site(b);
    auto verified = site.VerifyCacheConsistency();
    if (!verified.ok()) {
      const std::string why = verified.status().message();
      // The audit also demands that every plan pin its fragment's live
      // entry, which cannot hold once a bounded cache evicts a fragment a
      // cached plan still pins. On a bounded cache that one finding is
      // reported, and the byte-for-byte sweep below decides correctness.
      const bool evicted_pin = w_.cache_capacity != 0 &&
                               why.find("references a retired snapshot") !=
                                   std::string::npos;
      if (evicted_pin) {
        notes_.push_back("backend " + std::to_string(b) +
                         " VerifyCacheConsistency: " + why);
      } else {
        checks_.Fail("backend " + std::to_string(b) + " cache inconsistent: " + why);
      }
    }
    // Every cached object must equal a fresh render, byte for byte.
    for (const auto& [key, object] : site.cache().Snapshot()) {
      if (!site.renderer().CanGenerate(key)) continue;
      auto fresh = site.renderer().RenderOnly(key);
      checks_.Expect(fresh.ok() && fresh.value() == object->Materialize(),
                     "backend " + std::to_string(b) + " serves a stale " + key);
    }
    for (const std::string& table : topo_->master().TableNames()) {
      checks_.Expect(topo_->master().ScanAll(table) ==
                         topo_->site(b).db().ScanAll(table),
                     "replica b" + std::to_string(b) + " table " + table +
                         " differs from the master");
    }
  }
}

// Paired probes for one page: the same page through the dispatcher, direct
// to a backend, and in-process at each layer of that backend.
void Bench::ProbeLoop(std::atomic<bool>* stop, std::vector<Span>* spans,
                      std::vector<std::string>* failures) {
  nagano::http::HttpClient via("127.0.0.1", topo_->dispatcher_port());
  std::vector<std::unique_ptr<nagano::http::HttpClient>> direct;
  for (size_t b = 0; b < topo_->backend_count(); ++b) {
    direct.push_back(std::make_unique<nagano::http::HttpClient>(
        "127.0.0.1", topo_->backend_port(b)));
  }
  const auto& targets = inputs_.reads.targets;
  uint64_t i = 0;
  int64_t next = NowNs();
  while (!stop->load()) {
    const std::string& page = targets[targets.size() - 1 - (i % 4096)];
    const size_t b = i % direct.size();
    core::ServingSite& site = topo_->site(b);
    const uint64_t trace = ++i;
    int64_t t0 = NowNs();
    (void)site.Serve(page);                       // as the workload finds it
    int64_t t1 = NowNs();
    (void)site.cache().Lookup(page);
    int64_t t2 = NowNs();
    auto d = direct[b]->Get(page);
    int64_t t3 = NowNs();
    auto v = via.Get(page);
    int64_t t4 = NowNs();
    (void)site.Serve(page);                       // the hit the GETs paid
    int64_t t5 = NowNs();
    auto rendered = site.renderer().RenderOnly(page);
    int64_t t6 = NowNs();
    if (!d.ok() || d.value().status != 200 || !v.ok() || v.value().status != 200 ||
        !rendered.ok()) {
      if (failures->size() < 20) failures->push_back("probe of " + page + " failed");
    }
    spans->push_back({"server.serve", trace, t0, t1});
    spans->push_back({"cache.lookup", trace, t1, t2});
    spans->push_back({"http.direct_get", trace, t2, t3});
    spans->push_back({"dispatch.get", trace, t3, t4});
    spans->push_back({"server.serve_hit", trace, t4, t5});
    spans->push_back({"pagegen.render", trace, t5, t6});
    next += static_cast<int64_t>(kProbeInterval * kSec);
    const int64_t now = NowNs();
    if (next > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    } else {
      next = now;
    }
  }
}

int Bench::Run() {
  // Nagano-sized fields (72 countries, 30 athletes an event) over 140
  // events, with 20 finishers each: a feed of ~3,500 updates.
  spec_.olympic.events_per_sport = 20;
  spec_.olympic.athletes_per_event = 30;
  spec_.olympic.num_countries = 72;
  spec_.feed.results_per_event = 20;
  spec_.sampler = w_.sampler;
  const int64_t gen0 = NowNs();
  inputs_ = GenerateInputs(spec_, args_.seed);
  const double gen_s = (NowNs() - gen0) / 1e9;
  if (inputs_.reads.targets.empty() || inputs_.commits.empty()) {
    std::fprintf(stderr, "input generation failed\n");
    return 1;
  }

  // --- setup, timed several times (end-to-end only) ----------------------
  const size_t setups = args_.trace ? 1 : kSetupRepeats;
  Samples setup;
  for (size_t k = 0; k < setups; ++k) {
    if (topo_ != nullptr) {
      topo_->Stop();
      topo_.reset();
    }
    std::filesystem::remove_all(TopoOptions(k).wal_dir);
    const int64_t t0 = NowNs();
    auto topo_or = Topology::Start(TopoOptions(k));
    const int64_t t1 = NowNs();
    if (!topo_or.ok()) {
      std::fprintf(stderr, "topology setup failed: %s\n",
                   topo_or.status().message().c_str());
      return 1;
    }
    topo_ = std::move(topo_or.value());
    setup.Add(t1 - t0);
  }

  {
    const auto c = topo_->site(0).cache().stats();
    report_.Context("site", std::to_string(c.entries) + " cached objects, " +
                                Fixed(c.bytes / 1048576.0, 2) +
                                " MiB per backend after prefetch; setup samples " +
                                Fixed(setup.QuantileMs(0), 1) + ".." +
                                Fixed(setup.QuantileMs(1), 1) + " ms");
  }
  pump_ = std::make_unique<Pump>(topo_.get(), &fresh_);
  pump_->Start(args_.trace);
  feed_ = std::make_unique<FeedWriter>(topo_.get(), &inputs_.commits, &fresh_);
  client_ = std::make_unique<OpenLoopClient>(&inputs_.reads,
                                             topo_->dispatcher_port(), kConnections);
  if (auto s = client_->Connect(); !s.ok()) {
    std::fprintf(stderr, "load generator: %s\n", s.message().c_str());
    return 1;
  }

  // The reference chain answers the same read stream; set up outside the
  // timed set-up, since it is not part of the system.
  auto ref_or = ReferenceChain::Start(kReferenceBodyBytes);
  if (!ref_or.ok()) {
    std::fprintf(stderr, "%s\n", ref_or.status().message().c_str());
    return 1;
  }
  ref_ = std::move(ref_or.value());
  ref_client_ = std::make_unique<OpenLoopClient>(&inputs_.reads, ref_->port(), kConnections);

  // Warm-up: connections pinned, lazy state settled; not measured.
  (void)Reads(w_.read_rate, kWarmupSeconds);

  const bool feed_during_reads = w_.feed_rate > 0;

  // The fixed-rate phase runs as back-to-back 0.5 s windows, each on freshly
  // opened connections (so the dispatcher pins them anew). Untraced, every
  // window through the topology is followed by the same window through the
  // reference chain, with the feed paused, and each pair gives a ratio; the
  // host's drift over a run and between runs moves both sides of a pair
  // alike. A trace run (both its phases) has no reference and the feed
  // runs throughout.
  struct FixedRate {
    PhaseResult all;  // every window's requests, merged
    std::vector<double> p10_ms, p50_ms, p99_ms, cpu_us_per_op;
    std::vector<double> ref_p10_ms, ref_p50_ms, ref_cpu_us_per_op, p10_ratio, cpu_ratio;
    std::vector<CommitTiming> commits;
    Pump::Window window;
    Counters before, after;
  };
  // A traced phase appends its probe, feed and pump spans to `spans`.
  auto fixed_phase = [&](bool traced, std::vector<Span>* spans) {
    const bool paired = !args_.trace;  // a trace run has no reference
    FixedRate fr;
    pump_->ResetWindow();
    feed_->TakeTimings();
    feed_->TakeSpans();
    fr.before = Snapshot(*topo_);
    if (!paired) StartFeed(traced);
    std::atomic<bool> stop_probes{false};
    std::vector<std::string> probe_failures;
    std::thread probes;
    if (traced) {
      probes = std::thread([&] { ProbeLoop(&stop_probes, spans, &probe_failures); });
    }
    const double span_s = paired ? 2 * kWindowSeconds : kWindowSeconds;
    const size_t windows =
        std::max<size_t>(1, static_cast<size_t>(std::lround(args_.seconds / span_s)));
    for (size_t i = 0; i < windows; ++i) {
      if (auto s = client_->Connect(); !s.ok()) checks_.Fail(s.message());
      const double cpu0 = CpuSeconds();
      const double gen_cpu0 = ThreadCpuSeconds();
      const uint64_t commits0 = feed_->completed();
      if (paired) StartFeed(false);
      PhaseResult r = Reads(w_.read_rate, kWindowSeconds, kKeepBodyEvery);
      if (paired) StopFeed();
      const double cpu = CpuSeconds() - cpu0;
      const double gen_cpu = ThreadCpuSeconds() - gen_cpu0;
      const uint64_t commits = feed_->completed() - commits0;
      const double ops = static_cast<double>(r.succeeded() + commits);
      const Samples latency = r.Latency();
      fr.p10_ms.push_back(latency.QuantileMs(0.1));
      fr.p50_ms.push_back(latency.QuantileMs(0.5));
      fr.p99_ms.push_back(latency.QuantileMs(0.99));
      fr.cpu_us_per_op.push_back(Ratio(cpu * 1e6, ops));
      fr.all.requests.insert(fr.all.requests.end(), r.requests.begin(), r.requests.end());
      fr.all.errors.insert(fr.all.errors.end(), r.errors.begin(), r.errors.end());
      bodies_.insert(bodies_.end(), r.bodies.begin(), r.bodies.end());
      if (paired) {
        PhaseOptions o;
        o.rate = w_.read_rate;
        o.duration_ns = static_cast<int64_t>(kWindowSeconds * kSec);
        // CPU compared without the generator's own thread: the system's
        // threads per operation against the chain's per read.
        const double ref_cpu0 = ref_->CpuSeconds();
        const PhaseResult ref = ReferenceReads(o);
        const double ref_cpu = ref_->CpuSeconds() - ref_cpu0;
        const Samples ref_latency = ref.Latency();
        fr.ref_p10_ms.push_back(ref_latency.QuantileMs(0.1));
        fr.ref_p50_ms.push_back(ref_latency.QuantileMs(0.5));
        fr.ref_cpu_us_per_op.push_back(Ratio(ref_cpu * 1e6, ref.succeeded()));
        fr.p10_ratio.push_back(Ratio(fr.p10_ms.back(), fr.ref_p10_ms.back()));
        fr.cpu_ratio.push_back(
            Ratio(Ratio((cpu - gen_cpu) * 1e6, ops), fr.ref_cpu_us_per_op.back()));
      }
    }
    stop_probes.store(true);
    if (probes.joinable()) probes.join();
    for (auto& f : probe_failures) checks_.Fail(std::move(f));
    if (!paired) StopFeed();
    fr.after = Snapshot(*topo_);
    fr.commits = feed_->TakeTimings();
    // Let this phase's commits finish propagating before the window closes,
    // so every one of them has a freshness sample.
    const int64_t deadline = NowNs() + 10 * kSec;
    while (NowNs() < deadline && pump_->pending() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fr.window = pump_->TakeWindow();
    if (traced) {
      const auto feed_spans = feed_->TakeSpans();
      spans->insert(spans->end(), feed_spans.begin(), feed_spans.end());
      spans->insert(spans->end(), fr.window.spans.begin(), fr.window.spans.end());
    }
    Count(fr.all);
    Count(fr.commits);
    return fr;
  };

  std::vector<Span> spans;
  Capacity capacity;
  FixedRate fixed;     // the measured phase
  FixedRate baseline;  // trace runs: the same phase untraced, run first
  if (args_.trace) {
    // The untraced baseline gives the tracing overhead and every counter
    // delta (the probes' own calls would skew counters taken while they
    // run); the traced phase gives the spans.
    baseline = fixed_phase(false, nullptr);
    fixed = fixed_phase(true, &spans);
  } else {
    fixed = fixed_phase(false, nullptr);
    capacity = MeasureCapacity();
  }
  const PhaseResult& reads = fixed.all;
  const std::vector<CommitTiming>& commits = fixed.commits;

  // Peak memory of set-up and the measured phases; the checks below build
  // an oracle replica of their own.
  const double peak_rss_mb = PeakRssMb();
  WaitQuiet();
  CompareBodies();
  VerifyPass();
  ConsistencyChecks();

  // --- metrics ------------------------------------------------------------
  Samples commit_ms, fresh;
  for (const CommitTiming& c : commits) commit_ms.Add(c.end - c.start);
  for (int64_t ns : fixed.window.fresh) fresh.Add(ns);

  report_.Context("workload", std::string(w_.name) + " — " + w_.why);
  report_.Context("run", "seed=" + std::to_string(args_.seed) +
                             " trace=" + (args_.trace ? "1" : "0") +
                             " git=" + args_.git_sha);
  report_.Context("host", "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                              " build=" PERFBENCH_BUILD_TYPE " compiler=" __VERSION__);
  report_.Context(
      "topology",
      "1 dispatcher (1 reactor) -> " + std::to_string(kBackends) +
          " backends (ServingSite + HttpFrontEnd, 1 reactor, 1 trigger worker "
          "each), replicas of a WAL-backed master; WAL sync policy " +
          std::string(wal::SyncPolicyName(kMasterSyncPolicy)) +
          "; cache capacity per backend " +
          (w_.cache_capacity ? std::to_string(w_.cache_capacity) + " B" : "unbounded"));
  report_.Context(
      "load", "open loop, " + std::to_string(kConnections) +
                  " keep-alive connections, Poisson arrivals at " +
                  Fixed(w_.read_rate, 0) + "/s; capacity closed loop on the same " +
                  "connections; feed " +
                  (feed_during_reads ? Fixed(w_.feed_rate, 0) + " commits/s during reads"
                                     : std::string("none (read-only)")) +
                  "; reference chain: relay -> 2 echo threads over loopback, " +
                  std::to_string(kReferenceBodyBytes) + " B answers");
  report_.Context(
      "phases", "inputs " + Fixed(gen_s, 2) + " s, setup x" + std::to_string(setups) +
                    ", warm-up " + Fixed(kWarmupSeconds, 1) + " s, fixed-rate " +
                    Fixed(args_.seconds, 1) + " s" +
                    (args_.trace ? " untraced + " + Fixed(args_.seconds, 1) + " s traced"
                                 : " as " + std::to_string(fixed.p50_ms.size()) + " pairs of " +
                                       Fixed(kWindowSeconds, 1) +
                                       " s windows (topology, reference), capacity " +
                                       std::to_string(kSaturatePairs) + " pairs of " +
                                       Fixed(kSaturateSeconds, 1) + " s steps"));
  report_.Context("inputs", "read stream digest " + std::to_string(Digest(inputs_.reads)) +
                                ", commit stream digest " +
                                std::to_string(Digest(inputs_.commits)));
  report_.Context("ops", "attempted=" + std::to_string(attempted_) +
                             " failed=" + std::to_string(failed_) + " failed_share=" +
                             Fixed(Ratio(failed_, attempted_), 6));

  if (!args_.trace) {
    report_.AddQuantile("setup_s", setup, 0.5, 1e9, "s");
    const std::string pairs = "median of " + std::to_string(fixed.p10_ratio.size()) +
                              " window pairs, n=" + std::to_string(reads.Latency().count());
    report_.Add("read_p10_vs_ref", Median(fixed.p10_ratio), "ratio", pairs);
    report_.Add("cpu_per_op_vs_ref", Median(fixed.cpu_ratio), "ratio", pairs);
    report_.Add("peak_rss_mb", peak_rss_mb, "MB");
    // Report only: each a median over the windows (or capacity steps).
    const std::string windows = "median of " + std::to_string(fixed.p50_ms.size()) +
                                " windows, n=" + std::to_string(reads.Latency().count());
    const std::string ref_windows =
        "median of " + std::to_string(fixed.ref_p10_ms.size()) + " windows";
    const std::string steps =
        "median of " + std::to_string(capacity.system_rps.size()) + " steps";
    report_.Add("read_p10_ms", Median(fixed.p10_ms), "ms", windows, kReportOnly);
    report_.Add("read_p50_ms", Median(fixed.p50_ms), "ms", windows, kReportOnly);
    report_.Add("read_p99_ms", Median(fixed.p99_ms), "ms", windows, kReportOnly);
    report_.Add("read_capacity_rps", Median(capacity.system_rps), "1/s", steps, kReportOnly);
    report_.Add("read_capacity_vs_ref", Median(capacity.ratio), "ratio", steps, kReportOnly);
    report_.Add("cpu_us_per_op", Median(fixed.cpu_us_per_op), "us", windows, kReportOnly);
    report_.Add("ref.read_p10_ms", Median(fixed.ref_p10_ms), "ms", ref_windows, kReportOnly);
    report_.Add("ref.read_p50_ms", Median(fixed.ref_p50_ms), "ms", ref_windows, kReportOnly);
    report_.Add("ref.read_capacity_rps", Median(capacity.reference_rps), "1/s", steps,
                kReportOnly);
    report_.Add("ref.cpu_us_per_op", Median(fixed.ref_cpu_us_per_op), "us", ref_windows,
                kReportOnly);
    if (feed_during_reads) {
      report_.AddQuantile("fresh_p50_ms", fresh, 0.5, 1e6, "ms", kReportOnly);
      report_.AddQuantile("fresh_p99_ms", fresh, 0.99, 1e6, "ms", kReportOnly);
      report_.AddQuantile("commit_p50_ms", commit_ms, 0.5, 1e6, "ms", kReportOnly);
      report_.AddQuantile("commit_p99_ms", commit_ms, 0.99, 1e6, "ms", kReportOnly);
    }
    std::string per_window;
    for (double v : fixed.p99_ms) per_window += (per_window.empty() ? "" : " ") + Fixed(v, 3);
    report_.Context("read_p99_ms by window", per_window);
  } else {
    // Counters: deltas over the untraced baseline phase. Spans: the traced
    // phase.
    const Counters& a = baseline.before;
    const Counters& z = baseline.after;
    const double nreads = static_cast<double>(baseline.all.attempted());
    const size_t nb = a.serve.size();
    // dispatch
    report_.AddQuantile("dispatch.hop_us_p50",
                        PairedDifference(spans, "dispatch.get", "http.direct_get"),
                        0.5, 1e3, "us");
    report_.AddQuantile("dispatch.hop_us_p99",
                        PairedDifference(spans, "dispatch.get", "http.direct_get"),
                        0.99, 1e3, "us");
    uint64_t total_req = 0, min_req = UINT64_MAX;
    for (size_t i = 0; i < z.backend_requests.size(); ++i) {
      const uint64_t d = z.backend_requests[i] - a.backend_requests[i];
      total_req += d;
      min_req = std::min(min_req, d);
    }
    report_.Add("dispatch.balance",
                Ratio(min_req * static_cast<double>(z.backend_requests.size()), total_req),
                "ratio");
    report_.Add("dispatch.failovers", z.dispatch.failovers - a.dispatch.failovers, "count");
    report_.Add("dispatch.proxy_errors", z.dispatch.proxy_errors - a.dispatch.proxy_errors,
                "count");
    // http
    report_.AddQuantile("http.self_us_p50",
                        PairedDifference(spans, "http.direct_get", "server.serve_hit"),
                        0.5, 1e3, "us");
    report_.AddQuantile("http.self_us_p99",
                        PairedDifference(spans, "http.direct_get", "server.serve_hit"),
                        0.99, 1e3, "us");
    // Backend body copies on page answers. Every admin answer (the
    // dispatcher's /healthz probes) is an owned body and counts one copy, so
    // those are taken out: admin = served - proxied.
    uint64_t copies = 0, reuses = 0, served = 0;
    for (size_t i = 0; i < nb; ++i) {
      const uint64_t served_i = z.http[i].requests_served - a.http[i].requests_served;
      const uint64_t proxied_i = z.backend_requests[i] - a.backend_requests[i];
      const uint64_t admin_i = served_i - std::min(served_i, proxied_i);
      const uint64_t copies_i = z.http[i].body_copies - a.http[i].body_copies;
      copies += copies_i - std::min(copies_i, admin_i);
      reuses += z.http[i].keepalive_reuses - a.http[i].keepalive_reuses;
      served += served_i;
    }
    report_.Add("http.body_copies_per_read", Ratio(copies, nreads), "count");
    report_.Add("http.keepalive_reuse_share", Ratio(reuses, served), "ratio");
    // server + cache
    const Samples serve = Durations(spans, "server.serve");
    report_.AddQuantile("server.serve_us_p50", serve, 0.5, 1e3, "us");
    report_.AddQuantile("server.serve_us_p99", serve, 0.99, 1e3, "us");
    uint64_t hits = 0, misses = 0, coalesced = 0, total = 0;
    uint64_t chits = 0, cmisses = 0, evictions = 0;
    for (size_t i = 0; i < nb; ++i) {
      hits += z.serve[i].cache_hits - a.serve[i].cache_hits;
      misses += z.serve[i].cache_misses - a.serve[i].cache_misses;
      coalesced += z.serve[i].coalesced - a.serve[i].coalesced;
      total += z.serve[i].total() - a.serve[i].total();
      chits += z.cache[i].hits - a.cache[i].hits;
      cmisses += z.cache[i].misses - a.cache[i].misses;
      evictions += z.cache[i].evictions - a.cache[i].evictions;
    }
    report_.Add("server.miss_share", Ratio(misses, hits + misses), "ratio");
    report_.Add("server.coalesced_share", Ratio(coalesced, total), "ratio");
    report_.AddQuantile("cache.lookup_us_p50", Durations(spans, "cache.lookup"), 0.5,
                        1e3, "us");
    report_.Add("cache.hit_ratio", Ratio(chits, chits + cmisses), "ratio");
    report_.Add("cache.evictions_per_read", Ratio(evictions, nreads), "count");
    // pagegen
    const Samples render = Durations(spans, "pagegen.render");
    report_.AddQuantile("pagegen.render_us_p50", render, 0.5, 1e3, "us");
    report_.AddQuantile("pagegen.render_us_p99", render, 0.99, 1e3, "us");
    // db + wal (zero on the read-only workloads, which commit nothing)
    const double db_commits = static_cast<double>(z.master_seqno - a.master_seqno);
    report_.AddQuantile("db.commit_us_p99", Durations(spans, "db.commit"), 0.99, 1e3, "us");
    report_.Add("wal.fsyncs_per_commit", Ratio(z.wal.fsyncs - a.wal.fsyncs, db_commits),
                "count");
    report_.Add("wal.bytes_per_commit",
                Ratio(z.wal.bytes_appended - a.wal.bytes_appended, db_commits), "B");
    // replication
    const Samples pump = Durations(spans, "replication.pump");
    report_.AddQuantile("replication.pump_us_p50", pump, 0.5, 1e3, "us");
    report_.AddQuantile("replication.pump_us_p99", pump, 0.99, 1e3, "us");
    report_.AddQuantile("replication.lag_ms_p99", Durations(spans, "fresh.replicate"), 0.99,
                        1e6, "ms");
    report_.Add("replication.records_per_pump",
                Ratio(baseline.window.records, baseline.window.productive_pumps), "count");
    // trigger + odg (per database commit, per backend)
    report_.AddQuantile("trigger.apply_ms_p99", Durations(spans, "fresh.apply"), 0.99, 1e6,
                        "ms");
    uint64_t changes = 0, batches = 0, renders = 0, patched = 0, bytes = 0;
    double fanout = 0;
    for (size_t i = 0; i < nb; ++i) {
      const auto& tb = a.trigger[i];
      const auto& ta = z.trigger[i];
      changes += ta.changes_processed - tb.changes_processed;
      batches += ta.batches - tb.batches;
      renders += ta.renders_attempted - tb.renders_attempted;
      patched += ta.plans_patched - tb.plans_patched;
      bytes += ta.rerendered_bytes - tb.rerendered_bytes;
      fanout += ta.fanout.mean() * ta.fanout.count() - tb.fanout.mean() * tb.fanout.count();
    }
    const double per_commit = db_commits * static_cast<double>(nb);
    report_.Add("trigger.changes_per_batch", Ratio(changes, batches), "count");
    report_.Add("trigger.backlog_max", baseline.window.backlog_max, "count");
    report_.Add("trigger.renders_per_commit", Ratio(renders, per_commit), "count");
    report_.Add("trigger.plans_patched_per_commit", Ratio(patched, per_commit), "count");
    report_.Add("trigger.rerendered_bytes_per_commit", Ratio(bytes, per_commit), "B");
    report_.Add("odg.fanout_per_commit", Ratio(fanout, per_commit), "count");
    // loadgen + tracing
    report_.AddQuantile("loadgen.late_ms_p99", baseline.all.Lateness(), 0.99, 1e6, "ms");
    const double traced_p50 = Median(fixed.p50_ms);
    const double untraced_p50_ms = Median(baseline.p50_ms);
    report_.Add("trace.overhead_share", Ratio(traced_p50, untraced_p50_ms) - 1.0, "ratio",
                "traced p50 " + Fixed(traced_p50, 4) + " ms / untraced " +
                    Fixed(untraced_p50_ms, 4) + " ms");

    if (!args_.span_file.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(args_.span_file).parent_path());
      std::ofstream out(args_.span_file);
      for (const Span& sp : spans) {
        out << "{\"name\":\"" << sp.name << "\",\"trace\":" << sp.trace
            << ",\"start_ns\":" << sp.start << ",\"end_ns\":" << sp.end << "}\n";
      }
      report_.Context("spans", std::to_string(spans.size()) + " written to " +
                                   args_.span_file);
    }
  }

  feed_->Stop();
  pump_->Stop();
  client_.reset();
  ref_client_.reset();
  ref_.reset();
  topo_->Stop();

  for (const auto& n : notes_) std::printf("# KNOWN DEFECT: %s\n", n.c_str());
  for (const auto& f : checks_.failures()) std::printf("# CHECK FAILED: %s\n", f.c_str());
  report_.PrintHuman();
  std::printf("%s\n", report_.Json(checks_.ok(), attempted_, failed_).c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nagano_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--git-sha <sha>] [--span-file <path>]\n");
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      std::filesystem::create_directories(args.work_dir);
      Bench bench(args, w);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
