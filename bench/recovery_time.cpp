// RECOVERY — cold-start recovery time vs log length (ISSUE 4).
//
// The paper's availability story assumes a failed complex can come back
// and rejoin serving quickly (§3: recovery re-synchronises the replica
// database, then the cache repopulates). This bench measures the local
// half of that path: rebuilding a database from its write-ahead log,
// with and without a checkpoint image.
//
// Method: for each log length N, commit N upserts through a WAL-backed
// database, drop every in-memory structure (the "crash"), reopen the WAL,
// and time Database::Recover() on a cold process. The checkpointed
// variant writes a checkpoint at 95% of the log, so recovery loads the
// image and replays only the 5% tail — the knob an operator turns when
// full-log replay gets too slow.
//
// The shard sweep (ISSUE 8) repeats the crash/recover cycle with the store
// partitioned into {1, 2, 4} shards, each owning its own WAL stream, and
// measures parallel replay two ways — both from real replays, never a
// model:
//   * wall clock of Recover() with one worker per shard, and
//   * the per-shard replay times of a serial Recover() (each shard timed
//     in isolation), whose sum/max ratio is the speedup a host with >=
//     `shards` cores gets, independent of how many cores THIS host has.
// `recovery_scaling_1to4` reports wall-clock scaling when the host has at
// least 4 hardware threads and the measured critical-path ratio otherwise
// (`recovery_scaling_basis` says which); `--quick` gates on >= 2x at 4
// shards. A full run repeats every measurement kRepeats times and emits
// BENCH_recovery.json with the median and min/max of each timed figure;
// the ratios are taken between medians.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <unistd.h>
#include <vector>

#include "db/shard_map.h"

#include "bench_util.h"
#include "common/metrics.h"
#include "db/database.h"
#include "wal/wal.h"

using namespace nagano;

namespace {

constexpr int kRepeats = 3;

struct RecoveryRun {
  size_t commits = 0;
  bool checkpointed = false;
  uint64_t wal_bytes = 0;       // segments + checkpoint images on disk
  uint64_t replayed = 0;        // records applied by Recover()
  double populate_s = 0.0;      // time to write the log (context, not claim)
  double recover_ms = 0.0;
  double replay_per_s = 0.0;    // replayed records per second of recovery
};

std::string MakeTempDir() {
  char tmpl[] = "/tmp/nagano_bench_recovery_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::unique_ptr<wal::WriteAheadLog> OpenWal(const std::string& dir,
                                            metrics::MetricRegistry* registry) {
  wal::WalOptions options;
  options.dir = dir;
  // Group commit: the bench measures replay speed, not fsync latency, and
  // per-commit fsync would make populating the 50k-record log the slow part.
  options.sync_policy = wal::SyncPolicy::kGroupCommit;
  options.metrics.registry = registry;
  auto log = wal::WriteAheadLog::Open(std::move(options));
  if (!log.ok()) {
    std::fprintf(stderr, "WAL open failed: %s\n",
                 log.status().ToString().c_str());
    return nullptr;
  }
  return std::move(log).value();
}

// Populate, crash, recover. Returns false on any unexpected error.
bool RunOne(size_t commits, bool checkpointed, RecoveryRun* out) {
  const std::string dir = MakeTempDir();
  if (dir.empty()) return false;
  bool ok = false;
  {
    metrics::MetricRegistry registry;
    auto log = OpenWal(dir, &registry);
    if (log == nullptr) return false;

    const auto populate_start = std::chrono::steady_clock::now();
    {
      db::DatabaseOptions options;
      options.metrics.registry = &registry;
      options.wal = log.get();
      db::Database db(std::move(options));
      if (!db.CreateTable("results", {{"id", db::ColumnType::kInt},
                                      {"athlete", db::ColumnType::kString},
                                      {"score", db::ColumnType::kDouble}})
               .ok()) {
        return false;
      }
      // Half the keyspace gets overwritten, so the checkpoint image is
      // meaningfully smaller than the log it replaces — the usual shape of
      // a scoring feed (results get corrected, standings get recomputed).
      const size_t keyspace = commits / 2 + 1;
      const size_t checkpoint_at = commits - commits / 20;  // 95%
      for (size_t i = 1; i <= commits; ++i) {
        if (!db.Upsert("results",
                       {db::Value(int64_t(i % keyspace)),
                        db::Value("athlete-" + std::to_string(i % keyspace)),
                        db::Value(double(i) * 0.5)})
                 .ok()) {
          return false;
        }
        if (checkpointed && i == checkpoint_at && !db.Checkpoint().ok()) {
          return false;
        }
      }
    }
    // The crash: db and WAL objects are gone; only the files survive.
    log.reset();
    const auto populate_end = std::chrono::steady_clock::now();

    out->commits = commits;
    out->checkpointed = checkpointed;
    out->wal_bytes = DirBytes(dir);
    out->populate_s =
        std::chrono::duration<double>(populate_end - populate_start).count();

    metrics::MetricRegistry recovery_registry;
    auto reopened = OpenWal(dir, &recovery_registry);
    if (reopened == nullptr) return false;
    db::DatabaseOptions options;
    options.metrics.registry = &recovery_registry;
    options.wal = reopened.get();
    db::Database recovered(std::move(options));
    const auto start = std::chrono::steady_clock::now();
    if (Status s = recovered.Recover(); !s.ok()) {
      std::fprintf(stderr, "Recover failed: %s\n", s.ToString().c_str());
      return false;
    }
    const auto end = std::chrono::steady_clock::now();
    out->recover_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    // Everything past the checkpoint image (or the whole log, +1 for the
    // CreateTable record) was replayed record by record.
    out->replayed = checkpointed
                        ? recovered.LastSeqno() - (recovered.log_head_seqno() - 1)
                        : recovered.LastSeqno() + 1;
    out->replay_per_s = out->recover_ms > 0
                            ? static_cast<double>(out->replayed) /
                                  (out->recover_ms / 1000.0)
                            : 0.0;
    ok = recovered.LastSeqno() == commits;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return ok;
}

// --- shard sweep (ISSUE 8) -------------------------------------------------

struct ShardRun {
  size_t shards = 0;
  uint64_t replayed = 0;
  double serial_wall_ms = 0.0;    // Recover() with 1 worker
  double parallel_wall_ms = 0.0;  // Recover() with `shards` workers
  double sum_shard_ms = 0.0;      // sum of per-shard isolated replay times
  double critical_path_ms = 0.0;  // max of per-shard isolated replay times
};

bool PopulateSharded(const std::string& dir, size_t shards, size_t commits) {
  metrics::MetricRegistry registry;
  wal::WalOptions base;
  base.dir = dir;
  base.sync_policy = wal::SyncPolicy::kGroupCommit;
  base.metrics.registry = &registry;
  auto set = wal::OpenShardWals(std::move(base), shards);
  if (!set.ok()) return false;
  db::DatabaseOptions options;
  options.metrics.registry = &registry;
  options.shards = shards;
  options.shard_wals = set.value().pointers();
  db::Database db(std::move(options));
  if (!db.CreateTable("results", {{"id", db::ColumnType::kInt},
                                  {"athlete", db::ColumnType::kString},
                                  {"score", db::ColumnType::kDouble}})
           .ok()) {
    return false;
  }
  const size_t keyspace = commits / 2 + 1;
  for (size_t i = 1; i <= commits; ++i) {
    if (!db.Upsert("results",
                   {db::Value(int64_t(i % keyspace)),
                    db::Value("athlete-" + std::to_string(i % keyspace)),
                    db::Value(double(i) * 0.5)})
             .ok()) {
      return false;
    }
  }
  return db.Sync().ok();
}

// One cold recovery over an existing shard WAL tree. Returns wall-clock ms
// and, via `out`, the per-shard replay times the recovery measured.
bool RecoverOnce(const std::string& dir, size_t shards, size_t threads,
                 size_t commits, double* wall_ms, db::RecoveryReport* out) {
  metrics::MetricRegistry registry;
  wal::WalOptions base;
  base.dir = dir;
  base.sync_policy = wal::SyncPolicy::kGroupCommit;
  base.metrics.registry = &registry;
  auto set = wal::OpenShardWals(std::move(base), shards);
  if (!set.ok()) return false;
  db::DatabaseOptions options;
  options.metrics.registry = &registry;
  options.shards = shards;
  options.shard_wals = set.value().pointers();
  options.recovery_threads = threads;
  db::Database recovered(std::move(options));
  const auto start = std::chrono::steady_clock::now();
  if (Status s = recovered.Recover(); !s.ok()) {
    std::fprintf(stderr, "sharded Recover failed: %s\n", s.ToString().c_str());
    return false;
  }
  const auto end = std::chrono::steady_clock::now();
  *wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  if (out != nullptr) *out = recovered.last_recovery();
  return recovered.LastSeqno() == commits && recovered.last_recovery().healthy();
}

bool RunShardSweep(size_t commits, size_t shards, ShardRun* out) {
  const std::string dir = MakeTempDir();
  if (dir.empty()) return false;
  bool ok = false;
  if (PopulateSharded(dir, shards, commits)) {
    // Pass 1, serial: one worker replays the shards back to back, so each
    // shard's replay_ms is an isolated, contention-free measurement.
    db::RecoveryReport serial;
    double serial_wall = 0.0;
    // Pass 2, parallel: one worker per shard, true wall clock.
    double parallel_wall = 0.0;
    if (RecoverOnce(dir, shards, 1, commits, &serial_wall, &serial) &&
        RecoverOnce(dir, shards, shards, commits, &parallel_wall, nullptr)) {
      out->shards = shards;
      out->serial_wall_ms = serial_wall;
      out->parallel_wall_ms = parallel_wall;
      for (const auto& shard : serial.shards) {
        out->replayed += shard.replayed;
        out->sum_shard_ms += shard.replay_ms;
        out->critical_path_ms = std::max(out->critical_path_ms, shard.replay_ms);
      }
      ok = out->critical_path_ms > 0.0;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::Header("RECOVERY", "cold-start recovery time vs log length");
  const int repeats = quick ? 1 : kRepeats;

  const std::vector<size_t> lengths =
      quick ? std::vector<size_t>{1000, 10000}
            : std::vector<size_t>{1000, 5000, 20000, 50000};
  // runs[2 * l + checkpointed] holds every repeat of lengths[l] in that
  // mode; repeats go round the whole table.
  std::vector<std::vector<RecoveryRun>> runs(2 * lengths.size());
  bench::Section("recovery time (wall clock, tmpfs-backed WAL)");
  bench::Row("%8s  %-12s  %10s  %9s  %12s  %14s", "commits", "mode",
             "wal bytes", "replayed", "recover ms", "replay rec/s");
  for (int repeat = 0; repeat < repeats; ++repeat) {
    for (size_t l = 0; l < lengths.size(); ++l) {
      for (const bool checkpointed : {false, true}) {
        RecoveryRun run;
        if (!RunOne(lengths[l], checkpointed, &run)) {
          std::fprintf(stderr, "run (n=%zu ckpt=%d) failed\n", lengths[l],
                       checkpointed ? 1 : 0);
          return 1;
        }
        bench::Row("%8zu  %-12s  %10llu  %9llu  %12.2f  %14.0f", run.commits,
                   run.checkpointed ? "checkpoint" : "log-only",
                   static_cast<unsigned long long>(run.wal_bytes),
                   static_cast<unsigned long long>(run.replayed),
                   run.recover_ms, run.replay_per_s);
        runs[2 * l + (checkpointed ? 1 : 0)].push_back(run);
      }
    }
  }
  const auto median_ms = [](const std::vector<RecoveryRun>& point) {
    return bench::SpreadOf(point, &RecoveryRun::recover_ms).median;
  };

  // The claim: checkpointing turns recovery from O(log) into O(image +
  // tail). Compare the largest log's two modes, and sanity-check that
  // log-only recovery scales roughly linearly in N.
  const double big_log_ms = median_ms(runs[runs.size() - 2]);
  const double big_ckpt_ms = median_ms(runs[runs.size() - 1]);
  const double small_log_ms = median_ms(runs[0]);
  const double speedup = big_ckpt_ms > 0 ? big_log_ms / big_ckpt_ms : 0.0;
  const double scale = small_log_ms > 0 ? big_log_ms / small_log_ms : 0.0;
  const double n_ratio = static_cast<double>(lengths.back()) /
                         static_cast<double>(lengths.front());

  bench::Section("paper comparison");
  bench::CompareText("restart rejoins within the 60 s bound",
                     "yes", big_log_ms < 60'000.0 ? "yes" : "no");
  bench::Compare("checkpoint speedup at max log", n_ratio / 10.0, speedup,
                 "x (image + 5% tail vs full replay)");
  bench::Compare("log-only scaling vs N (linear ~ ratio)", n_ratio, scale,
                 "x recover-ms growth over the N range");

  // --- parallel recovery across shards (ISSUE 8) ---------------------------
  const size_t host_threads = std::thread::hardware_concurrency();
  const size_t shard_commits = quick ? 16000 : 40000;
  const std::vector<size_t> shard_counts = {1, 2, 4};
  std::vector<std::vector<ShardRun>> shard_runs(shard_counts.size());
  bench::Section("parallel recovery across shards (full-log replay)");
  bench::Row("%6s  %9s  %14s  %16s  %14s  %12s", "shards", "replayed",
             "serial wall ms", "parallel wall ms", "crit path ms",
             "sum shard ms");
  for (int repeat = 0; repeat < repeats; ++repeat) {
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      ShardRun run;
      if (!RunShardSweep(shard_commits, shard_counts[i], &run)) {
        std::fprintf(stderr, "shard sweep (shards=%zu) failed\n",
                     shard_counts[i]);
        return 1;
      }
      bench::Row("%6zu  %9llu  %14.2f  %16.2f  %14.2f  %12.2f", run.shards,
                 static_cast<unsigned long long>(run.replayed),
                 run.serial_wall_ms, run.parallel_wall_ms,
                 run.critical_path_ms, run.sum_shard_ms);
      shard_runs[i].push_back(run);
    }
  }
  const auto median = [&](const std::vector<ShardRun>& point,
                          double ShardRun::*field) {
    return bench::SpreadOf(point, field).median;
  };

  // Scaling at 4 shards, always from measured replays. On a host with >= 4
  // hardware threads the honest number is wall clock (1-shard wall over
  // 4-shard parallel wall). On a smaller host the 4 replay threads
  // timeshare the same cores and wall clock *cannot* scale, so we report
  // the measured critical-path ratio instead: sum/max of the four
  // independently timed shard replays — the wall-clock speedup a >=4-core
  // host realises over running them back to back.
  const std::vector<ShardRun>& one = shard_runs.front();
  const std::vector<ShardRun>& four = shard_runs.back();
  const double four_parallel_ms = median(four, &ShardRun::parallel_wall_ms);
  const double four_serial_ms = median(four, &ShardRun::serial_wall_ms);
  const double four_critical_ms = median(four, &ShardRun::critical_path_ms);
  const double wall_scaling =
      four_parallel_ms > 0
          ? median(one, &ShardRun::parallel_wall_ms) / four_parallel_ms
          : 0.0;
  const double critical_path_scaling =
      four_critical_ms > 0
          ? median(four, &ShardRun::sum_shard_ms) / four_critical_ms
          : 0.0;
  const bool wall_basis = host_threads >= 4;
  const double scaling_1to4 = wall_basis ? wall_scaling : critical_path_scaling;
  bench::Compare("parallel replay scaling, 1 -> 4 shards", 4.0, scaling_1to4,
                 wall_basis ? "x (wall clock; host has >= 4 threads)"
                            : "x (critical path; host too narrow for wall)");
  bench::Row("host threads: %zu  wall 1->4: %.2fx  critical path: %.2fx",
             host_threads, wall_scaling, critical_path_scaling);

  // A quick run is a gate, not a measurement: it uses shortened log
  // lengths, so writing it out would clobber the committed full-run
  // baseline every time CI runs the gate.
  if (!quick) {
    std::ofstream json("BENCH_recovery.json");
    json << "{\n";
    bench::WriteContext(json, "recovery_time", repeats);
    json << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const std::vector<RecoveryRun>& point = runs[i];
      const RecoveryRun& r = point.front();
      json << "    {\"commits\": " << r.commits << ", \"checkpointed\": "
           << (r.checkpointed ? "true" : "false")
           << ", \"wal_bytes\": " << r.wal_bytes
           << ", \"replayed\": " << r.replayed << ", ";
      bench::WriteSpread(json, "populate_s",
                         bench::SpreadOf(point, &RecoveryRun::populate_s))
          << ", ";
      bench::WriteSpread(json, "recover_ms",
                         bench::SpreadOf(point, &RecoveryRun::recover_ms))
          << ", ";
      bench::WriteSpread(json, "replay_per_s",
                         bench::SpreadOf(point, &RecoveryRun::replay_per_s))
          << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"shard_sweep\": [\n";
    for (size_t i = 0; i < shard_runs.size(); ++i) {
      const std::vector<ShardRun>& point = shard_runs[i];
      json << "    {\"shards\": " << shard_counts[i] << ", \"commits\": "
           << shard_commits << ", \"replayed\": " << point.front().replayed
           << ", ";
      bench::WriteSpread(json, "serial_wall_ms",
                         bench::SpreadOf(point, &ShardRun::serial_wall_ms))
          << ", ";
      bench::WriteSpread(json, "parallel_wall_ms",
                         bench::SpreadOf(point, &ShardRun::parallel_wall_ms))
          << ", ";
      bench::WriteSpread(json, "critical_path_ms",
                         bench::SpreadOf(point, &ShardRun::critical_path_ms))
          << ", ";
      bench::WriteSpread(json, "sum_shard_ms",
                         bench::SpreadOf(point, &ShardRun::sum_shard_ms))
          << "}" << (i + 1 < shard_runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"recovery_scaling_basis\": \""
         << (wall_basis ? "wall_clock" : "critical_path") << "\",\n"
         << "  \"recovery_wall_scaling_1to4\": " << wall_scaling << ",\n"
         << "  \"recovery_critical_path_scaling_1to4\": " << critical_path_scaling
         << ",\n"
         << "  \"recovery_scaling_1to4\": " << scaling_1to4 << ",\n"
         << "  \"checkpoint_speedup_at_max\": " << speedup << ",\n"
         << "  \"log_only_scaling\": " << scale << "\n}\n";
    json.close();
    bench::Row("wrote BENCH_recovery.json");
  } else {
    // The regression gate: 4-way sharded replay must beat 2x on the basis
    // this host can measure honestly, and the parallel pass must never be
    // meaningfully slower than the serial one (thread overhead bounded).
    if (scaling_1to4 < 2.0) {
      std::fprintf(stderr,
                   "FAIL: parallel recovery scaling 1->4 shards = %.2fx "
                   "(basis %s, need >= 2.0x)\n",
                   scaling_1to4, wall_basis ? "wall_clock" : "critical_path");
      return 1;
    }
    if (four_parallel_ms > 1.6 * four_serial_ms) {
      std::fprintf(stderr,
                   "FAIL: 4-shard parallel wall %.2fms vs serial %.2fms — "
                   "parallel replay is slower than serial\n",
                   four_parallel_ms, four_serial_ms);
      return 1;
    }
    bench::Row("quick gate passed: scaling %.2fx on %s basis", scaling_1to4,
               wall_basis ? "wall_clock" : "critical_path");
  }
  return 0;
}
