// The system under test, assembled from the library's public API: a
// WAL-backed master database replicated (paper Fig. 5) into two backend
// replicas, each a ServingSite built around its replica with an HTTP front
// end, and one Dispatcher with one reactor in front of both backends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/serving_site.h"
#include "db/database.h"
#include "dispatch/dispatcher.h"
#include "pagegen/olympic.h"
#include "replication/replication.h"
#include "server/serving.h"
#include "wal/wal.h"

namespace perfbench {

namespace core = nagano::core;
namespace dispatch = nagano::dispatch;
namespace replication = nagano::replication;
namespace server = nagano::server;
namespace wal = nagano::wal;

// Backends behind the dispatcher.
inline constexpr size_t kBackends = 2;
// The master WAL's deployable default: fsync before every commit returns.
inline constexpr wal::SyncPolicy kMasterSyncPolicy = wal::SyncPolicy::kPerCommit;

struct TopologyOptions {
  nagano::pagegen::OlympicConfig olympic;
  size_t cache_capacity_bytes = 0;  // per backend; 0 = unbounded
  std::string wal_dir;              // fresh directory for the master's WAL
};

class Topology {
 public:
  // Builds and starts everything; returns once every backend is routable
  // through the dispatcher.
  static nagano::Result<std::unique_ptr<Topology>> Start(
      const TopologyOptions& options);
  ~Topology();

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  // Stops the dispatcher, the front ends and the trigger monitors.
  void Stop();

  uint16_t dispatcher_port() const { return dispatcher_->port(); }
  uint16_t backend_port(size_t i) const { return backends_[i].front->port(); }
  size_t backend_count() const { return backends_.size(); }
  core::ServingSite& site(size_t i) { return *backends_[i].site; }
  server::HttpFrontEnd& front(size_t i) { return *backends_[i].front; }
  nagano::db::Database& master() { return *master_; }
  wal::WriteAheadLog& master_wal() { return *wal_; }
  replication::ReplicationTopology& replication() { return *replication_; }
  dispatch::Dispatcher& dispatcher() { return *dispatcher_; }

 private:
  Topology() = default;

  struct Backend {
    std::unique_ptr<core::ServingSite> site;
    std::unique_ptr<server::HttpFrontEnd> front;
  };

  // Declaration order is teardown order reversed: the dispatcher goes
  // first, the registry every subsystem counts into goes last.
  nagano::metrics::MetricRegistry registry_;
  std::unique_ptr<wal::WriteAheadLog> wal_;
  std::unique_ptr<nagano::db::Database> master_;
  std::vector<Backend> backends_;
  std::unique_ptr<replication::ReplicationTopology> replication_;
  std::unique_ptr<dispatch::Dispatcher> dispatcher_;
  bool stopped_ = false;
};

}  // namespace perfbench
