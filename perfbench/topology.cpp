#include "topology.h"

#include <utility>

namespace perfbench {
namespace {

std::string BackendName(size_t i) {
  std::string name = "b";
  name += std::to_string(i);
  return name;
}

}  // namespace

nagano::Result<std::unique_ptr<Topology>> Topology::Start(
    const TopologyOptions& options) {
  std::unique_ptr<Topology> t(new Topology());
  nagano::metrics::MetricRegistry* registry = &t->registry_;

  wal::WalOptions wal_options;
  wal_options.dir = options.wal_dir;
  wal_options.sync_policy = kMasterSyncPolicy;
  wal_options.metrics = {registry, "master-wal"};
  auto wal_or = wal::WriteAheadLog::Open(std::move(wal_options));
  if (!wal_or.ok()) return wal_or.status();
  t->wal_ = std::move(wal_or.value());

  nagano::db::DatabaseOptions master_options;
  master_options.wal = t->wal_.get();
  master_options.metrics = {registry, "master"};
  t->master_ = std::make_unique<nagano::db::Database>(std::move(master_options));
  if (auto s = nagano::pagegen::OlympicSite::Build(options.olympic,
                                                   t->master_.get());
      !s.ok()) {
    return s;
  }

  replication::ReplicationOptions repl_options;
  repl_options.metrics = {registry, "repl"};
  t->replication_ =
      std::make_unique<replication::ReplicationTopology>(std::move(repl_options));
  if (auto s = t->replication_->AddNode("master", t->master_.get()); !s.ok()) {
    return s;
  }

  // Replicas start from the empty schema; content arrives through the
  // change log. Sites are built after the initial catch-up so their trigger
  // monitors start at the replicated watermark.
  std::vector<std::unique_ptr<nagano::db::Database>> replicas;
  for (size_t i = 0; i < kBackends; ++i) {
    const std::string name = BackendName(i);
    nagano::db::DatabaseOptions replica_options;
    replica_options.metrics = {registry, name + "-db"};
    auto replica =
        std::make_unique<nagano::db::Database>(std::move(replica_options));
    if (auto s = nagano::pagegen::OlympicSite::CreateSchema(replica.get());
        !s.ok()) {
      return s;
    }
    if (auto s = t->replication_->AddNode(name, replica.get()); !s.ok()) {
      return s;
    }
    if (auto s = t->replication_->SetFeed(name, "master", 0); !s.ok()) return s;
    replicas.push_back(std::move(replica));
  }
  t->replication_->PumpUntilQuiet();
  if (!t->replication_->Converged()) {
    return nagano::InternalError("replicas did not converge on the master");
  }

  std::vector<dispatch::BackendAddress> addresses;
  for (size_t i = 0; i < kBackends; ++i) {
    const std::string name = BackendName(i);
    core::SiteOptions site_options;
    site_options.olympic = options.olympic;
    site_options.cache_capacity_bytes = options.cache_capacity_bytes;
    site_options.metrics = {registry, name};
    auto site_or = core::ServingSite::CreateAround(std::move(site_options),
                                                   std::move(replicas[i]));
    if (!site_or.ok()) return site_or.status();
    Backend backend;
    backend.site = std::move(site_or.value());
    if (auto prefetched = backend.site->PrefetchAll(); !prefetched.ok()) {
      return prefetched.status();
    }
    backend.site->StartTrigger();

    server::FrontEndOptions front_options;
    front_options.http.metrics = {registry, name + "-http"};
    backend.front = std::make_unique<server::HttpFrontEnd>(
        &backend.site->page_server(), std::move(front_options));
    core::ServingSite* site = backend.site.get();
    backend.front->EnableAdmin(registry, [site] { return site->Health(); });
    if (auto s = backend.front->Start(); !s.ok()) return s;
    addresses.push_back({"127.0.0.1", backend.front->port(), name});
    t->backends_.push_back(std::move(backend));
  }

  dispatch::DispatcherOptions dispatch_options;
  dispatch_options.metrics = {registry, "dispatch"};
  t->dispatcher_ = std::make_unique<dispatch::Dispatcher>(
      std::move(addresses), std::move(dispatch_options));
  if (auto s = t->dispatcher_->Start(); !s.ok()) return s;
  for (size_t i = 0; i < kBackends; ++i) {
    if (auto s = t->dispatcher_->WaitHealthy(i, 10 * nagano::kSecond); !s.ok()) {
      return s;
    }
  }
  return t;
}

void Topology::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (dispatcher_ != nullptr) dispatcher_->Stop();
  for (Backend& b : backends_) {
    if (b.front != nullptr) b.front->Stop();
    if (b.site != nullptr) b.site->StopTrigger();
  }
}

Topology::~Topology() { Stop(); }

}  // namespace perfbench
