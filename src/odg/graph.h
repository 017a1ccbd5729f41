// Object Dependence Graph (ODG) — Section 2 of the paper.
//
// Vertices are either *underlying data* (database rows/tables that change),
// *objects* (cacheable items: pages, fragments), or both (a fragment is an
// object and also underlying data for the pages embedding it). A directed
// edge v -> u means "a change to v also affects u". Edges carry optional
// weights expressing the importance of the dependence; weights drive the
// quantitative-obsolescence policy (see dup.h).
//
// The graph is mutated concurrently by the renderer (dependency recording
// during page generation) and read by the trigger monitor (DUP traversals),
// so all public methods are thread-safe via a reader/writer lock.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.h"
#include "common/metrics.h"
#include "common/result.h"

namespace nagano::odg {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

enum class NodeKind : uint8_t {
  kUnderlyingData,  // changes originate here (DB rows, editorial files)
  kObject,          // cacheable leaf (a full page)
  kBoth,            // cacheable and depended-upon (a page fragment)
};

struct Edge {
  NodeId to = kInvalidNode;
  double weight = 1.0;
};

// Every GraphStats metric, declared once (see common/metrics.h): exposed
// for the DUPSCALE bench and monitoring. version is bumped on every
// mutation.
#define NAGANO_ODG_METRICS(X)                                                 \
  X(Gauge, nodes, "nagano_odg_nodes", "ODG vertices")                         \
  X(Gauge, edges, "nagano_odg_edges", "ODG dependence edges")                 \
  X(Counter, version, "nagano_odg_mutations_total", "graph version bumps")

struct GraphStats {
  NAGANO_METRIC_FIELDS(NAGANO_ODG_METRICS)
};

class ObjectDependenceGraph {
 public:
  ObjectDependenceGraph() : ObjectDependenceGraph(metrics::Options{}) {}
  explicit ObjectDependenceGraph(const metrics::Options& metrics_options);

  ObjectDependenceGraph(const ObjectDependenceGraph&) = delete;
  ObjectDependenceGraph& operator=(const ObjectDependenceGraph&) = delete;

  // Returns the node named `name`, creating it with `kind` if absent. If the
  // node exists with a narrower kind, the kind is widened (e.g. an existing
  // kObject later used as a dependency source becomes kBoth).
  NodeId EnsureNode(std::string_view name, NodeKind kind);

  // kInvalidNode if the name has never been added.
  NodeId Find(std::string_view name) const;

  // Adds (or re-weights) the dependence edge from -> to: "a change to `from`
  // affects `to`". Self-edges are rejected.
  Status AddDependence(NodeId from, NodeId to, double weight = 1.0);
  Status RemoveDependence(NodeId from, NodeId to);

  // Drops every outgoing dependence of `from`. The renderer calls this
  // before re-recording a page's dependencies, keeping the ODG in sync with
  // the current template structure.
  void ClearInEdges(NodeId of);

  // Replaces the in-edge set of `of` with `sources` (Edge::to = source id;
  // among duplicate sources the last weight wins, matching repeated
  // AddDependence calls). When the requested set already matches, this
  // returns after a shared-lock comparison without writing — re-renders
  // that leave a page's dependencies unchanged (the steady state of the
  // parallel re-render pipeline) then never serialize on the write lock.
  void SetInEdges(NodeId of, std::vector<Edge> sources);

  bool HasEdge(NodeId from, NodeId to) const;

  NodeKind kind(NodeId id) const;
  std::string_view name(NodeId id) const;
  size_t node_count() const;
  size_t edge_count() const;
  GraphStats stats() const;

  // Copy of the outgoing edges of `id` (a copy so the caller holds no lock).
  std::vector<Edge> OutEdges(NodeId id) const;
  // Copy of the incoming edges of `id` (sources and weights).
  std::vector<Edge> InEdges(NodeId id) const;

  // A *simple* ODG (paper Fig. 2): every underlying-data vertex has no
  // incoming edge, every object vertex has no outgoing edge, and no edge
  // carries a non-default weight. DUP has a fast path for this shape.
  bool IsSimple() const;

  // Runs `fn(adjacency_out, adjacency_in, kinds)` under the read lock. Used
  // by the DUP engine to traverse without copying the whole graph.
  template <typename Fn>
  auto WithSnapshot(Fn&& fn) const {
    std::shared_lock lock(mutex_);
    return fn(out_, in_, kinds_);
  }

 private:
  // Unlocked internals; callers hold mutex_.
  // Bumps the version and mirrors nodes/edges into the registry cells.
  void BumpVersionLocked();
  bool HasEdgeLocked(NodeId from, NodeId to) const;
  // `sorted_sources` must be sorted by Edge::to.
  bool InEdgesEqualLocked(NodeId of, const std::vector<Edge>& sorted_sources) const;

  mutable std::shared_mutex mutex_;
  StringInterner names_;
  std::vector<NodeKind> kinds_;          // indexed by NodeId
  std::vector<std::vector<Edge>> out_;   // out_[v] = edges v -> u
  std::vector<std::vector<Edge>> in_;    // in_[u]  = edges v -> u (to = source)
  size_t edge_count_ = 0;
  bool has_custom_weights_ = false;

  // Registry mirrors of the lock-guarded state above, written only under
  // the exclusive lock, so stats() (under the shared lock) reads them
  // consistently.
  NAGANO_METRIC_CELLS(Cells, NAGANO_ODG_METRICS, GraphStats);
  Cells cells_;
};

}  // namespace nagano::odg
