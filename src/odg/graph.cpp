#include "odg/graph.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace nagano::odg {
namespace {

// Widening lattice: data + object = both.
NodeKind WidenKind(NodeKind a, NodeKind b) {
  if (a == b) return a;
  return NodeKind::kBoth;
}

}  // namespace

ObjectDependenceGraph::ObjectDependenceGraph(
    const metrics::Options& metrics_options) {
  const auto scope = metrics::Scope::Resolve(metrics_options, "odg");
  cells_.Register(scope);
}

void ObjectDependenceGraph::BumpVersionLocked() {
  cells_.version->Increment();
  cells_.nodes->Set(static_cast<double>(kinds_.size()));
  cells_.edges->Set(static_cast<double>(edge_count_));
}

NodeId ObjectDependenceGraph::EnsureNode(std::string_view node_name,
                                         NodeKind node_kind) {
  {
    // Steady-state fast path: the node already exists with a kind at least
    // as wide as requested. Re-renders resolve every dependency through
    // here, so parallel workers must not serialize on the write lock.
    std::shared_lock lock(mutex_);
    const InternId existing = names_.Lookup(node_name);
    if (existing != kInvalidInternId && existing < kinds_.size() &&
        WidenKind(kinds_[existing], node_kind) == kinds_[existing]) {
      return existing;
    }
  }
  std::unique_lock lock(mutex_);
  const InternId id = names_.Intern(node_name);
  if (id >= kinds_.size()) {
    kinds_.resize(id + 1, node_kind);
    out_.resize(id + 1);
    in_.resize(id + 1);
    in_signature_.resize(id + 1);
    BumpVersionLocked();
  } else {
    const NodeKind widened = WidenKind(kinds_[id], node_kind);
    if (widened != kinds_[id]) {
      kinds_[id] = widened;
      BumpVersionLocked();
    }
  }
  return id;
}

bool ObjectDependenceGraph::InEdgesSigned(std::string_view node_name,
                                          uint64_t signature) const {
  std::shared_lock lock(mutex_);
  const InternId id = names_.Lookup(node_name);
  return signature != 0 && id != kInvalidInternId && id < kinds_.size() &&
         in_signature_[id] == signature;
}

NodeId ObjectDependenceGraph::Find(std::string_view node_name) const {
  std::shared_lock lock(mutex_);
  const InternId id = names_.Lookup(node_name);
  return id == kInvalidInternId ? kInvalidNode : id;
}

Status ObjectDependenceGraph::AddDependence(NodeId from, NodeId to,
                                            double weight) {
  std::unique_lock lock(mutex_);
  if (from >= kinds_.size() || to >= kinds_.size()) {
    return InvalidArgumentError("AddDependence: unknown node id");
  }
  if (from == to) {
    return InvalidArgumentError("AddDependence: self-dependence rejected");
  }
  if (weight <= 0.0) {
    return InvalidArgumentError("AddDependence: weight must be positive");
  }
  in_signature_[to] = 0;
  for (Edge& e : out_[from]) {
    if (e.to == to) {  // re-weight existing edge
      if (e.weight != weight) {
        e.weight = weight;
        for (Edge& r : in_[to]) {
          if (r.to == from) r.weight = weight;
        }
        if (weight != 1.0) has_custom_weights_ = true;
        BumpVersionLocked();
      }
      return Status::Ok();
    }
  }
  out_[from].push_back(Edge{to, weight});
  in_[to].push_back(Edge{from, weight});
  ++edge_count_;
  BumpVersionLocked();
  if (weight != 1.0) has_custom_weights_ = true;
  return Status::Ok();
}

Status ObjectDependenceGraph::RemoveDependence(NodeId from, NodeId to) {
  std::unique_lock lock(mutex_);
  if (from >= kinds_.size() || to >= kinds_.size()) {
    return InvalidArgumentError("RemoveDependence: unknown node id");
  }
  auto& edges = out_[from];
  auto it = std::find_if(edges.begin(), edges.end(),
                         [to](const Edge& e) { return e.to == to; });
  if (it == edges.end()) {
    return NotFoundError("RemoveDependence: edge absent");
  }
  edges.erase(it);
  in_signature_[to] = 0;
  auto& rev = in_[to];
  rev.erase(std::find_if(rev.begin(), rev.end(),
                         [from](const Edge& e) { return e.to == from; }));
  --edge_count_;
  BumpVersionLocked();
  return Status::Ok();
}

void ObjectDependenceGraph::ClearInEdges(NodeId of) {
  std::unique_lock lock(mutex_);
  if (of >= kinds_.size()) return;
  for (const Edge& e : in_[of]) {
    auto& edges = out_[e.to];
    edges.erase(std::find_if(edges.begin(), edges.end(),
                             [of](const Edge& o) { return o.to == of; }));
    --edge_count_;
  }
  const bool changed = !in_[of].empty();
  in_[of].clear();
  in_signature_[of] = 0;
  if (changed) BumpVersionLocked();
}

bool ObjectDependenceGraph::InEdgesEqualLocked(
    NodeId of, const std::vector<Edge>& sorted_sources) const {
  const auto& current = in_[of];
  if (current.size() != sorted_sources.size()) return false;
  std::vector<Edge> cur = current;
  std::sort(cur.begin(), cur.end(),
            [](const Edge& a, const Edge& b) { return a.to < b.to; });
  for (size_t i = 0; i < cur.size(); ++i) {
    if (cur[i].to != sorted_sources[i].to ||
        cur[i].weight != sorted_sources[i].weight) {
      return false;
    }
  }
  return true;
}

void ObjectDependenceGraph::SetInEdges(NodeId of, std::vector<Edge> sources,
                                       uint64_t signature) {
  // Dedup keeping the last occurrence's weight; drop self-edges and
  // non-positive weights. Dependency lists are tens of entries, so the
  // quadratic scan beats hashing.
  std::vector<Edge> desired;
  desired.reserve(sources.size());
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    if (it->to == of || it->weight <= 0.0) continue;
    const NodeId src = it->to;
    const bool seen = std::any_of(
        desired.begin(), desired.end(),
        [src](const Edge& e) { return e.to == src; });
    if (!seen) desired.push_back(*it);
  }
  std::sort(desired.begin(), desired.end(),
            [](const Edge& a, const Edge& b) { return a.to < b.to; });

  {
    std::shared_lock lock(mutex_);
    if (of >= kinds_.size()) return;
    if (in_signature_[of] == signature && InEdgesEqualLocked(of, desired)) {
      return;
    }
  }

  std::unique_lock lock(mutex_);
  if (of >= kinds_.size()) return;
  if (InEdgesEqualLocked(of, desired)) {  // raced with an equal writer
    in_signature_[of] = signature;
    return;
  }
  in_signature_[of] = signature;
  for (const Edge& e : in_[of]) {
    auto& edges = out_[e.to];
    edges.erase(std::find_if(edges.begin(), edges.end(),
                             [of](const Edge& o) { return o.to == of; }));
    --edge_count_;
  }
  in_[of].clear();
  for (const Edge& e : desired) {
    if (e.to >= kinds_.size()) continue;
    out_[e.to].push_back(Edge{of, e.weight});
    in_[of].push_back(e);
    ++edge_count_;
    if (e.weight != 1.0) has_custom_weights_ = true;
  }
  BumpVersionLocked();
}

bool ObjectDependenceGraph::HasEdgeLocked(NodeId from, NodeId to) const {
  if (from >= out_.size()) return false;
  return std::any_of(out_[from].begin(), out_[from].end(),
                     [to](const Edge& e) { return e.to == to; });
}

bool ObjectDependenceGraph::HasEdge(NodeId from, NodeId to) const {
  std::shared_lock lock(mutex_);
  return HasEdgeLocked(from, to);
}

NodeKind ObjectDependenceGraph::kind(NodeId id) const {
  std::shared_lock lock(mutex_);
  assert(id < kinds_.size());
  return kinds_[id];
}

std::string_view ObjectDependenceGraph::name(NodeId id) const {
  // StringInterner is internally synchronized and storage is stable.
  return names_.Name(id);
}

size_t ObjectDependenceGraph::node_count() const {
  std::shared_lock lock(mutex_);
  return kinds_.size();
}

size_t ObjectDependenceGraph::edge_count() const {
  std::shared_lock lock(mutex_);
  return edge_count_;
}

GraphStats ObjectDependenceGraph::stats() const {
  std::shared_lock lock(mutex_);
  return cells_.Snapshot();
}

std::vector<Edge> ObjectDependenceGraph::OutEdges(NodeId id) const {
  std::shared_lock lock(mutex_);
  assert(id < out_.size());
  return out_[id];
}

std::vector<Edge> ObjectDependenceGraph::InEdges(NodeId id) const {
  std::shared_lock lock(mutex_);
  assert(id < in_.size());
  return in_[id];
}

bool ObjectDependenceGraph::IsSimple() const {
  std::shared_lock lock(mutex_);
  if (has_custom_weights_) return false;
  for (NodeId v = 0; v < kinds_.size(); ++v) {
    switch (kinds_[v]) {
      case NodeKind::kUnderlyingData:
        if (!in_[v].empty()) return false;
        break;
      case NodeKind::kObject:
        if (!out_[v].empty()) return false;
        break;
      case NodeKind::kBoth:
        // An intermediate vertex: the graph is not simple per Fig. 2.
        if (!in_[v].empty() && !out_[v].empty()) return false;
        break;
    }
  }
  return true;
}

}  // namespace nagano::odg
