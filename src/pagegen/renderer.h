// Page renderer with automatic dependency recording.
//
// Every cacheable object at the Olympic site — full pages and shared
// fragments — is produced by a registered generator. While a generator
// runs, it records the underlying data it read (database rows/tables,
// editorial files) and every fragment it spliced; the renderer then syncs
// those observations into the Object Dependence Graph. This is the
// "application program ... responsible for communicating data dependencies
// ... to the cache" of paper §2, automated so the ODG can never drift from
// what a page actually contains.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/object_cache.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/single_flight.h"
#include "common/stats.h"
#include "odg/graph.h"
#include "pagegen/template.h"

namespace nagano::pagegen {

// Collects the underlying-data names a generator reads. Names follow the
// convention "<table>:<key>" for a row and "<table>:*" for a whole-table
// scan (e.g. the medal standings page depends on "countries:*").
//
// The optional weight expresses the importance of the dependence (paper
// Fig. 1): a result table is the substance of an event page (high weight)
// while the latest-news box is garnish (low weight). Weights feed the
// quantitative-obsolescence threshold policy; with the default weight the
// ODG stays unweighted.
//
// Names are copied into one buffer, so recording costs no allocation per
// dependency once the buffer has grown.
class DependencyRecorder {
 public:
  DependencyRecorder() {
    names_.reserve(256);
    deps_.reserve(16);
  }

  void DependsOnData(std::string_view node_name, double weight = 1.0);

  size_t size() const { return deps_.size(); }
  std::string_view name(size_t i) const {
    return std::string_view(names_).substr(deps_[i].at, deps_[i].size);
  }
  double weight(size_t i) const { return deps_[i].weight; }

 private:
  struct Dep {
    uint32_t at = 0;
    uint32_t size = 0;
    double weight = 1.0;
  };
  std::string names_;
  std::vector<Dep> deps_;
};

struct RenderRequest {
  std::string_view page;            // object name, e.g. "/event/12/results"
  DependencyRecorder& deps;         // record data dependencies here
  const FragmentResolver& fragments;  // pass to CompiledTemplate::Render
};

// Produces the page body. Fragment usage is recorded by the resolver; data
// usage by the recorder.
using PageGenerator = std::function<Result<std::string>(const RenderRequest&)>;

// Every RendererStats counter, declared once (see common/metrics.h).
//  * plans_stored: pages stored as composition plans (static chunks +
//    fragment refs) instead of flat bodies.
//  * renders_coalesced: fragment-granularity single-flight, so two pages
//    racing on one hot fragment cost one fragment render.
#define NAGANO_RENDERER_METRICS(X)                                            \
  X(Counter, pages_rendered, "nagano_renderer_pages_rendered_total",          \
    "successful page/fragment renders")                                       \
  X(Counter, fragment_cache_hits, "nagano_renderer_fragment_cache_hits_total", \
    "fragments spliced straight from cache")                                  \
  X(Counter, generator_errors, "nagano_renderer_generator_errors_total",      \
    "generator invocations that failed")                                      \
  X(Counter, plans_stored, "nagano_renderer_plans_stored_total",              \
    "pages stored as composition plans")                                      \
  X(Counter, renders_coalesced, "nagano_renderer_renders_coalesced_total",    \
    "renders adopting a concurrent flight's result")

struct RendererStats {
  NAGANO_METRIC_FIELDS(NAGANO_RENDERER_METRICS)
};

struct RendererOptions : OptionsBase {
  // Store pages that splice at least one fragment as composition plans
  // (ordered static chunks + pinned fragment refs, cache::PlanChunk) rather
  // than flat bodies. A data change then re-renders only the touched
  // fragment; every embedding page is patched by fragment swap. false is
  // the whole-page baseline the fanout bench compares against.
  bool compose_pages = true;
  metrics::Options metrics;

  Status Validate() const { return Status::Ok(); }
};

class PageRenderer {
 public:
  PageRenderer(odg::ObjectDependenceGraph* graph, cache::ObjectCache* cache,
               const metrics::Options& metrics_options = {});
  PageRenderer(odg::ObjectDependenceGraph* graph, cache::ObjectCache* cache,
               RendererOptions options);

  // Exact-name generator ("/medals") or prefix family ("/athlete/"). When
  // both match, exact wins; among prefixes, the longest wins.
  void RegisterExact(std::string name, PageGenerator generator);
  void RegisterPrefix(std::string prefix, PageGenerator generator);

  bool CanGenerate(std::string_view page) const;

  // Renders `page`, updates its ODG dependence edges, stores it in the
  // cache, and returns the stored snapshot (flat, or a composition plan
  // when the page splices fragments) — what the serving path hands to the
  // HTTP writer by reference. Fragments are pulled from the cache or
  // rendered (and cached) recursively; include cycles are an error.
  Result<std::shared_ptr<const cache::CachedObject>> RenderAndCache(
      std::string_view page);

  // Render without storing — used for never-cache pages and for measuring
  // raw generation cost. Returns the flat page bytes.
  Result<std::string> RenderOnly(std::string_view page);

  RendererStats stats() const;

 private:
  using Stored = std::shared_ptr<const cache::CachedObject>;
  // One frame of the chain of renders in progress on this stack — a page
  // and the pages whose fragments led to it — for cycle detection.
  struct RenderState {
    std::string_view page;
    const RenderState* outer;
  };
  // A generator run's output. A page that splices no fragment chunk ends
  // with its bytes in `raw` and an empty `plan`; in composition mode a page
  // that keeps at least one fragment chunk ends in `plan` (static chunks
  // and pinned fragment snapshots), and `raw` is the marker-bearing
  // generator output it was split from. `fragments` lists the fragments
  // the page spliced.
  struct Generated {
    std::string raw;
    std::vector<std::string> fragments;
    std::vector<cache::PlanChunk> plan;
  };

  // Caching render of `page` (fragments included), single-flight per name.
  Result<Stored> RenderCached(std::string_view page, const RenderState* outer);
  // RenderOnly of `page`, reached from the render chain `outer` (nullptr
  // at the public entry point).
  Result<std::string> RenderFlat(std::string_view page,
                                 const RenderState* outer);
  // Cycle check and generator lookup shared by both render kinds.
  Result<const PageGenerator*> Resolve(std::string_view page,
                                       const RenderState* outer) const;
  // Runs `generator` for state.page, resolves the fragment markers in its
  // output (BuildPlan), and syncs the page's ODG in-edges with what the run
  // recorded.
  Status Generate(const PageGenerator& generator, const RenderState& state,
                  Generated& out);
  // Records `recorder` + `fragments` as `page`'s in-edges, unless the page
  // already carries exactly this dependency list.
  void SyncDependencies(std::string_view page,
                        const DependencyRecorder& recorder,
                        const std::vector<std::string>& fragments);
  // Splits generated.raw on its fragment markers into generated.plan:
  // static byte runs and snapshots of the fragments that are live and flat
  // in the cache. A fragment gone from the cache or plan-shaped is inlined
  // as static text; when that leaves no fragment chunk, the plan stays
  // empty and generated.raw becomes the marker-free page.
  Status BuildPlan(Generated& generated, const RenderState& state);
  const PageGenerator* FindGenerator(std::string_view page) const;

  odg::ObjectDependenceGraph* graph_;
  cache::ObjectCache* cache_;
  RendererOptions options_;

  // In-progress caching renders by object name (fragments included):
  // concurrent requests for one object adopt its single generator run.
  SingleFlight<Result<Stored>> flights_;

  // Registration happens at site construction; every render takes the
  // shared side, so the trigger monitor's parallel re-render workers never
  // serialize on generator lookup.
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, PageGenerator, std::less<>> exact_;
  std::map<std::string, PageGenerator, std::less<>> prefixes_;

  // Registry-owned sharded counters — bumped on every render, and shared
  // locking would re-serialize the parallel re-render workers. stats() is a
  // thin snapshot view over these cells.
  NAGANO_METRIC_CELLS(Cells, NAGANO_RENDERER_METRICS, RendererStats);
  Cells cells_;
};

}  // namespace nagano::pagegen
