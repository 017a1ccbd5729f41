#include "pagegen/renderer.h"

#include <cassert>
#include <charconv>

#include "common/clock.h"
#include "common/fnv.h"

namespace nagano::pagegen {
namespace {

// Sentinels the composition-mode fragment resolver returns in place of the
// fragment body. Generators splice the resolver's result verbatim (raw
// {{{...}}} substitution), so the flat output can be split back into static
// chunks and fragment refs afterwards. A marker names its fragment by index
// in the render's fragment list, so it fits a short string's inline buffer.
// The bytes contain control characters that never occur in rendered content.
constexpr std::string_view kFragMarkOpen = "\x01\x02";
constexpr std::string_view kFragMarkClose = "\x02\x01";

// How long a coalesced render waits for the leading flight before giving up
// and rendering on its own. Only a cross-thread include cycle (two leaders
// mutually waiting on each other's fragments) can hit this; the fallback
// render then reports the cycle through the ordinary RenderState check.
constexpr TimeNs kFlightFallback = 2 * kSecond;

RendererOptions WithMetrics(const metrics::Options& metrics_options) {
  RendererOptions options;
  options.metrics = metrics_options;
  return options;
}

}  // namespace

void DependencyRecorder::DependsOnData(std::string_view node_name,
                                       double weight) {
  deps_.push_back(Dep{static_cast<uint32_t>(names_.size()),
                      static_cast<uint32_t>(node_name.size()), weight});
  names_.append(node_name);
}

PageRenderer::PageRenderer(odg::ObjectDependenceGraph* graph,
                           cache::ObjectCache* cache,
                           const metrics::Options& metrics_options)
    : PageRenderer(graph, cache, WithMetrics(metrics_options)) {}

PageRenderer::PageRenderer(odg::ObjectDependenceGraph* graph,
                           cache::ObjectCache* cache, RendererOptions options)
    : graph_(graph),
      cache_(cache),
      options_(ValidateOrDie(options, "RendererOptions")) {
  assert(graph_ != nullptr);
  assert(cache_ != nullptr);
  const auto scope = metrics::Scope::Resolve(options_.metrics, "renderer");
  cells_.Register(scope);
}

void PageRenderer::RegisterExact(std::string name, PageGenerator generator) {
  std::unique_lock lock(registry_mutex_);
  exact_[std::move(name)] = std::move(generator);
}

void PageRenderer::RegisterPrefix(std::string prefix, PageGenerator generator) {
  std::unique_lock lock(registry_mutex_);
  prefixes_[std::move(prefix)] = std::move(generator);
}

const PageGenerator* PageRenderer::FindGenerator(std::string_view page) const {
  // std::map node pointers are stable and generators are never erased, so
  // the returned pointer outlives the lock.
  std::shared_lock lock(registry_mutex_);
  if (auto it = exact_.find(page); it != exact_.end()) {
    return &it->second;
  }
  // Longest matching prefix: scan candidates not past `page` in order.
  const PageGenerator* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, gen] : prefixes_) {
    if (page.starts_with(prefix) && prefix.size() >= best_len) {
      best = &gen;
      best_len = prefix.size();
    }
  }
  return best;
}

bool PageRenderer::CanGenerate(std::string_view page) const {
  return FindGenerator(page) != nullptr;
}

Result<std::shared_ptr<const cache::CachedObject>> PageRenderer::RenderAndCache(
    std::string_view page) {
  return RenderCached(page, /*outer=*/nullptr);
}

Result<std::string> PageRenderer::RenderOnly(std::string_view page) {
  return RenderFlat(page, /*outer=*/nullptr);
}

Result<const PageGenerator*> PageRenderer::Resolve(
    std::string_view page, const RenderState* outer) const {
  for (const RenderState* s = outer; s != nullptr; s = s->outer) {
    if (s->page == page) {
      return FailedPreconditionError("fragment include cycle at " +
                                     std::string(page));
    }
  }
  const PageGenerator* generator = FindGenerator(page);
  if (generator == nullptr) {
    return NotFoundError("no generator for " + std::string(page));
  }
  return generator;
}

Result<std::string> PageRenderer::RenderFlat(std::string_view page,
                                             const RenderState* outer) {
  auto generator = Resolve(page, outer);
  if (!generator.ok()) return generator.status();
  const RenderState state{page, outer};
  Generated generated;
  if (Status s = Generate(*generator.value(), state, generated); !s.ok()) {
    return s;
  }
  if (generated.plan.empty()) return std::move(generated.raw);
  std::string body;
  size_t total = 0;
  for (const cache::PlanChunk& chunk : generated.plan) {
    total += chunk.bytes().size();
  }
  body.reserve(total);
  for (const cache::PlanChunk& chunk : generated.plan) body += chunk.bytes();
  return body;
}

Result<PageRenderer::Stored> PageRenderer::RenderCached(
    std::string_view page, const RenderState* outer) {
  auto generator = Resolve(page, outer);
  if (!generator.ok()) return generator.status();
  const RenderState state{page, outer};

  // The generator run, ODG sync and store — what one flight does.
  auto render = [&]() -> Result<Stored> {
    Generated generated;
    if (Status s = Generate(*generator.value(), state, generated); !s.ok()) {
      return s;
    }
    if (generated.plan.empty()) {
      return cache_->Put(page, std::move(generated.raw));
    }
    cells_.plans_stored->Increment();
    return cache_->PutPlan(page, std::move(generated.plan));
  };

  const std::string page_name(page);
  const auto flight = flights_.Join(page_name, /*deadline=*/0);
  if (flight.leader) {
    Result<Stored> stored = render();
    flights_.Publish(page_name, flight, stored);
    return stored;
  }
  const Clock& clock = RealClock::Instance();
  if (auto stored = flights_.Await(flight, clock.Now() + kFlightFallback,
                                   clock)) {
    cells_.renders_coalesced->Increment();
    return *std::move(stored);
  }
  // Leader stuck (cross-thread include cycle): render independently; the
  // state chain in the recursive render reports genuine cycles.
  return render();
}

Status PageRenderer::Generate(const PageGenerator& generator,
                              const RenderState& state, Generated& out) {
  DependencyRecorder recorder;
  uint64_t fragment_hits = 0;
  const bool compose = options_.compose_pages;

  // Fragments come from the cache when present; otherwise they are rendered
  // (and cached) recursively, sharing this render's state chain. In
  // composition mode the resolver only *ensures* the fragment is cached and
  // hands the generator a marker naming the fragment by index; the output
  // is split on the markers into this page's composition plan afterwards.
  // The lambda captures one pointer, so the FragmentResolver holding it
  // does not allocate.
  struct ResolverState {
    PageRenderer* renderer;
    const RenderState* state;
    Generated* out;
    uint64_t* fragment_hits;
    bool compose;
  } resolver_state{this, &state, &out, &fragment_hits, compose};
  FragmentResolver resolver =
      [rs = &resolver_state](std::string_view fragment) -> Result<std::string> {
    PageRenderer& self = *rs->renderer;
    rs->out->fragments.emplace_back(fragment);
    if (!rs->compose) {
      if (auto cached = self.cache_->Peek(fragment)) {
        ++*rs->fragment_hits;
        return cached->Materialize();
      }
      auto stored = self.RenderCached(fragment, rs->state);
      if (!stored.ok()) return stored.status();
      return stored.value()->Materialize();
    }
    if (self.cache_->Contains(fragment)) {
      ++*rs->fragment_hits;
    } else if (auto stored = self.RenderCached(fragment, rs->state);
               !stored.ok()) {
      return stored.status();
    }
    char index[24];
    const auto [end, ec] = std::to_chars(
        index, index + sizeof(index), rs->out->fragments.size() - 1);
    std::string marker(kFragMarkOpen);
    marker.append(index, end);
    marker += kFragMarkClose;
    return marker;
  };

  RenderRequest request{state.page, recorder, resolver};
  Result<std::string> body = generator(request);
  Status status = body.status();
  if (body.ok()) {
    out.raw = std::move(body).value();
    if (compose && !out.fragments.empty()) {
      status = BuildPlan(out, state);
    }
  }
  if (!status.ok()) {
    cells_.generator_errors->Increment();
    return status;
  }
  SyncDependencies(state.page, recorder, out.fragments);
  cells_.pages_rendered->Increment();
  if (fragment_hits != 0) cells_.fragment_cache_hits->Increment(fragment_hits);
  return Status::Ok();
}

void PageRenderer::SyncDependencies(std::string_view page,
                                    const DependencyRecorder& recorder,
                                    const std::vector<std::string>& fragments) {
  // FNV-1a over the list as recorded (names length-prefixed, weights by
  // bit pattern). A re-render that records the same list — the steady
  // state — stops at one signature probe instead of resolving every name.
  uint64_t signature = kFnv1aOffsetBasis;
  auto mix = [&signature](const void* data, size_t n) {
    signature = Fnv1a(data, n, signature);
  };
  auto mix_name = [&mix](std::string_view name) {
    const uint64_t size = name.size();
    mix(&size, sizeof(size));
    mix(name.data(), name.size());
  };
  for (size_t i = 0; i < recorder.size(); ++i) {
    mix_name(recorder.name(i));
    const double weight = recorder.weight(i);
    mix(&weight, sizeof(weight));
  }
  const uint64_t data_deps = recorder.size();
  mix(&data_deps, sizeof(data_deps));
  for (const std::string& fragment : fragments) mix_name(fragment);
  if (signature == 0) signature = 1;  // 0 means "unsigned" to the graph
  if (graph_->InEdgesSigned(page, signature)) return;

  // This page's in-edges become exactly what this render observed. Kind
  // widening in EnsureNode turns a page that others embed into kBoth
  // automatically.
  const odg::NodeId page_node =
      graph_->EnsureNode(page, odg::NodeKind::kObject);
  std::vector<odg::Edge> sources;
  sources.reserve(recorder.size() + fragments.size());
  for (size_t i = 0; i < recorder.size(); ++i) {
    sources.push_back(odg::Edge{
        graph_->EnsureNode(recorder.name(i), odg::NodeKind::kUnderlyingData),
        recorder.weight(i)});
  }
  for (const std::string& fragment : fragments) {
    sources.push_back(
        odg::Edge{graph_->EnsureNode(fragment, odg::NodeKind::kBoth), 1.0});
  }
  graph_->SetInEdges(page_node, std::move(sources), signature);
}

Status PageRenderer::BuildPlan(Generated& generated, const RenderState& state) {
  const std::string_view raw = generated.raw;
  std::vector<cache::PlanChunk> plan;
  plan.reserve(2 * generated.fragments.size() + 1);
  bool has_fragment_chunk = false;
  // Static bytes extend the last chunk when it is static text.
  auto text = [&plan](std::string_view bytes) {
    if (bytes.empty()) return;
    if (plan.empty() || plan.back().is_fragment()) plan.emplace_back();
    plan.back().text += bytes;
  };
  size_t pos = 0;   // first byte not yet taken
  size_t scan = 0;  // where to look for the next marker
  for (;;) {
    const size_t open = raw.find(kFragMarkOpen, scan);
    if (open == std::string_view::npos) break;
    // Marker: open, the fragment's index in decimal, close. Anything else
    // starting with the open bytes is page content and stays text.
    const char* digits = raw.data() + open + kFragMarkOpen.size();
    const char* end = raw.data() + raw.size();
    size_t index = 0;
    const auto [after, ec] = std::from_chars(digits, end, index);
    if (ec != std::errc{} || index >= generated.fragments.size() ||
        !std::string_view(after, end - after).starts_with(kFragMarkClose)) {
      scan = open + 1;
      continue;
    }
    text(raw.substr(pos, open - pos));
    pos = static_cast<size_t>(after - raw.data()) + kFragMarkClose.size();
    scan = pos;

    const std::string& name = generated.fragments[index];
    auto source = cache_->Peek(name);
    if (source != nullptr && !source->is_plan()) {
      cache::PlanChunk& chunk = plan.emplace_back();
      chunk.fragment = name;
      chunk.fragment_version = source->version;
      chunk.source = std::move(source);
      has_fragment_chunk = true;
      continue;
    }
    // The fragment vanished between the resolver and here (capacity
    // eviction) or is itself plan-shaped — inline its bytes as static text
    // so chunk refs stay flat, single-span views.
    if (source != nullptr) {
      text(source->Materialize());
      continue;
    }
    Result<std::string> inlined = RenderFlat(name, &state);
    if (!inlined.ok()) return inlined.status();
    text(inlined.value());
  }
  text(raw.substr(pos));
  if (has_fragment_chunk) {
    generated.plan = std::move(plan);
  } else {
    // Every fragment was inlined: the page is flat — at most one static
    // chunk — and raw (the view above is done with) becomes its bytes.
    generated.raw = plan.empty() ? std::string() : std::move(plan.front().text);
  }
  return Status::Ok();
}

RendererStats PageRenderer::stats() const { return cells_.Snapshot(); }

}  // namespace nagano::pagegen
