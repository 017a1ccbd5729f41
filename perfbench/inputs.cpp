#include "inputs.h"

#include <cstring>
#include <string_view>

#include "common/rng.h"

namespace perfbench {
namespace {

// Independent sub-streams of one workload seed.
constexpr uint64_t kPagesStream = 0x7061676573ULL;    // "pages"
constexpr uint64_t kArrivalStream = 0x6172726976ULL;  // "arriv"
constexpr uint64_t kFeedStream = 0x66656564ULL;       // "feed"

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over raw bytes.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Str(std::string_view s) {
    Bytes(s.data(), s.size());
    Bytes("\0", 1);
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof v);
  }
};

}  // namespace

Inputs GenerateInputs(const InputSpec& spec, uint64_t seed) {
  Inputs inputs;
  // The page inventory and the feed's fields come from a private copy of the
  // content database, never from the system under test.
  db::DatabaseOptions inventory_options;
  nagano::metrics::MetricRegistry registry;
  inventory_options.metrics.registry = &registry;
  inventory_options.metrics.instance = "inventory";
  db::Database inventory(std::move(inventory_options));
  if (!pagegen::OlympicSite::Build(spec.olympic, &inventory).ok()) return inputs;

  workload::PageSampler sampler(spec.olympic, inventory, spec.sampler);
  sampler.SetCurrentDay(spec.current_day);
  nagano::Rng pages(Mix(seed, kPagesStream));
  nagano::Rng arrivals(Mix(seed, kArrivalStream));
  inputs.reads.targets.reserve(spec.read_slots);
  inputs.reads.gaps.reserve(spec.read_slots);
  for (size_t i = 0; i < spec.read_slots; ++i) {
    inputs.reads.targets.push_back(sampler.Sample(pages));
    inputs.reads.gaps.push_back(arrivals.NextExponential(1.0));
  }

  workload::ResultFeed feed(&inventory, spec.feed, Mix(seed, kFeedStream));
  for (int d = 0; d < spec.feed_days; ++d) {
    for (auto& update : feed.BuildDaySchedule(spec.feed_first_day + d)) {
      inputs.commits.push_back(std::move(update));
    }
  }
  return inputs;
}

uint64_t Digest(const ReadStream& reads) {
  Fnv f;
  for (size_t i = 0; i < reads.targets.size(); ++i) {
    f.Str(reads.targets[i]);
    f.Pod(reads.gaps[i]);
  }
  return f.h;
}

uint64_t Digest(const std::vector<workload::FeedUpdate>& commits) {
  Fnv f;
  for (const auto& u : commits) {
    f.Pod(u.at);
    f.Pod(static_cast<uint8_t>(u.kind));
    f.Pod(u.event_id);
    f.Pod(u.rank);
    f.Pod(u.athlete_id);
    f.Pod(u.score);
    f.Pod(u.article_id);
    f.Str(u.title);
    f.Pod(u.photo_id);
  }
  return f.h;
}

}  // namespace perfbench
