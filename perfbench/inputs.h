// Seeded workload inputs. Everything the benchmark feeds the system under
// test is generated here, from the workload seed alone, before the system is
// built: the read stream (pages + arrival gaps) and the scoring-feed commit
// stream. The system receives only these generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "db/database.h"
#include "loadgen.h"
#include "pagegen/olympic.h"
#include "workload/feed.h"
#include "workload/sampler.h"

namespace perfbench {

namespace db = nagano::db;
namespace pagegen = nagano::pagegen;
namespace workload = nagano::workload;

struct InputSpec {
  pagegen::OlympicConfig olympic;
  workload::SamplerOptions sampler;
  int current_day = 8;          // the hot day for page sampling
  size_t read_slots = 1 << 18;  // read stream length (phases wrap)
  workload::FeedOptions feed;
  int feed_first_day = 1;       // feed replays these games days in order
  int feed_days = 16;
};

struct Inputs {
  ReadStream reads;
  std::vector<workload::FeedUpdate> commits;
};

// Same spec and seed -> identical inputs.
Inputs GenerateInputs(const InputSpec& spec, uint64_t seed);

// Order-sensitive digests, for the determinism self-test and the run log.
uint64_t Digest(const ReadStream& reads);
uint64_t Digest(const std::vector<workload::FeedUpdate>& commits);

}  // namespace perfbench
