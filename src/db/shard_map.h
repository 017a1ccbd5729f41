// Shard placement for the partitioned database tier (ISSUE 8 tentpole).
//
// The database splits its tables into N independent shards; the ShardMap
// decides which shard owns a primary key. Placement must be a pure function
// of (table, key, num_shards) and identical across processes: replicas
// mirror the master's per-shard numbering record by record, and recovery
// re-derives ownership from the key alone, so a map that hashed
// differently per process (std::hash is free to) would silently corrupt
// both. The default map is FNV-1a over the canonical key string.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/fnv.h"

namespace nagano::db {

// Sentinel shard filter: deliver changes from every shard.
inline constexpr uint32_t kAllShards = UINT32_MAX;

class ShardMap {
 public:
  virtual ~ShardMap() = default;
  // Shard owning `key` (its canonical KeyString) in `table`. Must return a
  // value < num_shards and be deterministic across processes and runs.
  virtual uint32_t ShardOf(std::string_view table, std::string_view key,
                           uint32_t num_shards) const = 0;
};

// Default placement: FNV-1a of the key bytes, modulo the shard count. The
// table name is deliberately not hashed — co-locating a key's rows across
// tables keeps the Olympic generators' per-entity reads single-shard.
class HashShardMap final : public ShardMap {
 public:
  uint32_t ShardOf(std::string_view, std::string_view key,
                   uint32_t num_shards) const override {
    const uint64_t h = Fnv1a(key, kPlacementBasis);
    return num_shards <= 1 ? 0 : static_cast<uint32_t>(h % num_shards);
  }

  // Placement has always started from this value rather than the standard
  // offset basis; it stays, since another start would move keys between
  // shards of existing data.
  static constexpr uint64_t kPlacementBasis = 1469598103934665603ull;

  static const HashShardMap& Instance() {
    static const HashShardMap map;
    return map;
  }
};

// Position in the shard-aware change feed: positions[k] is the last
// consumed per-shard seqno of shard k (0 = from genesis). A cursor shorter
// than the shard count reads the missing shards from genesis, so a
// default-constructed cursor means "everything".
struct ChangeCursor {
  std::vector<uint64_t> positions;

  bool empty() const { return positions.empty(); }
  uint64_t at(size_t shard) const {
    return shard < positions.size() ? positions[shard] : 0;
  }
};

}  // namespace nagano::db
