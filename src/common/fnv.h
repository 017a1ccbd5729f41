// FNV-1a: a short, deterministic byte hash. Unlike std::hash its value is
// the same in every process, build and run, so it can place data (shard
// maps) and sign content that outlives one process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nagano {

inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

// Folds `n` bytes at `data` into `hash`; chain calls to hash a sequence.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t hash = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t hash = kFnv1aOffsetBasis) {
  return Fnv1a(bytes.data(), bytes.size(), hash);
}

}  // namespace nagano
