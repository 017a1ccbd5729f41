// Shared helpers for the figure/table reproduction binaries. Each bench
// prints the paper artifact it regenerates in a form directly comparable
// to the paper (same rows/series), plus the model inputs it used. The
// benches that write a BENCH_*.json share one report path below: the
// context block, median/min/max spreads over repeats, and the baseline
// reader their --quick gates compare against.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace nagano::bench {

inline void Header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline void Section(const char* name) { std::printf("\n--- %s ---\n", name); }

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

// Paper-vs-measured footer line used by EXPERIMENTS.md scraping.
inline void Compare(const char* metric, double paper, double measured,
                    const char* unit) {
  std::printf("[compare] %-38s paper=%-12.4g measured=%-12.4g %s\n", metric,
              paper, measured, unit);
}

inline void CompareText(const char* metric, const char* paper,
                        const char* measured) {
  std::printf("[compare] %-38s paper=%-12s measured=%-12s\n", metric, paper,
              measured);
}

// --- BENCH_*.json report path ------------------------------------------------

// Median plus min/max of one figure across repeats.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return Spread{(values[(n - 1) / 2] + values[n / 2]) / 2.0, values.front(),
                values.back()};
}

// `field` is a member pointer or a callable taking one Run.
template <typename Run, typename Field>
Spread SpreadOf(const std::vector<Run>& runs, Field field) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const Run& run : runs) {
    values.push_back(static_cast<double>(std::invoke(field, run)));
  }
  return SpreadOf(std::move(values));
}

// Writes `"key": median, "key_min": min, "key_max": max`.
inline std::ostream& WriteSpread(std::ostream& json, const char* key,
                                 const Spread& spread) {
  return json << "\"" << key << "\": " << spread.median << ", \"" << key
              << "_min\": " << spread.min << ", \"" << key
              << "_max\": " << spread.max;
}

// Pulls `"key": <x>` out of a baseline JSON. Minimal string scan — the
// file is our own machine-written artifact. nullopt when the file or the
// key is missing; a --quick gate treats that as a failure.
inline std::optional<double> BaselineValue(const std::string& path,
                                           const std::string& key) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string anchor = "\"" + key + "\": ";
  const size_t at = text.find(anchor);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + at + anchor.size(), nullptr);
}

// The checkout's abbreviated commit, with `-dirty` when tracked files
// differ from it, or "unknown" when git cannot tell (no git, or a tree
// without .git).
inline std::string GitSha() {
  std::string sha;
  if (FILE* pipe = ::popen("git -C '" NAGANO_SOURCE_DIR "' describe --always "
                           "--dirty --abbrev=7 --exclude='*' 2>/dev/null",
                           "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) sha += buf;
    if (::pclose(pipe) != 0) sha.clear();
  }
  if (!sha.empty() && sha.back() == '\n') sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

// The context lines every BENCH_*.json opens with: what ran, on how many
// hardware threads, from which build and commit, over how many repeats.
inline void WriteContext(std::ostream& json, const char* bench, int repeats) {
  json << "  \"bench\": \"" << bench << "\",\n"
       << "  \"host_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"build_type\": \"" << NAGANO_BUILD_TYPE << "\",\n"
       << "  \"git_sha\": \"" << GitSha() << "\",\n"
       << "  \"repeats\": " << repeats << ",\n";
}

}  // namespace nagano::bench
