// Exact-sample latency statistics for the benchmark.
//
// Every percentile the benchmark reports comes from here: the raw samples
// are kept (integer nanoseconds) and a quantile is the nearest-rank order
// statistic, found by selection. No bucketing, so sub-millisecond values are
// exact, and the sample count travels with every percentile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Samples {
 public:
  void Add(int64_t ns) { values_.push_back(ns); }
  size_t count() const { return values_.size(); }

  // Nearest-rank quantile, q in [0, 1]: the smallest sample v such that at
  // least ceil(q * n) samples are <= v (q = 0 gives the minimum). Returns 0
  // for an empty set.
  int64_t QuantileNs(double q) const {
    if (values_.empty()) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const size_t n = values_.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    std::vector<int64_t> scratch = values_;
    auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(scratch.begin(), nth, scratch.end());
    return *nth;
  }

  double QuantileMs(double q) const { return QuantileNs(q) / 1e6; }
  double QuantileUs(double q) const { return QuantileNs(q) / 1e3; }

  int64_t MaxNs() const {
    return values_.empty() ? 0
                           : *std::max_element(values_.begin(), values_.end());
  }

  // Samples strictly greater than `ns`.
  size_t CountAbove(int64_t ns) const {
    return static_cast<size_t>(std::count_if(
        values_.begin(), values_.end(), [ns](int64_t v) { return v > ns; }));
  }

 private:
  std::vector<int64_t> values_;
};

}  // namespace perfbench
