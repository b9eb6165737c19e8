// Summary statistics of per-round wall times.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100].
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(v.begin(), v.end());
  // The epsilon keeps a percentile computed as 100 * k / n on rank k.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const auto idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median as the mean of the two middle samples for an even count.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail of a timing sample: the highest nearest-rank percentile that
/// still has at least `beyond` samples above it, i.e. the (beyond+1)-th
/// largest sample, reported with its percentile (n - beyond) / n and the
/// sample count it was taken from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in percent
  int64_t samples = 0;
  int64_t beyond = 0;       ///< samples strictly above `value`'s rank
};

[[nodiscard]] inline Tail tail(std::vector<double> v, int64_t beyond = 10) {
  const auto n = static_cast<int64_t>(v.size());
  if (beyond < 0 || n <= beyond)
    throw std::invalid_argument("tail needs more samples than the count "
                                "required beyond it");
  std::sort(v.begin(), v.end());
  Tail t;
  t.value = v[static_cast<size_t>(n - beyond - 1)];
  t.percentile = 100.0 * static_cast<double>(n - beyond) /
                 static_cast<double>(n);
  t.samples = n;
  t.beyond = beyond;
  return t;
}

/// The tail of a long sample, robust to a burst of interference: split the
/// samples into `blocks` consecutive blocks of equal size (a remainder of
/// fewer than `blocks` trailing samples is dropped), take each block's
/// tail, and report the median block's value with the per-block
/// percentile, block size and block count.
struct BlockTail {
  double value = 0.0;
  double percentile = 0.0;  ///< of each block, in percent
  int64_t block_samples = 0;
  int64_t blocks = 0;
};

[[nodiscard]] inline BlockTail block_tail(const std::vector<double>& v,
                                          int64_t blocks,
                                          int64_t beyond = 10) {
  const auto n = static_cast<int64_t>(v.size());
  if (blocks < 1) throw std::invalid_argument("block_tail needs a block");
  const int64_t m = n / blocks;
  std::vector<double> tails;
  Tail t;
  for (int64_t b = 0; b < blocks; ++b) {
    t = tail(std::vector<double>(v.begin() + b * m, v.begin() + (b + 1) * m),
             beyond);
    tails.push_back(t.value);
  }
  BlockTail out;
  out.value = median(tails);
  out.percentile = t.percentile;
  out.block_samples = m;
  out.blocks = blocks;
  return out;
}

}  // namespace perfbench
