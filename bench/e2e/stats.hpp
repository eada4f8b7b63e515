#pragma once
// Order statistics and closure arithmetic for the end-to-end benchmark.
//
// Kept free of any library dependency so selftest.cpp can pin the exact
// rules the reported numbers follow:
//  * exact_percentile — nearest rank: the smallest observed sample with at
//    least p·n samples at or below it. Never interpolated, so a reported
//    p95 is a move latency that actually happened, and with n >= 200 at
//    least 10 samples lie beyond it.
//  * median / quartiles — the conventions of Python's statistics.median and
//    statistics.quantiles(values, n=4) (the default "exclusive" method), so
//    spreads computed here and by a Python reader of the result files agree.
//  * blocked_percentile — the move-time estimator: the median over blocks
//    of consecutive samples of each block's exact percentile.
//  * interquartile_mean — the throughput estimator over per-second windows.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace e2e {

// Nearest-rank percentile, p in (0, 1]. Throws on an empty sample.
inline double exact_percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Samples strictly above the nearest-rank p-percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

// Python statistics.median.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// How many blocks blocked_percentile cuts n samples into: as many as hold
// at least `block` samples each, and at least one.
inline std::size_t percentile_blocks(std::size_t n, std::size_t block) {
  return std::max<std::size_t>(1, block > 0 ? n / block : 1);
}

// Median over consecutive blocks of `ordered` (near-equal sizes, each at
// least `block` samples when there are that many) of each block's exact
// percentile p. Throws on an empty sample.
inline double blocked_percentile(const std::vector<double>& ordered, double p,
                                 std::size_t block) {
  if (ordered.empty()) throw std::invalid_argument("percentile of empty sample");
  const std::size_t n = ordered.size();
  const std::size_t b = percentile_blocks(n, block);
  std::vector<double> per_block;
  for (std::size_t i = 0; i < b; ++i) {
    const auto first = ordered.begin() + static_cast<long>(i * n / b);
    const auto last = ordered.begin() + static_cast<long>((i + 1) * n / b);
    per_block.push_back(exact_percentile({first, last}, p));
  }
  return median(per_block);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// Python statistics.quantiles(v, n=4, method="exclusive"); needs n >= 2.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const auto cut = [&](int i) {
    const long m = n + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

// Mean of the middle half of the sample: floor(n/4) values are dropped
// from each end.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("mean of empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// (q3 - q1) / median — the run-to-run spread a bound is judged against.
inline double iqr_share(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  const double m = median(v);
  return m != 0.0 ? (q.q3 - q.q1) / std::fabs(m) : 0.0;
}

// Closure of a decomposition: sum of the parts over the whole they should
// add up to. 1.0 is a perfect split; 0 when the whole is empty.
inline double closure(double parts, double whole) {
  return whole > 0.0 ? parts / whole : 0.0;
}

// |closure - 1| within a relative tolerance.
inline bool closure_ok(double ratio, double tolerance) {
  return std::isfinite(ratio) && std::fabs(ratio - 1.0) <= tolerance;
}

// FNV-1a over bytes: the results digest (stable across hosts and builds).
class Digest {
 public:
  void add(std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>((static_cast<std::uint64_t>(x) >>
                                      (8 * i)) & 0xffu));
    }
  }
  void add(std::string_view s) {
    for (char c : s) byte(static_cast<std::uint8_t>(c));
    add(static_cast<std::int64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace e2e
