#ifndef XPSTREAM_COMMON_RANDOM_H_
#define XPSTREAM_COMMON_RANDOM_H_

/// \file
/// Deterministic PRNG used by workload generators and property tests.
/// A fixed, seedable generator keeps every experiment reproducible without
/// depending on the standard library's unspecified distributions.

#include <cstdint>
#include <string>

namespace xpstream {

/// xoshiro256**-based generator with convenience sampling helpers.
class Random {
 public:
  explicit Random(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). `n` must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// True with probability `p` (clamped into [0,1]).
  bool Bernoulli(double p);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Random lowercase ASCII identifier of the given length (>=1).
  std::string NextName(size_t length);

 private:
  uint64_t s_[4];
};

}  // namespace xpstream

#endif  // XPSTREAM_COMMON_RANDOM_H_
