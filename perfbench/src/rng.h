#ifndef PERFBENCH_RNG_H_
#define PERFBENCH_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64. The benchmark's inputs must not move when the library's
/// own generators or the standard library's distributions change, so every
/// random choice goes through this one fixed, portable generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n >= 1.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r drawn with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a, the content digest printed for every generated input.
inline uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_RNG_H_
