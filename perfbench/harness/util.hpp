// Small shared pieces of the benchmark harness: the wall clock, the seeded
// payload function every mirror checks against, percentiles, and the metric
// list a workload reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: a cheap bijective 64-bit mix.
inline uint64_t mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Key of one write: every payload byte of write `write` of `origin` is a
/// function of (seed, origin, write, byte offset) only.
inline uint64_t payload_key(uint64_t seed, uint32_t origin, uint64_t write) {
  return mix64(seed ^ mix64((static_cast<uint64_t>(origin) << 48) ^ write));
}

inline uint8_t payload_byte(uint64_t key, uint64_t offset) {
  return static_cast<uint8_t>(mix64(key + offset / 8) >> (8 * (offset % 8)));
}

/// Writes bytes [offset, offset + n) of the write with key `key` to `out`.
inline void fill_payload(uint64_t key, uint8_t* out, size_t n,
                         uint64_t offset = 0) {
  size_t i = 0;
  while (i < n && (offset + i) % 8 != 0) {
    out[i] = payload_byte(key, offset + i);
    ++i;
  }
  for (; i + 8 <= n; i += 8) {
    const uint64_t w = mix64(key + (offset + i) / 8);
    std::memcpy(out + i, &w, 8);  // little-endian: byte j = w >> 8j
  }
  for (; i < n; ++i) out[i] = payload_byte(key, offset + i);
}

/// True when `p[0..n)` equals bytes [offset, offset + n) of the write.
inline bool check_payload(uint64_t key, const uint8_t* p, size_t n,
                          uint64_t offset = 0) {
  size_t i = 0;
  while (i < n && (offset + i) % 8 != 0) {
    if (p[i] != payload_byte(key, offset + i)) return false;
    ++i;
  }
  for (; i + 8 <= n; i += 8) {
    const uint64_t w = mix64(key + (offset + i) / 8);
    if (std::memcmp(p + i, &w, 8) != 0) return false;
  }
  for (; i < n; ++i)
    if (p[i] != payload_byte(key, offset + i)) return false;
  return true;
}

/// Nearest-rank percentile (q in [0, 1]) of `v`. 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// The q-quantile of each block of `block` consecutive samples (a partial
/// last block is dropped), and the `across`-quantile of those; with no full
/// block, the q-quantile of all samples.
inline double block_percentile(const std::vector<double>& v, size_t block,
                               double q, double across) {
  std::vector<double> tails;
  for (size_t i = 0; i + block <= v.size(); i += block)
    tails.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                            v.begin() + static_cast<std::ptrdiff_t>(i + block)),
        q));
  return tails.empty() ? percentile(v, q)
                       : percentile(std::move(tails), across);
}

/// FNV-1a over a stream of 64-bit words.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one pass of a workload produced.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return m.value;
    return 0;
  }
};

}  // namespace perfbench
