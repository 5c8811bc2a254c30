// The benchmark's own input machinery: random numbers, the Zipf sampler,
// the key/tag scheme every stored value carries, the packed op encoding,
// and the per-call latency histogram.  Nothing here comes from the
// library under test, so a change to the library cannot change the inputs
// or the way they are judged.

#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// MurmurHash3's 64-bit finalizer: a bijection on uint64_t.
inline uint64_t Fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return double(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Zipf ranks in [0, n), rank 0 hottest (Gray et al., SIGMOD 1994).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  uint64_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1 % n_;
    const auto r = uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// Keys are a bijective scramble of a dense index, salted by the seed, so
// distinct indices are distinct keys.  Every stored value is
// (tag(key) << 32) | version: the tag is hashed from the key by the
// benchmark, the version counts Updates since the key's last Insert.
inline uint64_t KeyOf(uint64_t salt, uint32_t index) {
  return Fmix64(salt + index);
}
inline uint32_t TagOf(uint64_t key) {
  return uint32_t(Fmix64(key ^ 0x6a09e667f3bcc909ULL) >> 32);
}
inline uint64_t ValueOf(uint64_t key, uint32_t version) {
  return (uint64_t{TagOf(key)} << 32) | version;
}
inline bool Tagged(uint64_t key, uint64_t value) {
  return uint32_t(value >> 32) == TagOf(key);
}

// One op in 32 bits: kind (3 bits), the predicted outcome (2 bits), key
// index (27 bits).
enum Kind : uint32_t {
  kFind = 0,
  kUpdate = 1,
  kInsert = 2,
  kRemove = 3,
  kScan = 4,
  kKinds = 5
};
inline const char* KindName(uint32_t k) {
  static const char* const kNames[] = {"find", "update", "insert", "remove",
                                       "scan"};
  return kNames[k];
}
// kAny: another client may change the key, so only the tag of a hit is
// predicted.
enum Expect : uint32_t { kAny = 0, kTrue = 1, kFalse = 2 };
constexpr uint32_t kIndexBits = 27;
constexpr uint32_t kMaxIndex = (1u << kIndexBits) - 1;
inline uint32_t MakeOp(Kind kind, Expect expect, uint32_t index) {
  return (uint32_t{kind} << 29) | (uint32_t{expect} << kIndexBits) | index;
}
inline Kind OpKind(uint32_t op) { return Kind(op >> 29); }
inline Expect OpExpect(uint32_t op) { return Expect((op >> kIndexBits) & 3); }
inline uint32_t OpIndex(uint32_t op) { return op & kMaxIndex; }

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

// Log-linear histogram: exact below 64, then 64 sub-buckets per power of
// two (under 1.6% bucket width) up to 2^40 ns; longer values land in the
// top bucket.  Percentiles interpolate linearly inside the bucket.  The
// 32-bit counts keep one histogram per client, kind and slice small.
// Single-writer; merged after the threads join.
class LatencyHist {
 public:
  LatencyHist() : counts_(kBuckets, 0) {}
  void Add(uint64_t v) {
    ++counts_[Bucket(v)];
    ++total_;
  }
  void Merge(const LatencyHist& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }
  // q in [0, 1].
  double Percentile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * double(total_);
    double seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = double(counts_[i]);
      if (seen + c >= rank) {
        const double frac = (rank - seen) / c;
        return double(Lower(i)) + frac * double(Width(i));
      }
      seen += c;
    }
    return double(Lower(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 40;
  static constexpr int kBuckets = kSub + (kMaxExp - kSubBits) * kSub;
  static int Bucket(uint64_t v) {
    if (v < kSub) return int(v);
    if (v >> kMaxExp) return kBuckets - 1;
    const int e = 63 - std::countl_zero(v);
    const int sub = int(v >> (e - kSubBits)) - kSub;
    return kSub + (e - kSubBits) * kSub + sub;
  }
  static uint64_t Lower(int i) {
    if (i < kSub) return uint64_t(i);
    const int e = (i - kSub) / kSub + kSubBits;
    const int sub = (i - kSub) % kSub;
    return uint64_t(kSub + sub) << (e - kSubBits);
  }
  static uint64_t Width(int i) {
    if (i < kSub) return 1;
    return uint64_t{1} << ((i - kSub) / kSub);
  }
  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

// The q-quantile of v (q in [0, 1]), interpolated between neighbours.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return double(v[lo]) + (pos - double(lo)) * (double(v[hi]) - double(v[lo]));
}

template <typename T>
double Median(std::vector<T> v) {
  return Quantile(std::move(v), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
