// Metrics registry: Counter / Gauge / Histogram instruments with a
// Prometheus-style text exposition format.
//
// Design constraints (see docs/OBSERVABILITY.md):
//  - Instruments are cheap, lock-free atomics on the hot path; the registry
//    mutex is taken only at registration / exposition time.
//  - Handles returned by the registry are stable for the registry's lifetime
//    (instruments live in node-based containers, never move).
//  - Counter/Histogram sums are double-valued and accumulated with a CAS
//    loop, so a single-writer instrument produces the exact same floating
//    point total as the plain `double +=` accumulation it replaces. This is
//    what lets `StreamStats` be re-derived from the registry bit-for-bit.
#ifndef RELBORG_OBS_METRICS_H_
#define RELBORG_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace relborg {
namespace obs {

// Atomic double with add/max support. C++17 has no fetch_add for
// std::atomic<double>, so both use a compare-exchange loop.
class AtomicDouble {
 public:
  AtomicDouble() : bits_(0) {}
  explicit AtomicDouble(double v) : bits_(ToBits(v)) {}

  double Load() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }

  void Store(double v) {
    bits_.store(ToBits(v), std::memory_order_relaxed);
  }

  void Add(double delta) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t desired = ToBits(FromBits(old) + delta);
      if (bits_.compare_exchange_weak(old, desired, std::memory_order_relaxed))
        return;
    }
  }

  void Max(double v) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (FromBits(old) < v) {
      if (bits_.compare_exchange_weak(old, ToBits(v),
                                      std::memory_order_relaxed))
        return;
    }
  }

  void Min(double v) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (FromBits(old) > v) {
      if (bits_.compare_exchange_weak(old, ToBits(v),
                                      std::memory_order_relaxed))
        return;
    }
  }

 private:
  static uint64_t ToBits(double v) {
    uint64_t b;
    static_assert(sizeof(b) == sizeof(v), "double must be 64-bit");
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double FromBits(uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }

  std::atomic<uint64_t> bits_;
};

// Monotonically increasing value (events, rows, bytes...).
class Counter {
 public:
  void Inc(double delta = 1.0) { value_.Add(delta); }
  double Value() const { return value_.Load(); }

 private:
  AtomicDouble value_;
};

// Last-written or max-tracked value (high-water marks, run-ahead depths).
class Gauge {
 public:
  void Set(double v) { value_.Store(v); }
  void SetMax(double v) { value_.Max(v); }
  double Value() const { return value_.Load(); }

 private:
  AtomicDouble value_;
};

// Log2-bucketed histogram for latency-style observations.
//
// Bucket k (0-based) has upper bound 2^(kMinExp + k) in the observed unit
// (seconds for latencies); the final bucket is +Inf. With kMinExp = -20 the
// smallest bound is ~0.95us and with 30 finite buckets the largest finite
// bound is 2^9 = 512s — wide enough for everything the pipeline observes.
// The exact minimum and maximum observation are tracked alongside, so
// quantiles never leave the observed range.
class Histogram {
 public:
  static constexpr int kMinExp = -20;
  static constexpr int kFiniteBuckets = 30;  // bounds 2^-20 .. 2^9
  static constexpr int kBuckets = kFiniteBuckets + 1;  // + the +Inf bucket

  void Observe(double v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.Add(v);
    min_.Min(v);
    max_.Max(v);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  double Sum() const { return sum_.Load(); }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Smallest / largest observation; +Inf / -Inf while empty.
  double Min() const { return min_.Load(); }
  double Max() const { return max_.Load(); }

  // Upper bound of bucket i; +Inf for the last bucket.
  static double BucketBound(int i);

  // Approximate quantile (q in [0,1]) assuming observations sit at their
  // bucket's upper bound, clamped to [Min(), Max()]: a bucket bound above
  // the largest observation reports the maximum. Returns 0 when the
  // histogram is empty; otherwise the walk stops at the lowest POPULATED
  // bucket (q = 0 reports the minimum observation's bucket, never an empty
  // leading bucket's).
  double Quantile(double q) const;

  // Folds another histogram's buckets, sum, count, minimum and maximum
  // into this one (bucket-wise addition — exact, since bucket counts are
  // integers; min/max merge exactly). Snapshot-in-time with respect to
  // concurrent Observe calls on `other`.
  void MergeFrom(const Histogram& other);

  static int BucketIndex(double v);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  AtomicDouble sum_;
  AtomicDouble min_{INFINITY};
  AtomicDouble max_{-INFINITY};
  std::atomic<uint64_t> count_{0};
};

// Named instrument registry. Get* registers on first use and returns the
// existing instrument on later calls (idempotent; it is an error to reuse a
// name with a different instrument kind). Pointers remain valid for the
// registry's lifetime.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help);

  // nullptr when the name is unknown or registered as a different kind.
  Counter* FindCounter(const std::string& name) const;
  Gauge* FindGauge(const std::string& name) const;
  Histogram* FindHistogram(const std::string& name) const;

  // Prometheus text exposition (# HELP / # TYPE, histogram _bucket/_sum/
  // _count series). Safe to call concurrently with instrument updates.
  std::string ExpositionText() const;

  // Folds every instrument of `src` into this registry: under its original
  // name as a cross-source AGGREGATE (counters add, gauges keep the max,
  // histograms add bucket-wise) and — when `suffix` is non-empty — under
  // `name + suffix` as a per-source copy (the sharded scheduler passes
  // "_shard<i>", so one exposition carries both the fleet totals and the
  // shard-labeled series). Values are snapshot-in-time; call into a fresh
  // registry per exposition, since repeating a merge re-adds counters.
  void MergeFrom(const MetricsRegistry& src, const std::string& suffix = "");

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    // Exactly one of these is non-null, owned by the Entry.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  // std::map: node-based (stable Entry addresses) and sorted exposition.
  std::map<std::string, Entry> entries_;
};

}  // namespace obs
}  // namespace relborg

#endif  // RELBORG_OBS_METRICS_H_
