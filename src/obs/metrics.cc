#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/check.h"

namespace relborg {
namespace obs {

double Histogram::BucketBound(int i) {
  if (i >= kFiniteBuckets) return INFINITY;
  return std::ldexp(1.0, kMinExp + i);
}

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN land in the first bucket
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  if (m == 0.5) --exp;  // exact powers of two belong in their own bucket (le)
  int idx = exp - kMinExp;
  if (idx < 0) idx = 0;
  if (idx > kFiniteBuckets) idx = kFiniteBuckets;  // overflow -> +Inf bucket
  return idx;
}

double Histogram::Quantile(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The walk must stop at the lowest POPULATED bucket: a raw `q * total`
  // target of 0 (q == 0, or any q that rounds below the empty leading
  // buckets' cumulative count of 0) would satisfy `cum >= target` on the
  // very first bucket even when it holds no observations, reporting bucket
  // 0's bound for data that never touched it. Clamping the target to the
  // first observation's rank fixes q == 0 to "the minimum's bucket" while
  // leaving every populated-bucket quantile unchanged.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  // A bucket's upper bound can exceed every observation in it (and the +Inf
  // bucket has no finite bound at all), so the answer is clamped to the
  // observed range. Only NaN observations leave no range to clamp to.
  const double lo = Min();
  const double hi = Max();
  auto clamp = [&](double bound) {
    if (!(lo <= hi)) return std::isinf(bound) ? BucketBound(kFiniteBuckets - 1)
                                              : bound;
    return std::min(std::max(bound, lo), hi);
  };
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += BucketCount(i);
    if (cum >= target) return clamp(BucketBound(i));
  }
  return clamp(hi);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t n = other.BucketCount(i);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.Add(other.Sum());
  min_.Min(other.Min());
  max_.Max(other.Max());
  count_.fetch_add(other.Count(), std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.help = help;
    e.counter.reset(new Counter());
    it = entries_.emplace(name, std::move(e)).first;
  }
  RELBORG_CHECK_MSG(it->second.kind == Kind::kCounter, name.c_str());
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.help = help;
    e.gauge.reset(new Gauge());
    it = entries_.emplace(name, std::move(e)).first;
  }
  RELBORG_CHECK_MSG(it->second.kind == Kind::kGauge, name.c_str());
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.help = help;
    e.histogram.reset(new Histogram());
    it = entries_.emplace(name, std::move(e)).first;
  }
  RELBORG_CHECK_MSG(it->second.kind == Kind::kHistogram, name.c_str());
  return it->second.histogram.get();
}

Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kCounter) return nullptr;
  return it->second.counter.get();
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kGauge) return nullptr;
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kHistogram)
    return nullptr;
  return it->second.histogram.get();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& src,
                                const std::string& suffix) {
  // Snapshot src's entries first; taking both mutexes at once would order
  // them (and a self-merge would deadlock).
  struct Snap {
    std::string name;
    Kind kind;
    std::string help;
    double value = 0;                    // counter / gauge
    const Histogram* histogram = nullptr;  // stable for src's lifetime
  };
  std::vector<Snap> snaps;
  {
    std::lock_guard<std::mutex> lock(src.mu_);
    snaps.reserve(src.entries_.size());
    for (const auto& kv : src.entries_) {
      Snap s;
      s.name = kv.first;
      s.kind = kv.second.kind;
      s.help = kv.second.help;
      switch (kv.second.kind) {
        case Kind::kCounter:
          s.value = kv.second.counter->Value();
          break;
        case Kind::kGauge:
          s.value = kv.second.gauge->Value();
          break;
        case Kind::kHistogram:
          s.histogram = kv.second.histogram.get();
          break;
      }
      snaps.push_back(std::move(s));
    }
  }
  for (const Snap& s : snaps) {
    switch (s.kind) {
      case Kind::kCounter: {
        GetCounter(s.name, s.help)->Inc(s.value);
        if (!suffix.empty()) GetCounter(s.name + suffix, s.help)->Inc(s.value);
        break;
      }
      case Kind::kGauge: {
        GetGauge(s.name, s.help)->SetMax(s.value);
        if (!suffix.empty()) GetGauge(s.name + suffix, s.help)->Set(s.value);
        break;
      }
      case Kind::kHistogram: {
        GetHistogram(s.name, s.help)->MergeFrom(*s.histogram);
        if (!suffix.empty()) {
          GetHistogram(s.name + suffix, s.help)->MergeFrom(*s.histogram);
        }
        break;
      }
    }
  }
}

namespace {

void AppendNumber(std::string* out, double v) {
  if (std::isinf(v)) {
    out->append(v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& kv : entries_) {
    const std::string& name = kv.first;
    const Entry& e = kv.second;
    out += "# HELP " + name + " " + e.help + "\n";
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " ";
        AppendNumber(&out, e.counter->Value());
        out += "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " ";
        AppendNumber(&out, e.gauge->Value());
        out += "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        uint64_t cum = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          cum += e.histogram->BucketCount(i);
          out += name + "_bucket{le=\"";
          AppendNumber(&out, Histogram::BucketBound(i));
          out += "\"} ";
          AppendNumber(&out, static_cast<double>(cum));
          out += "\n";
        }
        out += name + "_sum ";
        AppendNumber(&out, e.histogram->Sum());
        out += "\n";
        out += name + "_count ";
        AppendNumber(&out, static_cast<double>(e.histogram->Count()));
        out += "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace relborg
