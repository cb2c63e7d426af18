// Process-wide metrics registry: counters, gauges and histograms with
// optional labels.
//
// The write path is lock-free: every metric spreads its state over a fixed
// set of cache-line-padded shards, each thread picks a shard once (round
// robin at first use) and updates it with relaxed atomics.  Kernel bodies
// running on ThreadPool workers can therefore increment counters freely;
// reads (snapshot / to_json) sum the shards and only then take the registry
// mutex, so they see a value that is exact once the writers have quiesced.
//
// Registration (looking a metric up by name) takes a mutex and returns a
// reference that stays valid for the life of the registry — cache it:
//
//   static obs::Counter& launches =
//       obs::Registry::global().counter("device_launches_total");
//   launches.inc();
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace gbdt::obs {

/// Metric labels as key=value pairs; order-insensitive (sorted on use).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace internal {

inline constexpr std::size_t kShards = 32;

/// Shard index of the calling thread (stable per thread, round-robin).
std::size_t thread_shard();

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

/// Relaxed add of a double into an atomic bit-pattern cell.
inline void atomic_add_double(std::atomic<std::uint64_t>& cell, double x) {
  std::uint64_t old = cell.load(std::memory_order_relaxed);
  double cur;
  do {
    std::memcpy(&cur, &old, sizeof cur);
    cur += x;
    std::uint64_t want;
    std::memcpy(&want, &cur, sizeof want);
    if (cell.compare_exchange_weak(old, want, std::memory_order_relaxed)) {
      return;
    }
  } while (true);
}

inline double load_double(const std::atomic<std::uint64_t>& cell) {
  const std::uint64_t bits = cell.load(std::memory_order_relaxed);
  double out;
  std::memcpy(&out, &bits, sizeof out);
  return out;
}

}  // namespace internal

/// Monotonically increasing integer.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[internal::thread_shard()].v.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  Counter() = default;  // create via Registry so the metric is reported

 private:
  std::array<internal::PaddedU64, internal::kShards> shards_;
};

/// Last-write-wins double value (set) with a sharded add() for accumulation.
class Gauge {
 public:
  void set(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    set_.store(bits, std::memory_order_relaxed);
    set_used_.store(true, std::memory_order_relaxed);
  }
  void add(double x) {
    internal::atomic_add_double(shards_[internal::thread_shard()].v, x);
  }
  [[nodiscard]] double value() const {
    double total =
        set_used_.load(std::memory_order_relaxed)
            ? internal::load_double(set_)
            : 0.0;
    for (const auto& s : shards_) total += internal::load_double(s.v);
    return total;
  }

  Gauge() = default;  // create via Registry so the metric is reported

 private:
  std::atomic<std::uint64_t> set_{0};
  std::atomic<bool> set_used_{false};
  std::array<internal::PaddedU64, internal::kShards> shards_;
};

/// Histogram over fixed upper-bound buckets (cumulative on read, like
/// Prometheus); also tracks count and sum.
class Histogram {
 public:
  void observe(double x) {
    const std::size_t shard = internal::thread_shard();
    auto& cells = buckets_[shard];
    std::size_t b = 0;
    while (b < bounds_.size() && x > bounds_[b]) ++b;
    cells[b].fetch_add(1, std::memory_order_relaxed);
    internal::atomic_add_double(sum_[shard].v, x);
  }
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& shard : buckets_) {
      for (const auto& c : shard) total += c.load(std::memory_order_relaxed);
    }
    return total;
  }
  [[nodiscard]] double sum() const {
    double total = 0.0;
    for (const auto& s : sum_) total += internal::load_double(s.v);
    return total;
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is the overflow.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
    for (const auto& shard : buckets_) {
      for (std::size_t b = 0; b < out.size(); ++b) {
        out[b] += shard[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  // Create via Registry so the metric is reported.
  explicit Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    for (auto& shard : buckets_) {
      shard = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    }
  }

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::array<std::vector<std::atomic<std::uint64_t>>, internal::kShards>
      buckets_;
  std::array<internal::PaddedU64, internal::kShards> sum_;
};

/// Default histogram buckets: exponential from 1e-6 upward (seconds-ish).
[[nodiscard]] std::vector<double> default_buckets();

class Registry {
 public:
  /// The process-wide registry.
  [[nodiscard]] static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create.  References stay valid until reset()/destruction.
  [[nodiscard]] Counter& counter(std::string_view name,
                                 const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, const Labels& labels = {});
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const Labels& labels = {},
                                     std::vector<double> bounds = {});

  /// Aggregated view of every registered metric, sorted by key:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  [[nodiscard]] Json to_json() const;

  /// Drops every metric.  Only for tests; invalidates cached references.
  void reset_for_test();

 private:
  enum class MetricKind { kCounter, kGauge, kHistogram };
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  [[nodiscard]] static std::string key_of(std::string_view name,
                                          const Labels& labels);
  /// The `member` metric of the entry under `name` and `labels`, created
  /// when absent.  Dereferenced under the lock: a concurrent registration
  /// may reallocate metrics_ once it is released (the metric itself stays).
  template <typename M>
  M& find_or_create(std::string_view name, const Labels& labels,
                    MetricKind kind, std::vector<double> bounds,
                    std::unique_ptr<M> Entry::*member);

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> metrics_;  // key -> entry
};

}  // namespace gbdt::obs
