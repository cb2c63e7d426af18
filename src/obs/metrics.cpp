#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace gbdt::obs {

namespace internal {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

std::vector<double> default_buckets() {
  std::vector<double> b;
  for (double x = 1e-6; x < 1e3; x *= 4.0) b.push_back(x);
  return b;
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

std::string Registry::key_of(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    key += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) key += ',';
      key += sorted[i].first;
      key += '=';
      key += sorted[i].second;
    }
    key += '}';
  }
  return key;
}

template <typename M>
M& Registry::find_or_create(std::string_view name, const Labels& labels,
                            MetricKind kind, std::vector<double> bounds,
                            std::unique_ptr<M> Entry::*member) {
  const std::string key = key_of(name, labels);
  std::lock_guard lk(mu_);
  for (auto& [k, e] : metrics_) {
    if (k == key) {
      if (e.kind != kind) {
        throw std::logic_error("metric '" + key +
                               "' registered with a different type");
      }
      return *(e.*member);
    }
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e.histogram = std::make_unique<Histogram>(
          bounds.empty() ? default_buckets() : std::move(bounds));
      break;
  }
  metrics_.emplace_back(key, std::move(e));
  return *(metrics_.back().second.*member);
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return find_or_create(name, labels, MetricKind::kCounter, {},
                        &Entry::counter);
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return find_or_create(name, labels, MetricKind::kGauge, {}, &Entry::gauge);
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels,
                               std::vector<double> bounds) {
  return find_or_create(name, labels, MetricKind::kHistogram,
                        std::move(bounds), &Entry::histogram);
}

Json Registry::to_json() const {
  // The entry pointers stay valid only while the lock holds off
  // registrations.
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::string, const Entry*>> sorted;
  sorted.reserve(metrics_.size());
  for (const auto& [k, e] : metrics_) sorted.emplace_back(k, &e);
  std::sort(sorted.begin(), sorted.end());
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  for (const auto& [key, e] : sorted) {
    switch (e->kind) {
      case MetricKind::kCounter:
        counters[key] = Json(e->counter->value());
        break;
      case MetricKind::kGauge:
        gauges[key] = Json(e->gauge->value());
        break;
      case MetricKind::kHistogram: {
        Json h = Json::object();
        h["count"] = Json(e->histogram->count());
        h["sum"] = Json(e->histogram->sum());
        Json bounds = Json::array();
        for (double b : e->histogram->bounds()) bounds.push_back(Json(b));
        h["bounds"] = std::move(bounds);
        Json buckets = Json::array();
        for (std::uint64_t c : e->histogram->bucket_counts()) {
          buckets.push_back(Json(c));
        }
        h["buckets"] = std::move(buckets);
        histograms[key] = std::move(h);
        break;
      }
    }
  }
  Json out = Json::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

void Registry::reset_for_test() {
  std::lock_guard lk(mu_);
  metrics_.clear();
}

}  // namespace gbdt::obs
