// Serving latency/throughput: open-loop arrival curves through the
// prediction service at several request rates and shard configurations,
// plus the single-row fast path vs the 1-row micro-batch path.
//
// Reported per case: exact p50/p95/p99 request latency (scheduled-arrival
// to score-ready, so queueing delay counts), sustained rows/sec, and the
// modeled device seconds spent by the shard fleet.  The `row_fast_path`
// case must come in well under `batch1_closed_loop` — that gap is the
// entire reason the fast path exists.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/gbdt.h"
#include "serve/percentile.h"
#include "serve/service.h"

namespace {

using namespace gbdt;
using gbdt::bench::BenchCase;
using gbdt::bench::BenchJson;

struct LoadResult {
  std::vector<double> latency;  // seconds, per completed request
  double wall = 0.0;
  std::uint64_t batches = 0;
  double modeled = 0.0;
};

/// Open-loop replay: request k is scheduled at k/rate regardless of how the
/// service keeps up, so overload shows up as queueing latency.
LoadResult run_open_loop(const GBDTModel& model, const data::Dataset& ds,
                         const serve::ServeConfig& cfg, double rate,
                         std::int64_t n_requests) {
  serve::PredictionService svc(model, cfg);
  LoadResult r;
  std::vector<std::future<serve::Response>> futs;
  std::vector<std::chrono::steady_clock::time_point> sched;
  futs.reserve(static_cast<std::size_t>(n_requests));
  sched.reserve(futs.capacity());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t k = 0; k < n_requests; ++k) {
    const auto due =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(k) / rate));
    std::this_thread::sleep_until(due);
    auto row = ds.instance(k % ds.n_instances());
    auto f = svc.submit({row.begin(), row.end()});
    if (!f) continue;  // kReject configs shed here
    futs.push_back(std::move(*f));
    sched.push_back(due);
  }
  svc.shutdown();
  r.latency.reserve(futs.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    r.latency.push_back(
        std::chrono::duration<double>(resp.completed - sched[i]).count());
  }
  r.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  r.batches = svc.batches();
  r.modeled = svc.modeled_seconds();
  return r;
}

/// Reports one case.  `wall_batched`: its batches close on host time (the
/// open-loop arrival curves), so its modeled seconds follow host load.
void report(BenchJson& sink, const std::string& name, const LoadResult& r,
            bool wall_batched) {
  BenchCase c(sink, name);
  if (wall_batched) c.modeled_follows_wall_clock();
  const auto pcts = serve::percentiles(r.latency, {50.0, 95.0, 99.0});
  const double p50 = pcts[0];
  const double p95 = pcts[1];
  const double p99 = pcts[2];
  const double rps = static_cast<double>(r.latency.size()) / r.wall;
  c.metric("p50_latency_seconds", p50);
  c.metric("p95_latency_seconds", p95);
  c.metric("p99_latency_seconds", p99);
  c.metric("rows_per_sec", rps);
  c.metric("batches", static_cast<double>(r.batches));
  c.metric("modeled_seconds", r.modeled);
  std::printf("  %-28s %9.4f %9.4f %9.4f %10.0f %8llu\n", name.c_str(),
              1e3 * p50, 1e3 * p95, 1e3 * p99, rps,
              static_cast<unsigned long long>(r.batches));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbdt::bench;
  const auto opt = Options::parse(argc, argv, /*default_scale=*/0.25,
                                  /*default_trees=*/20, /*default_depth=*/4);
  print_header("Serving latency/throughput (open-loop arrival curves)", opt);
  BenchJson sink("serve", opt);

  // Model + request stream: a dense-ish regression analog.
  data::SyntheticSpec spec;
  spec.n_instances = std::max<std::int64_t>(
      200, static_cast<std::int64_t>(4000 * opt.scale));
  spec.n_attributes = 16;
  spec.density = 0.8;
  spec.seed = 99;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.n_trees = opt.trees;
  p.depth = opt.depth;
  device::Device train_dev(device::DeviceConfig::titan_x_pascal());
  const GBDTModel model = GBDTModel::train(train_dev, ds, p).first;

  const auto n_requests = std::max<std::int64_t>(
      200, static_cast<std::int64_t>(3000 * opt.scale));

  std::printf("model: %d trees depth %d; %lld request rows; %lld requests "
              "per case\n",
              opt.trees, opt.depth, static_cast<long long>(ds.n_instances()),
              static_cast<long long>(n_requests));
  std::printf("  %-28s %9s %9s %9s %10s %8s\n", "case", "p50(ms)", "p95(ms)",
              "p99(ms)", "rows/s", "batches");

  struct ShardConfig {
    const char* tag;
    int shards;
    serve::ShardMode mode;
  };
  const ShardConfig shard_configs[] = {
      {"shards1_rep", 1, serve::ShardMode::kReplicate},
      {"shards2_tree", 2, serve::ShardMode::kTreeShard},
      {"shards2_rep", 2, serve::ShardMode::kReplicate},
  };

  // Open-loop arrival curves: three rates x the shard configs.
  for (const double rate : {2000.0, 10000.0, 50000.0}) {
    for (const auto& sc : shard_configs) {
      serve::ServeConfig cfg;
      cfg.n_shards = sc.shards;
      cfg.mode = sc.mode;
      cfg.max_batch = 64;
      cfg.max_wait_ticks = 4;
      cfg.n_workers = sc.mode == serve::ShardMode::kReplicate ? sc.shards : 1;
      const auto r = run_open_loop(model, ds, cfg, rate, n_requests);
      report(sink,
             "rate" + std::to_string(static_cast<int>(rate)) + "_" + sc.tag,
             r, /*wall_batched=*/true);
    }
  }

  // Single-row fast path vs the same rows pushed one-at-a-time through the
  // micro-batcher (closed loop: each request waits for the previous one).
  {
    serve::ServeConfig cfg;
    serve::PredictionService svc(model, cfg);
    LoadResult fast;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t k = 0; k < n_requests; ++k) {
      const auto sent = std::chrono::steady_clock::now();
      const auto resp = svc.predict_row(ds.instance(k % ds.n_instances()));
      fast.latency.push_back(
          std::chrono::duration<double>(resp.completed - sent).count());
    }
    fast.wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    fast.modeled = svc.modeled_seconds();
    svc.shutdown();
    report(sink, "row_fast_path", fast, /*wall_batched=*/false);
  }
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_ticks = 1;
    serve::PredictionService svc(model, cfg);
    LoadResult one;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t k = 0; k < n_requests; ++k) {
      auto row = ds.instance(k % ds.n_instances());
      const auto sent = std::chrono::steady_clock::now();
      auto f = svc.submit({row.begin(), row.end()});
      if (!f) continue;
      const auto resp = f->get();
      one.latency.push_back(
          std::chrono::duration<double>(resp.completed - sent).count());
    }
    one.wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    one.batches = svc.batches();
    one.modeled = svc.modeled_seconds();
    svc.shutdown();
    report(sink, "batch1_closed_loop", one, /*wall_batched=*/false);
  }

  std::printf("(row_fast_path must sit well below batch1_closed_loop: the "
              "host-side traversal skips the queue and the device "
              "round-trip)\n");
  return 0;
}
