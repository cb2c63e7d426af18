// Microbenchmarks of the device primitives (google-benchmark).  These
// measure *host wall time* of the simulation and report the modeled device
// throughput as a counter, supporting the ablation benches: the per-element
// costs of scan / segmented scan / sort / partition / RLE are what the
// analytic results in bench_table2 and bench_fig9 are built from.
#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/fused_split.h"
#include "primitives/partition.h"
#include "primitives/scan.h"
#include "primitives/segmented.h"
#include "primitives/sort.h"
#include "rle/rle.h"

namespace {

using namespace gbdt;
using device::Device;
using device::DeviceConfig;

void BM_InclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Device dev(DeviceConfig::titan_x_pascal());
  auto in = dev.alloc<double>(n);
  auto out = dev.alloc<double>(n);
  prim::fill(dev, in, 1.0);
  double modeled = 0.0;
  for (auto _ : state) {
    const double before = dev.elapsed_seconds();
    prim::inclusive_scan(dev, in, out);
    modeled += dev.elapsed_seconds() - before;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["modeled_GB/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 16 / modeled / 1e9);
}
BENCHMARK(BM_InclusiveScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_SegmentedScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto seg_len = static_cast<std::int64_t>(state.range(1));
  Device dev(DeviceConfig::titan_x_pascal());
  auto vals = dev.alloc<double>(n);
  prim::fill(dev, vals, 1.0);
  std::vector<std::int64_t> offs{0};
  while (offs.back() < static_cast<std::int64_t>(n)) {
    offs.push_back(std::min<std::int64_t>(static_cast<std::int64_t>(n),
                                          offs.back() + seg_len));
  }
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(n);
  const auto n_seg = static_cast<std::int64_t>(offs.size()) - 1;
  prim::set_keys(dev, d_offs, keys,
                 prim::segs_per_block(n_seg, static_cast<std::int64_t>(n), 28));
  auto out = dev.alloc<double>(n);
  for (auto _ : state) {
    prim::segmented_inclusive_scan_by_key(dev, vals, keys, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentedScan)
    ->Args({1 << 18, 4})      // many tiny segments (deep high-dim trees)
    ->Args({1 << 18, 1000})   // medium
    ->Args({1 << 18, 1 << 18});  // one segment (root node)

void BM_SetKeysCustomVsNaive(benchmark::State& state) {
  const std::int64_t n_seg = state.range(0);
  const bool custom = state.range(1) != 0;
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<std::int64_t> offs(static_cast<std::size_t>(n_seg) + 1);
  for (std::int64_t s = 0; s <= n_seg; ++s) {
    offs[static_cast<std::size_t>(s)] = s * 2;  // 2-element segments
  }
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n_seg) * 2);
  double modeled = 0.0;
  for (auto _ : state) {
    const double before = dev.elapsed_seconds();
    prim::set_keys(dev, d_offs, keys,
                   custom ? prim::segs_per_block(n_seg, 2 * n_seg, 28) : 1);
    modeled += dev.elapsed_seconds() - before;
  }
  state.counters["modeled_us"] =
      benchmark::Counter(modeled * 1e6 / state.iterations());
}
BENCHMARK(BM_SetKeysCustomVsNaive)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({1000000, 0})
    ->Args({1000000, 1});

void BM_RadixSortPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng();
    vals[i] = static_cast<std::uint32_t>(i);
  }
  for (auto _ : state) {
    Device dev(DeviceConfig::titan_x_pascal());
    auto d_k = dev.to_device<std::uint64_t>(keys);
    auto d_v = dev.to_device<std::uint32_t>(vals);
    prim::radix_sort_pairs(dev, d_k, d_v);
    benchmark::DoNotOptimize(d_k.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortPairs)->Arg(1 << 14)->Arg(1 << 18);

void BM_HistogramPartition(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t parts = state.range(1);
  const bool custom = state.range(2) != 0;
  Device dev(DeviceConfig::titan_x_pascal());
  std::mt19937 rng(2);
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  for (auto& x : ids) x = static_cast<std::int32_t>(rng() % parts);
  auto d_ids = dev.to_device<std::int32_t>(ids);
  auto scatter = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto offs = dev.alloc<std::int64_t>(static_cast<std::size_t>(parts) + 1);
  const auto plan = prim::plan_partition(n, parts, std::size_t{1} << 26, custom);
  double modeled = 0.0;
  for (auto _ : state) {
    const double before = dev.elapsed_seconds();
    prim::histogram_partition_emit(
        dev, d_ids.span(), parts, offs.span(), plan, nullptr,
        [s = scatter.span()](device::BlockCtx& b, std::int64_t i,
                             std::int64_t dst) {
          s[static_cast<std::size_t>(i)] = dst;
          b.writes(s, i);
          b.mem_coalesced(sizeof(std::int64_t));
        });
    modeled += dev.elapsed_seconds() - before;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["modeled_us"] =
      benchmark::Counter(modeled * 1e6 / state.iterations());
}
BENCHMARK(BM_HistogramPartition)
    ->Args({1 << 18, 64, 1})
    ->Args({1 << 18, 64, 0})
    ->Args({1 << 18, 4096, 1})
    ->Args({1 << 18, 4096, 0});

/// Shared fixture for the fused-find-split ablations: n elements in
/// seg_len-sized segments, an instance indirection for the gather, and a
/// gradient-pair array.
struct FusedFixture {
  Device dev{DeviceConfig::titan_x_pascal()};
  device::WorkspaceArena arena{dev.allocator()};
  std::int64_t n, n_seg;
  device::DeviceBuffer<std::int64_t> d_offs;
  device::DeviceBuffer<std::int32_t> keys;
  device::DeviceBuffer<std::int32_t> inst;
  device::DeviceBuffer<double> grad;  // one lane stands in for the pair

  FusedFixture(std::int64_t n_, std::int64_t seg_len) : n(n_) {
    std::vector<std::int64_t> offs{0};
    while (offs.back() < n) {
      offs.push_back(std::min<std::int64_t>(n, offs.back() + seg_len));
    }
    n_seg = static_cast<std::int64_t>(offs.size()) - 1;
    d_offs = dev.to_device<std::int64_t>(offs);
    keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
    prim::set_keys(dev, d_offs, keys, prim::segs_per_block(n_seg, n, 28));
    inst = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
    grad = dev.alloc<double>(static_cast<std::size_t>(n));
    std::mt19937 rng(3);
    for (std::int64_t i = 0; i < n; ++i) {
      inst[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(rng() % static_cast<unsigned>(n));
      grad[static_cast<std::size_t>(i)] = static_cast<double>(rng() % 17);
    }
  }
};

/// Fused gather+scan+totals vs the unfused gather -> segmented scan ->
/// present-totals sequence it replaces (range(1): 1 = fused).
void BM_GatherScanTotals(benchmark::State& state) {
  FusedFixture f(state.range(0), 1000);
  const bool fused = state.range(1) != 0;
  auto out = f.dev.alloc<double>(static_cast<std::size_t>(f.n));
  auto tot = f.dev.alloc<double>(static_cast<std::size_t>(f.n_seg));
  auto idx = f.inst.span();
  auto g = f.grad.span();
  const std::int64_t n = f.n;
  const std::int64_t n_seg = f.n_seg;
  double modeled = 0.0;
  for (auto _ : state) {
    const double before = f.dev.elapsed_seconds();
    if (fused) {
      const auto view = prim::fused_gather_scan_totals(
          f.dev, f.arena, f.keys, out, tot,
          [idx, g](device::BlockCtx& b, std::int64_t i) {
            b.reads(idx, i);
            b.reads(g, idx[static_cast<std::size_t>(i)]);
            b.mem_coalesced(sizeof(std::int32_t));
            b.mem_irregular(1);
            return g[static_cast<std::size_t>(
                idx[static_cast<std::size_t>(i)])];
          },
          "bench_fused_gather_scan");
      benchmark::DoNotOptimize(view.carries.size());
    } else {
      auto ghe = f.arena.alloc<double>(static_cast<std::size_t>(n));
      auto ge = ghe.span();
      f.dev.launch("bench_gather", device::grid_for(n, prim::kBlockDim),
                   prim::kBlockDim, [&](device::BlockCtx& b) {
                     b.for_each_thread([&](std::int64_t i) {
                       if (i >= n) return;
                       const auto u = static_cast<std::size_t>(i);
                       ge[u] = g[static_cast<std::size_t>(idx[u])];
                     });
                     b.reads_tile(idx, n);
                     b.writes_tile(ge, n);
                     const auto m = prim::elems_in_block(b, n);
                     b.mem_coalesced(m * 12);
                     b.mem_irregular(m);
                   });
      prim::segmented_inclusive_scan_by_key(f.dev, ghe, f.keys, out,
                                            "bench_seg_scan");
      auto o = out.span();
      auto t = tot.span();
      auto offs = f.d_offs.span();
      f.dev.launch("bench_seg_totals",
                   device::grid_for(n_seg, prim::kBlockDim), prim::kBlockDim,
                   [&](device::BlockCtx& b) {
                     b.for_each_thread([&](std::int64_t s) {
                       if (s >= n_seg) return;
                       const auto u = static_cast<std::size_t>(s);
                       if (offs[u] == offs[u + 1]) return;
                       t[u] = o[static_cast<std::size_t>(offs[u + 1] - 1)];
                       b.reads(o, offs[u + 1] - 1);
                     });
                     b.reads_tile(offs, n_seg + 1);
                     b.writes_tile(t, n_seg);
                     const auto m = prim::elems_in_block(b, n_seg);
                     b.mem_coalesced(m * 24);
                     b.mem_irregular(m);
                   });
      ghe.free();
    }
    modeled += f.dev.elapsed_seconds() - before;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.n);
  state.counters["modeled_us"] =
      benchmark::Counter(modeled * 1e6 / state.iterations());
}
BENCHMARK(BM_GatherScanTotals)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

/// Fused gain+argmax vs the unfused compute-gains -> segmented argmax pair
/// it replaces (range(1): 1 = fused).
void BM_GainArgmax(benchmark::State& state) {
  FusedFixture f(state.range(0), 1000);
  const bool fused = state.range(1) != 0;
  auto scan = f.dev.alloc<double>(static_cast<std::size_t>(f.n));
  prim::fill(f.dev, scan, 1.5);
  auto best_val = f.dev.alloc<double>(static_cast<std::size_t>(f.n_seg));
  auto best_idx = f.dev.alloc<std::int64_t>(static_cast<std::size_t>(f.n_seg));
  auto best_dir = f.dev.alloc<std::uint8_t>(static_cast<std::size_t>(f.n_seg));
  const std::int64_t n = f.n;
  const std::int64_t spb = prim::segs_per_block(f.n_seg, f.n, 28);
  auto sc = scan.span();
  const prim::CarriedScan<double> view{sc, {}};
  double modeled = 0.0;
  for (auto _ : state) {
    const double before = f.dev.elapsed_seconds();
    if (fused) {
      prim::fused_gain_argmax(
          f.dev, f.d_offs, view, best_val, best_idx, best_dir, spb,
          [](device::BlockCtx& b, std::int64_t, std::int64_t e,
             std::int64_t lo, std::int64_t, double x) {
            if (e == lo) b.mem_irregular(1);  // segment-invariant tables
            b.flop(16);
            return prim::GainDir{x * x - x, 0};
          },
          "bench_fused_gain_argmax");
    } else {
      auto gains = f.arena.alloc<double>(static_cast<std::size_t>(n));
      auto gn = gains.span();
      f.dev.launch("bench_compute_gains", device::grid_for(n, prim::kBlockDim),
                   prim::kBlockDim, [&](device::BlockCtx& b) {
                     b.for_each_thread([&](std::int64_t e) {
                       if (e >= n) return;
                       const auto u = static_cast<std::size_t>(e);
                       gn[u] = sc[u] * sc[u] - sc[u];
                     });
                     b.reads_tile(sc, n);
                     b.writes_tile(gn, n);
                     const auto m = prim::elems_in_block(b, n);
                     b.mem_coalesced(m * 16);
                     b.mem_irregular(m / 2);
                     b.flop(m * 16);
                   });
      prim::segmented_arg_max(f.dev, gains, f.d_offs, best_val, best_idx, spb,
                              "bench_seg_argmax");
      gains.free();
    }
    modeled += f.dev.elapsed_seconds() - before;
    benchmark::DoNotOptimize(best_val.data());
  }
  state.SetItemsProcessed(state.iterations() * f.n);
  state.counters["modeled_us"] =
      benchmark::Counter(modeled * 1e6 / state.iterations());
}
BENCHMARK(BM_GainArgmax)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_RleCompress(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int distinct = static_cast<int>(state.range(1));
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    // Sorted-descending values with n/distinct-length runs.
    v[static_cast<std::size_t>(i)] =
        static_cast<float>(distinct - i * distinct / n);
  }
  std::vector<std::int64_t> offs{0, n};
  auto d_v = dev.to_device<float>(v);
  auto d_o = dev.to_device<std::int64_t>(offs);
  for (auto _ : state) {
    auto compressed = rle::compress(dev, d_v.span(), d_o.span());
    benchmark::DoNotOptimize(compressed.n_runs);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RleCompress)->Args({1 << 18, 8})->Args({1 << 18, 1 << 16});

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): translates the suite-wide
// --json=<path> flag into google-benchmark's --benchmark_out so every bench
// binary accepts the same reporting flag (the emitted file uses
// google-benchmark's own schema, not gbdt-bench-v1; tools/gbdt_bench skips
// it when comparing).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (args[i] + 7);
      fmt_flag = "--benchmark_out_format=json";
      args[i] = out_flag.data();
      args.insert(args.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  fmt_flag.data());
      break;
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
