// Unit and property tests for the Thrust-analog device primitives, checked
// against serial host references over randomized and adversarial inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <random>
#include <vector>

#include "device/device_context.h"
#include "primitives/compact.h"
#include "primitives/partition.h"
#include "primitives/reduce.h"
#include "primitives/scan.h"
#include "primitives/segmented.h"
#include "primitives/sort.h"
#include "primitives/transform.h"

namespace gbdt::prim {
namespace {

using device::Device;
using device::DeviceConfig;

Device make_device() { return Device(DeviceConfig::titan_x_pascal()); }

/// The order-preserving partition writing each element's destination to
/// `scatter` (-1 for dropped elements) and the part offsets to `offs`.
void partition_scatter(Device& dev, std::span<const std::int32_t> ids,
                       std::int64_t n_parts, std::span<std::int64_t> scatter,
                       std::span<std::int64_t> offs,
                       const PartitionPlan& plan) {
  histogram_partition_emit(
      dev, ids, n_parts, offs, plan, nullptr,
      [scatter](device::BlockCtx& b, std::int64_t i, std::int64_t dst) {
        scatter[static_cast<std::size_t>(i)] = dst;
        b.writes(scatter, i);
        b.mem_coalesced(sizeof(std::int64_t));
      });
}

std::vector<double> random_doubles(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-10.0, 10.0);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

// Random segmentation of [0, n): returns offsets (n_seg + 1 entries).
std::vector<std::int64_t> random_offsets(std::int64_t n, unsigned seed,
                                         bool allow_empty = true) {
  std::mt19937 rng(seed);
  std::vector<std::int64_t> offs{0};
  std::int64_t pos = 0;
  std::uniform_int_distribution<int> step(allow_empty ? 0 : 1, 700);
  while (pos < n) {
    pos = std::min<std::int64_t>(n, pos + step(rng));
    offs.push_back(pos);
  }
  if (offs.back() != n) offs.push_back(n);
  return offs;
}

TEST(Transform, FillIotaTransform) {
  auto dev = make_device();
  auto buf = dev.alloc<int>(1000);
  fill(dev, buf, 7);
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(buf[i], 7);
  iota(dev, buf, 5);
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(buf[i], 5 + static_cast<int>(i));
  auto out = dev.alloc<long>(1000);
  transform(dev, buf, out, [](int v) { return static_cast<long>(v) * 2; });
  for (std::size_t i = 0; i < 1000; ++i)
    ASSERT_EQ(out[i], 2 * (5 + static_cast<long>(i)));
}

TEST(Transform, GatherScatterRoundTrip) {
  auto dev = make_device();
  const std::size_t n = 777;
  std::vector<float> host(n);
  std::iota(host.begin(), host.end(), 0.f);
  auto src = dev.to_device<float>(host);

  std::vector<std::int64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), std::mt19937(42));
  auto map = dev.to_device<std::int64_t>(perm);

  auto gathered = dev.alloc<float>(n);
  gather(dev, src, map, gathered);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(gathered[i], host[static_cast<std::size_t>(perm[i])]);

  auto scattered = dev.alloc<float>(n);
  scatter(dev, gathered, map, scattered);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(scattered[i], host[i]);
  // Gather marks irregular traffic on the timeline.
  EXPECT_GT(dev.timeline().kernels.at("gather").stats.irregular_accesses, 0u);
}

TEST(Reduce, SumMatchesSerial) {
  auto dev = make_device();
  for (std::size_t n : {1u, 255u, 256u, 257u, 10000u}) {
    auto host = random_doubles(n, static_cast<unsigned>(n));
    auto buf = dev.to_device<double>(host);
    const double got = reduce_sum(dev, buf);
    const double want = std::accumulate(host.begin(), host.end(), 0.0);
    EXPECT_NEAR(got, want, 1e-9 * n) << "n=" << n;
  }
}

TEST(Reduce, EmptyInput) {
  auto dev = make_device();
  auto buf = dev.alloc<double>(0);
  EXPECT_EQ(reduce_sum(dev, buf), 0.0);
  EXPECT_EQ(arg_max(dev, buf).index, -1);
}

TEST(Reduce, ArgMaxFindsFirstMaximum) {
  auto dev = make_device();
  std::vector<double> host(1000, 1.0);
  host[333] = 9.0;
  host[700] = 9.0;  // tie: lower index must win
  auto buf = dev.to_device<double>(host);
  const auto r = arg_max(dev, buf);
  EXPECT_EQ(r.index, 333);
  EXPECT_EQ(r.value, 9.0);
}

class ScanSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScanSizes, InclusiveMatchesSerial) {
  auto dev = make_device();
  const auto n = static_cast<std::size_t>(GetParam());
  auto host = random_doubles(n, 11);
  auto in = dev.to_device<double>(host);
  auto out = dev.alloc<double>(n);
  inclusive_scan(dev, in, out);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += host[i];
    ASSERT_NEAR(out[i], acc, 1e-9 * (i + 1)) << i;
  }
}

TEST_P(ScanSizes, ExclusiveMatchesSerial) {
  auto dev = make_device();
  const auto n = static_cast<std::size_t>(GetParam());
  auto host = random_doubles(n, 13);
  auto in = dev.to_device<double>(host);
  auto out = dev.alloc<double>(n);
  exclusive_scan(dev, in, out);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(out[i], acc, 1e-9 * (i + 1)) << i;
    acc += host[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(1, 2, 255, 256, 257, 512, 1000,
                                           4096, 100001));

TEST(SetKeys, WritesSegmentIds) {
  auto dev = make_device();
  std::vector<std::int64_t> offs{0, 3, 3, 7, 12};
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(12);
  for (std::int64_t spb : {1, 2, 100}) {
    fill(dev, keys, std::int32_t{-1});
    set_keys(dev, d_offs, keys, spb);
    const std::vector<std::int32_t> want{0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3, 3};
    for (std::size_t i = 0; i < 12; ++i)
      ASSERT_EQ(keys[i], want[i]) << "spb=" << spb << " i=" << i;
  }
}

TEST(SetKeys, AutoFormulaMatchesPaper) {
  // 1 + #segments / (#SM * C)
  EXPECT_EQ(auto_segs_per_block(100, 28), 1);
  EXPECT_EQ(auto_segs_per_block(28'000, 28), 2);
  EXPECT_EQ(auto_segs_per_block(1'000'000, 28), 1 + 1'000'000 / 28'000);
  EXPECT_EQ(auto_segs_per_block(5'000'000, 28, 500), 1 + 5'000'000 / 14'000);

  // The launched grid: max(paper term, ceil(S / ceil(N / kBlockDim))).
  // Paper scale (N > #SM * C * kBlockDim elements): the paper's term governs.
  EXPECT_EQ(segs_per_block(1'000'000, 50'000'000, 28), 1 + 1'000'000 / 28'000);
  EXPECT_EQ(segs_per_block(28, 1'000'000, 28), 1);  // root level: 1 per block
  // Short segments: the element bound governs and caps the grid at
  // ceil(N / kBlockDim) blocks.  5.5 M segments over 6.6 M elements (1.2
  // per segment) would launch 5.5 M blocks under the paper's term alone.
  const std::int64_t s = 5'500'000;
  const std::int64_t n = 6'600'000;
  const std::int64_t elem_blocks = (n + kBlockDim - 1) / kBlockDim;
  const std::int64_t spb = segs_per_block(s, n, 28);
  EXPECT_EQ(spb, (s + elem_blocks - 1) / elem_blocks);
  EXPECT_GT(spb, auto_segs_per_block(s, 28));
  EXPECT_LE((s + spb - 1) / spb, elem_blocks);
  EXPECT_EQ(segs_per_block(100'000, 1'000, 28), 100'000 / 4);  // 4 blocks
  // A smaller C raises the paper's term past the element bound again.
  EXPECT_EQ(segs_per_block(s, n, 28, 1), 1 + s / 28);
  // No elements: the paper's term alone.
  EXPECT_EQ(segs_per_block(100, 0, 28), 1);
}

TEST(SetKeys, FewerBlocksWithCustomFormula) {
  auto dev = make_device();
  const std::int64_t n_seg = 200000;
  std::vector<std::int64_t> offs(n_seg + 1);
  for (std::int64_t s = 0; s <= n_seg; ++s) offs[s] = s;  // 1-elem segments
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(n_seg);

  set_keys(dev, d_offs, keys, 1);
  const double naive = dev.timeline().kernels.at("set_keys").seconds;
  dev.reset_timeline();
  set_keys(dev, d_offs, keys,
           auto_segs_per_block(n_seg, dev.config().num_sms));
  const double custom = dev.timeline().kernels.at("set_keys").seconds;
  EXPECT_LT(custom, naive);  // the 10-20% effect the paper reports
}

class SegScanCase : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SegScanCase, MatchesSerialReference) {
  const auto [n_int, seed] = GetParam();
  const std::int64_t n = n_int;
  auto dev = make_device();
  auto host = random_doubles(static_cast<std::size_t>(n), seed);
  auto offs = random_offsets(n, seed + 1);
  const std::int64_t n_seg = static_cast<std::int64_t>(offs.size()) - 1;

  auto d_vals = dev.to_device<double>(host);
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  set_keys(dev, d_offs, keys, auto_segs_per_block(n_seg, 28));
  auto out = dev.alloc<double>(static_cast<std::size_t>(n));
  segmented_inclusive_scan_by_key(dev, d_vals, keys, out);

  for (std::int64_t s = 0; s < n_seg; ++s) {
    double acc = 0;
    for (std::int64_t i = offs[s]; i < offs[s + 1]; ++i) {
      acc += host[static_cast<std::size_t>(i)];
      ASSERT_NEAR(out[static_cast<std::size_t>(i)], acc, 1e-9)
          << "seg=" << s << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegScanCase,
    ::testing::Combine(::testing::Values(1, 200, 256, 1000, 50000),
                       ::testing::Values(1, 2, 3)));

TEST(SegScan, SingleSegmentSpanningManyBlocks) {
  auto dev = make_device();
  const std::int64_t n = 10000;
  std::vector<double> host(n, 1.0);
  auto d_vals = dev.to_device<double>(host);
  auto keys = dev.alloc<std::int32_t>(n);
  fill(dev, keys, std::int32_t{0});
  auto out = dev.alloc<double>(n);
  segmented_inclusive_scan_by_key(dev, d_vals, keys, out);
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_DOUBLE_EQ(out[static_cast<std::size_t>(i)],
                     static_cast<double>(i + 1));
}

TEST(SegArgMax, PerSegmentBestWithTies) {
  auto dev = make_device();
  std::vector<double> vals{1, 5, 5, 2, /*seg1*/ 7, /*seg2 empty*/ /*seg3*/ 3, 3};
  std::vector<std::int64_t> offs{0, 4, 5, 5, 7};
  auto d_vals = dev.to_device<double>(vals);
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto bv = dev.alloc<double>(4);
  auto bi = dev.alloc<std::int64_t>(4);
  for (std::int64_t spb : {1, 3, 100}) {
    segmented_arg_max(dev, d_vals, d_offs, bv, bi, spb);
    EXPECT_EQ(bi[0], 1) << spb;  // first of the tied 5s
    EXPECT_EQ(bv[0], 5.0);
    EXPECT_EQ(bi[1], 4);
    EXPECT_EQ(bi[2], -1);  // empty segment
    EXPECT_EQ(bi[3], 5);   // first of the tied 3s
  }
}

TEST(Compact, KeepsFlaggedInOrder) {
  auto dev = make_device();
  const std::int64_t n = 10007;
  std::mt19937 rng(99);
  std::vector<std::int32_t> host(n);
  std::vector<std::uint8_t> flags(n);
  std::vector<std::int32_t> want;
  for (std::int64_t i = 0; i < n; ++i) {
    host[i] = static_cast<std::int32_t>(rng());
    flags[i] = static_cast<std::uint8_t>(rng() % 3 == 0);
    if (flags[i]) want.push_back(host[i]);
  }
  auto d_in = dev.to_device<std::int32_t>(host);
  auto d_flags = dev.to_device<std::uint8_t>(flags);
  auto d_out = dev.alloc<std::int32_t>(n);
  const std::int64_t kept = compact(dev, d_in, d_flags, d_out);
  ASSERT_EQ(kept, static_cast<std::int64_t>(want.size()));
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(d_out[i], want[i]);
}

TEST(Compact, AllAndNoneKept) {
  auto dev = make_device();
  std::vector<std::int32_t> host{1, 2, 3, 4};
  auto d_in = dev.to_device<std::int32_t>(host);
  auto d_out = dev.alloc<std::int32_t>(4);

  std::vector<std::uint8_t> all(4, 1);
  auto d_all = dev.to_device<std::uint8_t>(all);
  EXPECT_EQ(compact(dev, d_in, d_all, d_out), 4);

  std::vector<std::uint8_t> none(4, 0);
  auto d_none = dev.to_device<std::uint8_t>(none);
  EXPECT_EQ(compact(dev, d_in, d_none, d_out), 0);
}

TEST(Sort, FloatKeyMapsPreserveOrder) {
  std::vector<float> vals{-100.f, -1.5f, -0.f, 0.f, 0.25f, 1.f, 1e30f};
  for (std::size_t i = 1; i < vals.size(); ++i) {
    EXPECT_LE(float_to_ordered(vals[i - 1]), float_to_ordered(vals[i]));
  }
  for (float v : vals) {
    EXPECT_EQ(ordered_to_float(float_to_ordered(v)), v);
  }
}

TEST(Sort, CompositeKeyOrdersAttrAscValueDesc) {
  // attr ascending dominates; within an attr larger values sort first.
  EXPECT_LT(column_desc_key(0, 1.f), column_desc_key(1, 100.f));
  EXPECT_LT(column_desc_key(2, 5.f), column_desc_key(2, 3.f));
  EXPECT_LT(column_desc_key(2, 5.f), column_desc_key(2, -3.f));
}

class SortSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SortSizes, SortsRandomKeysStably) {
  auto dev = make_device();
  const auto n = static_cast<std::size_t>(GetParam());
  std::mt19937_64 rng(n);
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng() % 1000;  // many duplicates to exercise stability
    vals[i] = static_cast<std::uint32_t>(i);
  }
  auto d_keys = dev.to_device<std::uint64_t>(keys);
  auto d_vals = dev.to_device<std::uint32_t>(vals);
  radix_sort_pairs(dev, d_keys, d_vals);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> want(n);
  for (std::size_t i = 0; i < n; ++i) want[i] = {keys[i], vals[i]};
  std::stable_sort(want.begin(), want.end(),
                   [](auto& a, auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(d_keys[i], want[i].first) << i;
    ASSERT_EQ(d_vals[i], want[i].second) << i;  // stability
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(0, 1, 2, 256, 1000, 65536));

TEST(Sort, FullWidthKeys) {
  auto dev = make_device();
  std::mt19937_64 rng(7);
  const std::size_t n = 5000;
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng();
    vals[i] = static_cast<std::uint32_t>(i);
  }
  auto d_keys = dev.to_device<std::uint64_t>(keys);
  auto d_vals = dev.to_device<std::uint32_t>(vals);
  radix_sort_pairs(dev, d_keys, d_vals, 64);
  for (std::size_t i = 1; i < n; ++i) ASSERT_LE(d_keys[i - 1], d_keys[i]);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(keys[static_cast<std::size_t>(d_vals[i])], d_keys[i]);
}

// ---- histogram partition ---------------------------------------------------

struct PartitionCase {
  std::int64_t n;
  std::int64_t n_parts;
  std::int32_t customized;  // 0/1
  std::uint32_t seed;
};

// Names each case (its test id suffix and `GetParam() =` note), e.g.
// `n1000_parts2_customized`, where gtest would print the struct's bytes.
void PrintTo(const PartitionCase& c, std::ostream* os) {
  *os << "n" << c.n << "_parts" << c.n_parts
      << (c.customized != 0 ? "_customized" : "_naive");
}

class Partition : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(Partition, GroupsByPartPreservingOrder) {
  const auto p = GetParam();
  auto dev = make_device();
  std::mt19937 rng(p.seed);
  std::vector<std::int32_t> ids(p.n);
  for (auto& x : ids) {
    // ~10% dropped
    x = rng() % 10 == 0 ? -1 : static_cast<std::int32_t>(rng() % p.n_parts);
  }
  auto d_ids = dev.to_device<std::int32_t>(ids);
  auto scatter = dev.alloc<std::int64_t>(p.n);
  auto offs = dev.alloc<std::int64_t>(p.n_parts + 1);
  const auto plan =
      plan_partition(p.n, p.n_parts, /*max_counter_bytes=*/1 << 16,
                     p.customized);
  partition_scatter(dev, d_ids.span(), p.n_parts, scatter.span(),
                      offs.span(), plan);

  // Reference: stable grouping by part id.
  std::vector<std::int64_t> want(p.n, -1);
  std::vector<std::int64_t> counts(p.n_parts + 1, 0);
  for (auto id : ids)
    if (id >= 0) ++counts[id + 1];
  for (std::int64_t q = 1; q <= p.n_parts; ++q) counts[q] += counts[q - 1];
  std::vector<std::int64_t> cursor(counts.begin(), counts.end() - 1);
  for (std::int64_t i = 0; i < p.n; ++i)
    if (ids[i] >= 0) want[i] = cursor[ids[i]]++;

  for (std::int64_t i = 0; i < p.n; ++i)
    ASSERT_EQ(scatter[static_cast<std::size_t>(i)], want[i])
        << "i=" << i << " custom=" << p.customized;
  for (std::int64_t q = 0; q < p.n_parts; ++q)
    ASSERT_EQ(offs[static_cast<std::size_t>(q)], counts[q]) << q;
  ASSERT_EQ(offs[static_cast<std::size_t>(p.n_parts)], counts[p.n_parts]);
}

// The data-moving form hands every element to the emitter exactly once, in
// single- and multi-pass plans: kept elements at the index-only form's
// destination, dropped ones with -1.
TEST_P(Partition, EmitterSeesEveryElementOnceAtItsDestination) {
  const auto p = GetParam();
  auto dev = make_device();
  std::mt19937 rng(p.seed);
  std::vector<std::int32_t> ids(p.n);
  for (auto& x : ids) {
    x = rng() % 10 == 0 ? -1 : static_cast<std::int32_t>(rng() % p.n_parts);
  }
  auto d_ids = dev.to_device<std::int32_t>(ids);
  const auto plan =
      plan_partition(p.n, p.n_parts, /*max_counter_bytes=*/1 << 16,
                     p.customized);
  auto scatter = dev.alloc<std::int64_t>(p.n);
  auto offs = dev.alloc<std::int64_t>(p.n_parts + 1);
  partition_scatter(dev, d_ids.span(), p.n_parts, scatter.span(),
                      offs.span(), plan);

  auto moved = dev.alloc<std::int64_t>(p.n);  // moved[dst] = source index
  auto calls = dev.alloc<std::int32_t>(p.n);
  auto dropped = dev.alloc<std::int32_t>(p.n);
  auto emit_offs = dev.alloc<std::int64_t>(p.n_parts + 1);
  auto mv = moved.span();
  auto cl = calls.span();
  auto dr = dropped.span();
  histogram_partition_emit(
      dev, d_ids.span(), p.n_parts, emit_offs.span(), plan, nullptr,
      [mv, cl, dr](device::BlockCtx& b, std::int64_t i, std::int64_t dst) {
        ++cl[static_cast<std::size_t>(i)];
        b.writes(cl, i);
        if (dst < 0) {
          dr[static_cast<std::size_t>(i)] = 1;
          b.writes(dr, i);
          return;
        }
        mv[static_cast<std::size_t>(dst)] = i;
        b.writes(mv, dst);
      });

  for (std::int64_t i = 0; i < p.n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ASSERT_EQ(calls[u], 1) << "i=" << i << " passes=" << plan.passes;
    ASSERT_EQ(dropped[u], ids[u] < 0 ? 1 : 0) << "i=" << i;
    if (ids[u] >= 0) {
      ASSERT_EQ(moved[static_cast<std::size_t>(scatter[u])], i) << "i=" << i;
    }
  }
  for (std::int64_t q = 0; q <= p.n_parts; ++q) {
    ASSERT_EQ(emit_offs[static_cast<std::size_t>(q)],
              offs[static_cast<std::size_t>(q)])
        << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Partition,
    ::testing::Values(PartitionCase{1000, 2, true, 1},
                      PartitionCase{1000, 2, false, 2},
                      PartitionCase{50000, 64, true, 3},
                      PartitionCase{50000, 64, false, 4},
                      // enough parts to force multi-pass in naive mode
                      PartitionCase{20000, 4096, false, 5},
                      PartitionCase{20000, 4096, true, 6},
                      PartitionCase{17, 1, true, 7},
                      PartitionCase{257, 300, false, 8}));

TEST(PartitionPlan, CustomizedBoundsCounterMemory) {
  const std::size_t budget = 1 << 20;
  for (std::int64_t parts : {2, 100, 10000, 1000000}) {
    const auto plan = plan_partition(1 << 22, parts, budget, true);
    EXPECT_LE(plan.counter_bytes, budget) << parts;
    if (parts * 8 <= static_cast<std::int64_t>(budget)) {
      // The paper's formula always fits a single pass when one is possible.
      EXPECT_EQ(plan.passes, 1) << parts;
    } else {
      // Even one thread overflows -> chunked passes, still within budget.
      EXPECT_GT(plan.passes, 1) << parts;
    }
  }
}

TEST(PartitionPlan, NaiveOverflowsIntoMultiplePasses) {
  // 2^20 elements at the fixed naive workload of 16 -> 65536 threads; one
  // partition's counter column = 512 KiB, so 4096 partitions need 2048
  // passes under a 1 MiB budget while the customized plan needs one.
  const std::size_t budget = 1 << 20;
  const auto naive = plan_partition(1 << 20, 4096, budget, false);
  EXPECT_GT(naive.passes, 1);
  EXPECT_LE(naive.passes, 2);  // bounded fallback (see partition.cpp)
  EXPECT_LE(naive.counter_bytes, budget);
  const auto custom = plan_partition(1 << 20, 4096, budget, true);
  EXPECT_EQ(custom.passes, 1);
  EXPECT_GT(custom.workload, naive.workload);

  // When the matrix fits comfortably, naive keeps the fixed b = 16.
  const auto small = plan_partition(10000, 4, std::size_t{1} << 30, false);
  EXPECT_EQ(small.workload, 16);
  EXPECT_EQ(small.passes, 1);
}

TEST(PartitionPlan, CustomizedIsCheaperForManyParts) {
  auto dev = make_device();
  const std::int64_t n = 100000, parts = 2048;
  std::mt19937 rng(31);
  std::vector<std::int32_t> ids(n);
  for (auto& x : ids) x = static_cast<std::int32_t>(rng() % parts);
  auto d_ids = dev.to_device<std::int32_t>(ids);
  auto scatter = dev.alloc<std::int64_t>(n);
  auto offs = dev.alloc<std::int64_t>(parts + 1);

  partition_scatter(dev, d_ids.span(), parts, scatter.span(), offs.span(),
                      plan_partition(n, parts, 1 << 18, false));
  const double naive = dev.elapsed_seconds();
  dev.reset_timeline();
  partition_scatter(dev, d_ids.span(), parts, scatter.span(), offs.span(),
                      plan_partition(n, parts, 1 << 18, true));
  const double custom = dev.elapsed_seconds();
  EXPECT_LT(custom, naive);
}

}  // namespace
}  // namespace gbdt::prim
