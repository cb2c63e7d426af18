// Tests for the extended primitive set: reduce_by_key, count_runs,
// adjacent_difference, segmented sort — plus determinism of the partition
// and scan primitives across host worker counts.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "device/device_context.h"
#include "primitives/partition.h"
#include "primitives/reduce_by_key.h"
#include "primitives/scan.h"
#include "primitives/sort.h"
#include "primitives/transform.h"

namespace gbdt::prim {
namespace {

using device::Device;
using device::DeviceConfig;

Device make_device() { return Device(DeviceConfig::titan_x_pascal()); }

TEST(ReduceByKey, CollapsesConsecutiveRuns) {
  auto dev = make_device();
  std::vector<std::int32_t> keys{1, 1, 2, 2, 2, 1, 3};
  std::vector<double> vals{1, 2, 3, 4, 5, 6, 7};
  auto d_k = dev.to_device<std::int32_t>(keys);
  auto d_v = dev.to_device<double>(vals);
  auto ok = dev.alloc<std::int32_t>(keys.size());
  auto os = dev.alloc<double>(vals.size());
  const auto runs = reduce_by_key(dev, d_k, d_v, ok, os);
  ASSERT_EQ(runs, 4);
  const std::vector<std::int32_t> want_k{1, 2, 1, 3};
  const std::vector<double> want_s{3, 12, 6, 7};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ok[i], want_k[i]) << i;
    EXPECT_DOUBLE_EQ(os[i], want_s[i]) << i;
  }
}

TEST(ReduceByKey, MatchesSerialOnRandomInput) {
  auto dev = make_device();
  std::mt19937 rng(31);
  const std::size_t n = 50000;
  std::vector<std::int32_t> keys(n);
  std::vector<double> vals(n);
  std::int32_t key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 5 == 0) ++key;
    keys[i] = key;
    vals[i] = static_cast<double>(rng() % 100) / 7.0;
  }
  auto d_k = dev.to_device<std::int32_t>(keys);
  auto d_v = dev.to_device<double>(vals);
  auto ok = dev.alloc<std::int32_t>(n);
  auto os = dev.alloc<double>(n);
  const auto runs = reduce_by_key(dev, d_k, d_v, ok, os);

  std::vector<std::pair<std::int32_t, double>> want;
  for (std::size_t i = 0; i < n; ++i) {
    if (want.empty() || want.back().first != keys[i]) {
      want.push_back({keys[i], 0.0});
    }
    want.back().second += vals[i];
  }
  ASSERT_EQ(runs, static_cast<std::int64_t>(want.size()));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(ok[i], want[i].first) << i;
    ASSERT_NEAR(os[i], want[i].second, 1e-9) << i;
  }
}

TEST(ReduceByKey, SingleRunAndEmpty) {
  auto dev = make_device();
  auto empty_k = dev.alloc<std::int32_t>(0);
  auto empty_v = dev.alloc<double>(0);
  auto ok = dev.alloc<std::int32_t>(1);
  auto os = dev.alloc<double>(1);
  EXPECT_EQ(reduce_by_key(dev, empty_k, empty_v, ok, os), 0);

  std::vector<std::int32_t> keys(777, 9);
  std::vector<double> vals(777, 0.5);
  auto d_k = dev.to_device<std::int32_t>(keys);
  auto d_v = dev.to_device<double>(vals);
  auto ok2 = dev.alloc<std::int32_t>(777);
  auto os2 = dev.alloc<double>(777);
  EXPECT_EQ(reduce_by_key(dev, d_k, d_v, ok2, os2), 1);
  EXPECT_NEAR(os2[0], 777 * 0.5, 1e-9);
}

TEST(CountRuns, MatchesReference) {
  auto dev = make_device();
  std::vector<std::int32_t> keys{5, 5, 5, 1, 1, 9, 5};
  auto d_k = dev.to_device<std::int32_t>(keys);
  EXPECT_EQ(count_runs(dev, d_k), 4);
  auto empty = dev.alloc<std::int32_t>(0);
  EXPECT_EQ(count_runs(dev, empty), 0);
}

TEST(AdjacentDifference, MatchesReference) {
  auto dev = make_device();
  std::vector<std::int64_t> in{3, 7, 7, 2, 10};
  auto d_in = dev.to_device<std::int64_t>(in);
  auto out = dev.alloc<std::int64_t>(in.size());
  adjacent_difference(dev, d_in, out);
  const std::vector<std::int64_t> want{3, 4, 0, -5, 8};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(out[i], want[i]);
}

class SegSortCase : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SegSortCase, SortsWithinSegmentsOnly) {
  const auto [seg_len, descending] = GetParam();
  auto dev = make_device();
  std::mt19937 rng(47);
  const std::int64_t n = 20000;
  std::vector<float> vals(n);
  std::vector<std::uint32_t> payload(n);
  for (std::int64_t i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] =
        static_cast<float>(static_cast<int>(rng() % 2001) - 1000) / 10.f;
    payload[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::int64_t> offs{0};
  while (offs.back() < n) {
    offs.push_back(std::min<std::int64_t>(
        n, offs.back() + 1 + static_cast<std::int64_t>(rng() % (2 * seg_len))));
  }

  auto d_v = dev.to_device<float>(vals);
  auto d_p = dev.to_device<std::uint32_t>(payload);
  auto d_o = dev.to_device<std::int64_t>(offs);
  segmented_sort_pairs(dev, d_v, d_p, d_o, descending);

  for (std::size_t s = 0; s + 1 < offs.size(); ++s) {
    // Sorted within the segment in the requested direction, stable ties.
    for (std::int64_t e = offs[s] + 1; e < offs[s + 1]; ++e) {
      const auto u = static_cast<std::size_t>(e);
      if (descending) {
        ASSERT_GE(d_v[u - 1], d_v[u]) << e;
      } else {
        ASSERT_LE(d_v[u - 1], d_v[u]) << e;
      }
      if (d_v[u - 1] == d_v[u]) {
        ASSERT_LT(d_p[u - 1], d_p[u]) << e;
      }
    }
    // Same multiset of payloads per segment (nothing crossed a boundary).
    std::multiset<std::uint32_t> got, want;
    for (std::int64_t e = offs[s]; e < offs[s + 1]; ++e) {
      got.insert(d_p[static_cast<std::size_t>(e)]);
      want.insert(payload[static_cast<std::size_t>(e)]);
    }
    ASSERT_EQ(got, want) << "segment " << s;
  }
  // Values still pair with their original payloads.
  for (std::int64_t e = 0; e < n; ++e) {
    const auto u = static_cast<std::size_t>(e);
    ASSERT_EQ(d_v[u], vals[static_cast<std::size_t>(d_p[u])]);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SegSortCase,
                         ::testing::Combine(::testing::Values(5, 300, 20000),
                                            ::testing::Bool()));

TEST(WorkerDeterminism, ScanAndPartitionMatchAcrossWorkerCounts) {
  std::mt19937 rng(53);
  const std::int64_t n = 65537;
  std::vector<double> vals(static_cast<std::size_t>(n));
  std::vector<std::int32_t> parts(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = static_cast<double>(rng() % 1000) / 3;
    parts[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(rng() % 17);
  }

  std::vector<double> scan1, scan4;
  std::vector<std::int64_t> scat1, scat4;
  for (unsigned workers : {1u, 4u}) {
    Device dev(DeviceConfig::titan_x_pascal(), workers);
    auto d_v = dev.to_device<double>(vals);
    auto out = dev.alloc<double>(static_cast<std::size_t>(n));
    inclusive_scan(dev, d_v, out);
    auto d_p = dev.to_device<std::int32_t>(parts);
    auto scatter = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
    auto offs = dev.alloc<std::int64_t>(18);
    histogram_partition_emit(
        dev, d_p.span(), 17, offs.span(), plan_partition(n, 17, 1 << 20, true),
        nullptr,
        [s = scatter.span()](device::BlockCtx& b, std::int64_t i,
                             std::int64_t dst) {
          s[static_cast<std::size_t>(i)] = dst;
          b.writes(s, i);
          b.mem_coalesced(sizeof(std::int64_t));
        });
    auto& scan_out = workers == 1 ? scan1 : scan4;
    auto& scat_out = workers == 1 ? scat1 : scat4;
    scan_out.assign(out.span().begin(), out.span().end());
    scat_out.assign(scatter.span().begin(), scatter.span().end());
  }
  EXPECT_EQ(scan1, scan4);  // bitwise: association fixed by the tiles
  EXPECT_EQ(scat1, scat4);
}

}  // namespace
}  // namespace gbdt::prim
