// Determinism of the partition and scan primitives across host worker
// counts.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "device/device_context.h"
#include "primitives/partition.h"
#include "primitives/scan.h"
#include "primitives/transform.h"

namespace gbdt::prim {
namespace {

using device::Device;
using device::DeviceConfig;

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
