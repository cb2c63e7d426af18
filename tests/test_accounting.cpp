// Accounting-precision tests: the analytic model is only as good as its
// counters, so the counters themselves are pinned down here — exact PCI-e
// byte counts, timeline composition, per-kernel aggregation, and the
// monotonicity properties benches rely on.
#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "primitives/transform.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

TEST(Accounting, PcieBytesAreExact) {
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<double> host(1000, 1.0);
  auto buf = dev.to_device<double>(host);
  EXPECT_EQ(dev.timeline().bytes_to_device, 8000u);
  std::vector<float> host2(300, 2.f);
  auto buf2 = dev.to_device<float>(host2);
  EXPECT_EQ(dev.timeline().bytes_to_device, 8000u + 1200u);
  (void)dev.to_host(buf2);
  EXPECT_EQ(dev.timeline().bytes_to_host, 1200u);
  EXPECT_EQ(dev.timeline().transfers, 3u);
  // Transfer time = latency + bytes / bandwidth, exactly.
  const auto& cfg = dev.config();
  const double want = 3 * cfg.pcie_latency_us * 1e-6 +
                      (8000.0 + 1200.0 + 1200.0) /
                          (cfg.pcie_bandwidth_gbps * 1e9);
  EXPECT_NEAR(dev.timeline().transfer_seconds, want, 1e-12);
}

TEST(Accounting, KernelRecordsAggregateByName) {
  Device dev(DeviceConfig::titan_x_pascal());
  auto buf = dev.alloc<int>(1024);
  prim::fill(dev, buf, 1);
  prim::fill(dev, buf, 2);
  prim::iota(dev, buf, 0);
  const auto& kernels = dev.timeline().kernels;
  ASSERT_TRUE(kernels.contains("fill"));
  ASSERT_TRUE(kernels.contains("iota"));
  EXPECT_EQ(kernels.at("fill").launches, 2u);
  EXPECT_EQ(kernels.at("iota").launches, 1u);
  EXPECT_EQ(kernels.at("fill").stats.blocks, 8u);  // 2 x 1024/256
  EXPECT_DOUBLE_EQ(dev.timeline().kernel_seconds,
                   kernels.at("fill").seconds + kernels.at("iota").seconds);
}

TEST(Accounting, TrainerModeledSecondsEqualTimelineDelta) {
  data::SyntheticSpec s;
  s.n_instances = 500;
  s.n_attributes = 8;
  s.seed = 95;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  const double before = dev.elapsed_seconds();
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 3;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  const double delta = dev.elapsed_seconds() - before;
  // The report covers the whole call, label upload and score read-back
  // included: it is the device clock's advance, exactly.
  EXPECT_GT(delta, 0.0);
  EXPECT_EQ(r.modeled_seconds, delta);
}

TEST(Accounting, ModeledTimeScalesWithData) {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  double prev = 0.0;
  for (std::int64_t n : {1000, 4000, 16000}) {
    data::SyntheticSpec s;
    s.n_instances = n;
    s.n_attributes = 10;
    s.seed = 96;
    const auto ds = generate(s);
    Device dev(DeviceConfig::titan_x_pascal());
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_GT(r.modeled_seconds, prev);
    prev = r.modeled_seconds;
  }
}

TEST(Accounting, FasterDeviceTrainsFasterOnSameWork) {
  data::SyntheticSpec s;
  s.n_instances = 5000;
  s.n_attributes = 12;
  s.seed = 97;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  double k20 = 0, titan = 0, p100 = 0;
  {
    Device dev(DeviceConfig::tesla_k20());
    k20 = GpuGbdtTrainer(dev, p).train(ds).modeled_seconds;
  }
  {
    Device dev(DeviceConfig::titan_x_pascal());
    titan = GpuGbdtTrainer(dev, p).train(ds).modeled_seconds;
  }
  {
    Device dev(DeviceConfig::tesla_p100());
    p100 = GpuGbdtTrainer(dev, p).train(ds).modeled_seconds;
  }
  EXPECT_GT(k20, titan);
  EXPECT_GT(titan, p100);
}

TEST(Accounting, PeakMemoryCoversResidentState) {
  data::SyntheticSpec s;
  s.n_instances = 2000;
  s.n_attributes = 10;
  s.density = 1.0;
  s.seed = 98;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 1;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  // At minimum: original + working lists (2 x 8 B/entry) and per-instance
  // state (grad+hess+pred+node = 24 B/inst).
  const std::size_t floor_bytes =
      static_cast<std::size_t>(ds.n_entries()) * 16 +
      static_cast<std::size_t>(ds.n_instances()) * 24;
  EXPECT_GE(r.peak_device_bytes, floor_bytes);
}

}  // namespace
}  // namespace gbdt
