// Unit tests for the simulated device: allocator capacity semantics, buffer
// RAII, kernel launch accounting, cost-model monotonicity, PCI-e accounting.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "device/cost_model.h"
#include "device/device_config.h"
#include "device/device_context.h"
#include "device/device_memory.h"

namespace gbdt::device {
namespace {

DeviceConfig small_config(std::size_t mem = 1 << 20) {
  DeviceConfig c = DeviceConfig::titan_x_pascal();
  c.global_mem_bytes = mem;
  return c;
}

TEST(DeviceAllocator, TracksUsageAndPeak) {
  DeviceAllocator a(1000);
  a.acquire(400);
  EXPECT_EQ(a.used(), 400u);
  a.acquire(500);
  EXPECT_EQ(a.used(), 900u);
  EXPECT_EQ(a.peak(), 900u);
  a.release(500);
  EXPECT_EQ(a.used(), 400u);
  EXPECT_EQ(a.peak(), 900u);
  EXPECT_EQ(a.available(), 600u);
}

TEST(DeviceAllocator, ThrowsOnExhaustion) {
  DeviceAllocator a(1000);
  a.acquire(800);
  EXPECT_THROW(a.acquire(300), DeviceOutOfMemory);
  // A failed acquire must not change usage.
  EXPECT_EQ(a.used(), 800u);
}

TEST(DeviceAllocator, OomCarriesDiagnostics) {
  DeviceAllocator a(100);
  a.acquire(60);
  try {
    a.acquire(50);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 50u);
    EXPECT_EQ(e.used(), 60u);
    EXPECT_EQ(e.capacity(), 100u);
  }
}

TEST(DeviceBuffer, RaiiReleasesOnDestruction) {
  DeviceAllocator a(1 << 20);
  {
    DeviceBuffer<float> buf(a, 1024);
    EXPECT_EQ(a.used(), 1024 * sizeof(float));
    EXPECT_EQ(buf.size(), 1024u);
  }
  EXPECT_EQ(a.used(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  DeviceAllocator a(1 << 20);
  DeviceBuffer<int> src(a, 100);
  src[7] = 42;
  DeviceBuffer<int> dst(std::move(src));
  EXPECT_EQ(dst.size(), 100u);
  EXPECT_EQ(dst[7], 42);
  EXPECT_EQ(src.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.used(), 100 * sizeof(int));
}

TEST(DeviceBuffer, ShrinkReturnsMemory) {
  DeviceAllocator a(1 << 20);
  DeviceBuffer<double> buf(a, 1000);
  buf.shrink(250);
  EXPECT_EQ(buf.size(), 250u);
  EXPECT_EQ(a.used(), 250 * sizeof(double));
  buf.shrink(900);  // growing via shrink is a no-op
  EXPECT_EQ(buf.size(), 250u);
}

TEST(Device, LaunchRunsEveryBlockOnce) {
  Device dev(small_config());
  auto buf = dev.alloc<int>(1000);
  auto s = buf.span();
  dev.launch("touch", grid_for(1000, 256), 256, [&](BlockCtx& b) {
    b.for_each_thread([&](std::int64_t i) {
      if (i < 1000) s[static_cast<std::size_t>(i)] += 1;
    });
  });
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(buf[i], 1) << i;
  EXPECT_EQ(dev.timeline().launches, 1u);
  EXPECT_EQ(dev.timeline().kernels.at("touch").stats.blocks, 4u);
}

TEST(Device, SharedMemoryBeyondTheBlockCapacityFailsTheLaunch) {
  DeviceConfig cfg = small_config();
  cfg.shared_mem_per_block_bytes = 1024;
  Device dev(cfg);
  dev.launch("fits", 2, 32, [](BlockCtx& b) { b.uses_shared(1024); });
  EXPECT_EQ(dev.timeline().kernels.at("fits").stats.max_shared_bytes, 1024u);
  EXPECT_THROW(dev.launch("too_big", 2, 32,
                          [](BlockCtx& b) {
                            b.uses_shared(b.block_idx() == 1 ? 1025 : 8);
                          }),
               std::runtime_error);
  EXPECT_FALSE(dev.timeline().kernels.contains("too_big"));
}

TEST(Device, MultiWorkerLaunchMatchesSerial) {
  const std::int64_t n = 10000;
  std::vector<int> expected(n);
  for (std::int64_t i = 0; i < n; ++i) expected[i] = static_cast<int>(i * 3);

  for (unsigned workers : {1u, 4u}) {
    Device dev(small_config(), workers);
    auto buf = dev.alloc<int>(n);
    auto s = buf.span();
    dev.launch("triple", grid_for(n, 256), 256, [&](BlockCtx& b) {
      b.for_each_thread([&](std::int64_t i) {
        if (i < n) s[static_cast<std::size_t>(i)] = static_cast<int>(i * 3);
      });
    });
    auto host = dev.to_host(buf);
    EXPECT_EQ(host, expected) << "workers=" << workers;
  }
}

TEST(Device, TimelineAccumulatesKernelsAndTransfers) {
  Device dev(small_config());
  std::vector<float> host(4096, 1.f);
  auto buf = dev.to_device<float>(host);
  EXPECT_EQ(dev.timeline().transfers, 1u);
  EXPECT_EQ(dev.timeline().bytes_to_device, 4096 * sizeof(float));
  EXPECT_GT(dev.timeline().transfer_seconds, 0.0);

  dev.launch("noop", 2, 256, [&](BlockCtx& b) { b.work(100); });
  EXPECT_GT(dev.timeline().kernel_seconds, 0.0);
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(),
                   dev.timeline().kernel_seconds +
                       dev.timeline().transfer_seconds);

  auto back = dev.to_host(buf);
  EXPECT_EQ(back, host);
  EXPECT_EQ(dev.timeline().bytes_to_host, 4096 * sizeof(float));

  dev.reset_timeline();
  EXPECT_EQ(dev.elapsed_seconds(), 0.0);
  EXPECT_TRUE(dev.timeline().kernels.empty());
}

TEST(Device, BufferAllocationRespectsDeviceCapacity) {
  Device dev(small_config(/*mem=*/4096));
  auto ok = dev.alloc<std::uint8_t>(4000);
  EXPECT_THROW((void)dev.alloc<std::uint8_t>(200), DeviceOutOfMemory);
}

TEST(DeviceAllocator, PeakResetsToCurrentUsage) {
  DeviceAllocator a(1000);
  a.acquire(700);
  a.release(500);
  EXPECT_EQ(a.peak(), 700u);
  a.reset_peak();
  EXPECT_EQ(a.peak(), 200u);
  a.acquire(100);
  EXPECT_EQ(a.peak(), 300u);
  EXPECT_EQ(a.allocations(), 2u);
  EXPECT_EQ(a.releases(), 1u);
  EXPECT_EQ(a.over_releases(), 0u);
}

TEST(Device, KernelThrowSurfacesOnCallerAndPoolStaysUsable) {
  // A device-memory failure raised inside a kernel block must reach the
  // calling thread as the original exception type, on a multi-worker pool,
  // and the pool must keep running launches afterwards.
  const std::int64_t n = 100'000;
  Device dev(small_config(/*mem=*/1 << 22), /*workers=*/4);
  auto buf = dev.alloc<int>(n);
  auto s = buf.span();

  try {
    dev.launch("throwing_kernel", grid_for(n, 256), 256, [&](BlockCtx& b) {
      if (b.block_idx() == 17) {
        throw DeviceOutOfMemory(64, 32, 48);
      }
      b.for_each_thread([&](std::int64_t i) {
        if (i < n) s[static_cast<std::size_t>(i)] = 1;
      });
      b.writes_tile(s, n);
    });
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 64u);
    EXPECT_EQ(e.used(), 32u);
    EXPECT_EQ(e.capacity(), 48u);
  }

  // Subsequent launches on the same pool complete normally.
  for (int round = 0; round < 3; ++round) {
    dev.launch("after_throw", grid_for(n, 256), 256, [&](BlockCtx& b) {
      b.for_each_thread([&](std::int64_t i) {
        if (i < n) s[static_cast<std::size_t>(i)] = round;
      });
      b.writes_tile(s, n);
    });
  }
  for (std::int64_t i = 0; i < n; i += 997) {
    ASSERT_EQ(buf[static_cast<std::size_t>(i)], 2);
  }
}

TEST(Device, FirstOfConcurrentKernelExceptionsWins) {
  // Several blocks throw; exactly one exception (the first captured) must
  // surface and the launch must still drain cleanly.
  const std::int64_t grid = 64;
  Device dev(small_config(), /*workers=*/4);
  int runs = 0;
  for (int round = 0; round < 10; ++round) {
    try {
      dev.launch("multi_throw", grid, 32, [&](BlockCtx& b) {
        if (b.block_idx() % 3 == 0) {
          throw std::runtime_error("block " + std::to_string(b.block_idx()));
        }
      });
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("block ", 0), 0u) << e.what();
      ++runs;
    }
  }
  EXPECT_EQ(runs, 10);
}

TEST(CostModel, MoreIrregularTrafficCostsMore) {
  CostModel m(DeviceConfig::titan_x_pascal());
  KernelStats streaming;
  streaming.thread_work = 1 << 20;
  streaming.coalesced_bytes = 1 << 24;
  streaming.blocks = 4096;

  KernelStats irregular = streaming;
  irregular.coalesced_bytes = 0;
  irregular.irregular_accesses = (1 << 24) / 4;  // same payload, random

  EXPECT_GT(m.kernel_seconds(irregular), m.kernel_seconds(streaming));
}

TEST(CostModel, BusiestBlockBoundsKernelTime) {
  CostModel m(DeviceConfig::titan_x_pascal());
  KernelStats balanced;
  balanced.thread_work = 1 << 22;
  balanced.blocks = 1 << 12;
  balanced.max_block_work = (1 << 22) / (1 << 12);

  KernelStats skewed = balanced;
  skewed.max_block_work = 1 << 22;  // one block did all the work

  EXPECT_GT(m.kernel_seconds(skewed), m.kernel_seconds(balanced));
}

TEST(CostModel, BlockScheduleOverheadScalesWithBlocks) {
  CostModel m(DeviceConfig::titan_x_pascal());
  KernelStats few;
  few.thread_work = 1000;
  few.blocks = 10;
  KernelStats many = few;
  many.blocks = 10'000'000;
  EXPECT_GT(m.kernel_seconds(many), 10 * m.kernel_seconds(few));
}

TEST(CostModel, TransferFasterOnWiderLink) {
  DeviceConfig slow = DeviceConfig::titan_x_pascal();
  DeviceConfig fast = slow;
  fast.pcie_bandwidth_gbps *= 2;
  const std::uint64_t bytes = 1 << 30;
  EXPECT_GT(CostModel(slow).transfer_seconds(bytes),
            CostModel(fast).transfer_seconds(bytes));
}

TEST(DeviceConfig, PresetsAreDistinct) {
  const auto tx = DeviceConfig::titan_x_pascal();
  const auto p100 = DeviceConfig::tesla_p100();
  const auto k20 = DeviceConfig::tesla_k20();
  EXPECT_GT(p100.mem_bandwidth_gbps, tx.mem_bandwidth_gbps);
  EXPECT_LT(k20.mem_bandwidth_gbps, tx.mem_bandwidth_gbps);
  EXPECT_GT(tx.compute_throughput(), k20.compute_throughput());
}

TEST(CpuConfig, ParallelSpeedupMatchesPaperRange) {
  const auto cpu = CpuConfig::dual_xeon_e5_2640v4();
  const double s40 = cpu.parallel_speedup(40);
  // Table II reports xgbst-40 5.7x-10.7x over xgbst-1; the model must land
  // inside that band.
  EXPECT_GE(s40, 5.7);
  EXPECT_LE(s40, 10.7);
  EXPECT_EQ(cpu.parallel_speedup(1), 1.0);
  EXPECT_LT(cpu.parallel_speedup(10), cpu.parallel_speedup(20));
  EXPECT_LT(cpu.parallel_speedup(20), s40);
}

}  // namespace
}  // namespace gbdt::device
