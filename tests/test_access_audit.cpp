// Tests for the kernel access auditor (src/analysis): clean annotated code
// stays silent, each seeded fault class fires with a minimized report, the
// auditor is inert when disabled, violations unwind cleanly through the
// multi-worker thread pool, and DeviceAllocator over-release is reported.
//
// The fault kernels perform their overlapping writes for real, so every
// test that runs one uses a single-worker (serial) device — the auditor
// fires on the declarations either way, and the ThreadSanitizer lane of
// tools/check_sanitizers.sh stays clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/access_audit.h"
#include "analysis/fault_kernels.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "primitives/partition.h"
#include "primitives/scan.h"
#include "primitives/sort.h"
#include "primitives/transform.h"
#include "rle/rle.h"

namespace gbdt {
namespace {

using analysis::AuditViolation;
using device::Device;
using device::DeviceConfig;

/// Arms the auditor for the test body and disarms it on exit, so audit
/// state never leaks across tests.
class AuditArmed : public ::testing::Test {
 protected:
  void SetUp() override { analysis::set_audit_enabled(true); }
  void TearDown() override { analysis::set_audit_enabled(false); }
};

using AccessAudit = AuditArmed;

TEST_F(AccessAudit, AnnotatedPrimitivesRunClean) {
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
  const std::int64_t n = 10'000;

  auto in = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto out = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
  prim::fill(dev, in, std::int64_t{3});
  EXPECT_NO_THROW(prim::exclusive_scan(dev, in, out, "audit_scan"));
  EXPECT_EQ(out[static_cast<std::size_t>(n - 1)], 3 * (n - 1));

  auto keys = dev.alloc<std::uint64_t>(static_cast<std::size_t>(n));
  auto vals = dev.alloc<std::uint32_t>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] =
        static_cast<std::uint64_t>((i * 2654435761u) % 100'000);
    vals[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  }
  EXPECT_NO_THROW(prim::radix_sort_pairs(dev, keys, vals, 32));
  for (std::int64_t i = 1; i < n; ++i) {
    ASSERT_LE(keys[static_cast<std::size_t>(i - 1)],
              keys[static_cast<std::size_t>(i)]);
  }

  auto ids = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ids[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i % 7);
  }
  auto scatter = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto offsets = dev.alloc<std::int64_t>(8);
  const auto plan = prim::plan_partition(n, 7, 1 << 20, true);
  EXPECT_NO_THROW(prim::histogram_partition_emit(
      dev, ids.span(), 7, offsets.span(), plan, nullptr,
      [s = scatter.span()](device::BlockCtx& b, std::int64_t i,
                           std::int64_t dst) {
        s[static_cast<std::size_t>(i)] = dst;
        b.writes(s, i);
        b.mem_coalesced(sizeof(std::int64_t));
      }));
  EXPECT_EQ(offsets[7], n);
}

TEST_F(AccessAudit, OverlappingWriteFires) {
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/1);
  try {
    analysis::run_overlapping_scatter_fault(dev);
    FAIL() << "auditor did not fire";
  } catch (const AuditViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault_overlapping_scatter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("both write"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocks 0 and 1"), std::string::npos) << msg;
  }
}

TEST_F(AccessAudit, CrossBlockReadFires) {
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/1);
  try {
    analysis::run_cross_block_read_fault(dev);
    FAIL() << "auditor did not fire";
  } catch (const AuditViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault_cross_block_read"), std::string::npos) << msg;
    EXPECT_NE(msg.find("writes in the same launch"), std::string::npos) << msg;
  }
}

TEST_F(AccessAudit, OutOfBoundsDeclarationFires) {
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/1);
  try {
    analysis::run_out_of_bounds_fault(dev);
    FAIL() << "auditor did not fire";
  } catch (const AuditViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault_out_of_bounds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of bounds"), std::string::npos) << msg;
  }
}

TEST_F(AccessAudit, ViolationUnwindsThroughWorkerPoolAndDeviceStaysUsable) {
  // The out-of-bounds fault only *declares* the bad access (no real OOB
  // store), so it is safe on a multi-worker pool: the throw happens on
  // whichever worker runs the last block and must surface on the caller.
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
  EXPECT_THROW(analysis::run_out_of_bounds_fault(dev, /*grid_dim=*/64),
               AuditViolation);

  // The pool must remain reusable after the unwound launch.
  auto buf = dev.alloc<std::int64_t>(4096);
  EXPECT_NO_THROW(prim::iota(dev, buf));
  EXPECT_EQ(buf[4095], 4095);
}

TEST(AccessAuditDisabled, FaultKernelsAreInertWithoutAudit) {
  analysis::set_audit_enabled(false);
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/1);
  EXPECT_NO_THROW(analysis::run_overlapping_scatter_fault(dev));
  EXPECT_NO_THROW(analysis::run_cross_block_read_fault(dev));
  EXPECT_NO_THROW(analysis::run_out_of_bounds_fault(dev));
}

TEST_F(AccessAudit, SparseAndRleTrainingRunClean) {
  data::SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 8;
  spec.density = 0.6;
  spec.distinct_values = 6;  // low cardinality so RLE engages
  spec.seed = 41;
  const auto ds = data::generate(spec);

  GBDTParam p;
  p.depth = 4;
  p.n_trees = 2;

  {
    p.use_rle = false;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    const auto rep = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_EQ(rep.trees.size(), 2u);
  }
  {
    p.use_rle = true;
    p.force_rle = true;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    const auto rep = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_TRUE(rep.used_rle);
  }
}

TEST_F(AccessAudit, RleRoundTripRunsClean) {
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
  const std::int64_t n = 4096;
  auto values = dev.alloc<float>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    values[static_cast<std::size_t>(i)] = static_cast<float>((i / 37) % 5);
  }
  auto offs = dev.alloc<std::int64_t>(3);
  offs[0] = 0;
  offs[1] = n / 2;
  offs[2] = n;
  const auto rle = rle::compress(dev, values.span(), offs.span());
  auto back = dev.alloc<float>(static_cast<std::size_t>(n));
  rle::decompress(dev, rle, back);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[static_cast<std::size_t>(i)],
              values[static_cast<std::size_t>(i)]);
  }
}

TEST(AccessAuditOverRelease, CountersTrackWithoutAudit) {
  analysis::set_audit_enabled(false);
  device::DeviceAllocator a(1000);
  a.acquire(100);
  a.release(300);  // 200 B over
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.releases(), 1u);
  EXPECT_EQ(a.over_releases(), 1u);
  EXPECT_EQ(a.over_released_bytes(), 200u);
  a.acquire(50);
  a.release(50);
  EXPECT_EQ(a.releases(), 2u);
  EXPECT_EQ(a.over_releases(), 1u);
}

TEST(AccessAuditOverReleaseDeathTest, AbortsWithReportWhenAudited) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        analysis::set_audit_enabled(true);
        device::DeviceAllocator a(1000);
        a.acquire(100);
        a.release(300);
      },
      "over-release: released 300 bytes with only 100 in use");
}

}  // namespace
}  // namespace gbdt
