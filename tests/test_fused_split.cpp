// Fused find-split pipeline (src/primitives/fused_split.h): the fused and
// GBDT_UNFUSED_SPLIT escape-hatch paths must produce bitwise-identical
// forests on every trainer path (dense interleaved, sparse, both RLE split
// strategies, feature-parallel multi-GPU), the fused primitives must agree
// element-for-element with the unfused sequence they replace, every fused
// kernel must run clean under the access auditor, and the workspace arena
// must hold per-level device allocations at ~O(1).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "analysis/access_audit.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "primitives/fused_split.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

/// Forces one fused mode for the test body and restores the previous mode
/// on exit, so the process-wide flag never leaks across tests.
class ScopedFusedMode {
 public:
  explicit ScopedFusedMode(bool on) : was_(prim::fused_split_enabled()) {
    prim::set_fused_split_enabled(on);
  }
  ~ScopedFusedMode() { prim::set_fused_split_enabled(was_); }

 private:
  bool was_;
};

data::Dataset mixed_dataset(unsigned seed, double density = 0.7,
                            int distinct = 5) {
  data::SyntheticSpec spec;
  spec.n_instances = 400;
  spec.n_attributes = 9;
  spec.density = density;
  spec.distinct_values = distinct;  // duplicates exercise suppression
  spec.seed = seed;
  return data::generate(spec);
}

std::vector<Tree> train_forest(const GBDTParam& p, const data::Dataset& ds,
                               bool fused) {
  ScopedFusedMode mode(fused);
  Device dev(DeviceConfig::titan_x_pascal());
  auto r = GpuGbdtTrainer(dev, p).train(ds);
  return std::move(r.trees);
}

void expect_bitwise_equal_forests(const std::vector<Tree>& a,
                                  const std::vector<Tree>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a[t], b[t], 0.0)) << "tree " << t;
  }
}

TEST(FusedSplit, SparseFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(11);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  expect_bitwise_equal_forests(train_forest(p, ds, true),
                               train_forest(p, ds, false));
}

TEST(FusedSplit, DenseInterleavedFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(12, /*density=*/1.0);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  p.dense_layout = true;
  expect_bitwise_equal_forests(train_forest(p, ds, true),
                               train_forest(p, ds, false));
}

TEST(FusedSplit, RleDirectFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(13, 0.8, /*distinct=*/4);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  p.use_rle = true;
  p.force_rle = true;
  p.use_direct_rle_split = true;
  expect_bitwise_equal_forests(train_forest(p, ds, true),
                               train_forest(p, ds, false));
}

TEST(FusedSplit, RleFallbackFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(14, 0.8, /*distinct=*/4);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  p.use_rle = true;
  p.force_rle = true;
  p.use_direct_rle_split = false;
  expect_bitwise_equal_forests(train_forest(p, ds, true),
                               train_forest(p, ds, false));
}

TEST(FusedSplit, MultiGpuFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(15);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 2;
  auto shard_train = [&](bool fused) {
    ScopedFusedMode mode(fused);
    multigpu::MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(), 3, p);
    auto r = trainer.train(ds);
    return std::move(r.trees);
  };
  expect_bitwise_equal_forests(shard_train(true), shard_train(false));
}

/// Two scan lanes, like the trainers' (g, h) pairs: a carry can be zero in
/// one lane and not the other, so the fixup's `incoming == T{}` skip and
/// the signs of zeros both matter.
struct Lanes {
  double a = 0.0;
  double b = 0.0;
  Lanes& operator+=(const Lanes& o) {
    a += o.a;
    b += o.b;
    return *this;
  }
  friend Lanes operator+(Lanes x, const Lanes& y) { return x += y; }
  friend bool operator==(const Lanes&, const Lanes&) = default;
};

bool same_bits(const Lanes& x, const Lanes& y) {
  return std::memcmp(&x, &y, sizeof(Lanes)) == 0;
}

// Primitive-level agreement: the fused gather+scan+totals, read through its
// CarriedScan view, must reproduce the gather -> segmented scan -> fixup ->
// present-totals sequence bit for bit (including per-segment totals) on
// uneven segment layouts, without launching a fixup pass.
TEST(FusedSplit, FusedGatherScanTotalsMatchesUnfusedSequence) {
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const std::int64_t n = 10'000;
  // Uneven segments: an empty one, [700, 4096) spanning 14 blocks, one
  // starting exactly on a block boundary, and [4097, 9000) whose lane a is
  // all +-0.0 (its carries are zero in lane a only) ahead of [9000, n),
  // all zeros in both lanes (its carries equal T{}, so the skip applies).
  std::vector<std::int64_t> offs{0, 1, 1, 700, 4096, 4097, 9000, n};
  const auto n_seg = static_cast<std::int64_t>(offs.size()) - 1;
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  prim::set_keys(dev, d_offs, keys, 2);

  auto src = dev.alloc<Lanes>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>((i * 2654435761u) % 97) / 7.0;
    const double zero = i % 3 == 0 ? -0.0 : 0.0;
    src[static_cast<std::size_t>(i)] =
        i >= 9000   ? Lanes{zero, zero}
        : i >= 4097 ? Lanes{zero, v}
                    : Lanes{v, v / 3.0};
  }

  auto fused_out = arena.alloc<Lanes>(static_cast<std::size_t>(n));
  auto fused_tot = arena.alloc<Lanes>(static_cast<std::size_t>(n_seg));
  auto s = src.span();
  const prim::CarriedScan<Lanes> view = prim::fused_gather_scan_totals(
      dev, arena, keys, fused_out, fused_tot,
      [s](device::BlockCtx& b, std::int64_t i) {
        b.reads(s, i);
        b.mem_coalesced(sizeof(Lanes));
        return s[static_cast<std::size_t>(i)];
      },
      "test_fused_gather_scan");
  EXPECT_EQ(dev.timeline().kernels.count("fused_scan_fixup"), 0u);
  ASSERT_FALSE(view.carries.empty());

  auto plain_out = dev.alloc<Lanes>(static_cast<std::size_t>(n));
  prim::segmented_inclusive_scan_by_key(dev, src, keys, plain_out,
                                        "test_plain_scan");
  std::int64_t carried = 0;  // elements the view adds a carry to
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t seg_lo =
        offs[static_cast<std::size_t>(keys[static_cast<std::size_t>(i)])];
    const Lanes want = plain_out[static_cast<std::size_t>(i)];
    ASSERT_TRUE(same_bits(view.at(i, seg_lo), want)) << "element " << i;
    if (!same_bits(fused_out[static_cast<std::size_t>(i)], want)) ++carried;
  }
  // The carries are real: without them the leading runs read wrong.
  EXPECT_GT(carried, 0);
  // Totals of every non-empty segment equal the scan value at its end.
  for (std::int64_t g = 0; g < n_seg; ++g) {
    if (offs[static_cast<std::size_t>(g)] ==
        offs[static_cast<std::size_t>(g + 1)]) {
      continue;
    }
    ASSERT_TRUE(same_bits(fused_tot[static_cast<std::size_t>(g)],
                          plain_out[static_cast<std::size_t>(
                              offs[static_cast<std::size_t>(g + 1)] - 1)]))
        << "segment " << g;
  }
}

// Primitive-level agreement: the fused argmax applies the unfused
// lowest-index tie-break and leaves (0.0, -1, 0) on empty segments.
TEST(FusedSplit, FusedGainArgmaxTieBreakAndEmptySegments) {
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<std::int64_t> offs{0, 4, 4, 9};
  auto d_offs = dev.to_device<std::int64_t>(offs);
  // Segment 0: tie of 7.0 at elements 1 and 3 -> element 1 wins.
  // Segment 1: empty.  Segment 2: all zero gains -> first element wins.
  // The gains ride in as the scan the argmax hands each eval.
  auto gains = dev.to_device<double>(
      std::vector<double>{1.0, 7.0, 3.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const prim::CarriedScan<double> scan{gains.span(), {}};
  auto best_val = dev.alloc<double>(3);
  auto best_idx = dev.alloc<std::int64_t>(3);
  auto best_dir = dev.alloc<std::uint8_t>(3);
  prim::fused_gain_argmax(
      dev, d_offs, scan, best_val, best_idx, best_dir, 2,
      [](device::BlockCtx&, std::int64_t, std::int64_t e, std::int64_t,
         std::int64_t, double gain) {
        return prim::GainDir{gain, static_cast<std::uint8_t>(e % 2)};
      },
      "test_fused_argmax");
  EXPECT_EQ(best_val[0], 7.0);
  EXPECT_EQ(best_idx[0], 1);
  EXPECT_EQ(best_dir[0], 1);
  EXPECT_EQ(best_val[1], 0.0);
  EXPECT_EQ(best_idx[1], -1);
  EXPECT_EQ(best_dir[1], 0);
  EXPECT_EQ(best_val[2], 0.0);
  EXPECT_EQ(best_idx[2], 4);
}

// Every new fused kernel (phase 1 under its caller-supplied label, the
// carry pass, and the fused argmax with its carry-on-read scan loads) must
// run clean under the shadow-memory access auditor on every trainer path
// that launches them.
TEST(FusedSplit, FusedTrainingRunsCleanUnderAudit) {
  analysis::set_audit_enabled(true);
  ScopedFusedMode mode(true);
  const auto ds = mixed_dataset(16, 0.7, 4);

  GBDTParam p;
  p.depth = 4;
  p.n_trees = 2;
  {
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, p).train(ds));
  }
  {
    GBDTParam pd = p;
    pd.dense_layout = true;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, pd).train(data::generate([] {
      data::SyntheticSpec s;
      s.n_instances = 300;
      s.n_attributes = 6;
      s.density = 1.0;
      s.distinct_values = 5;
      s.seed = 17;
      return s;
    }())));
  }
  {
    GBDTParam pr = p;
    pr.use_rle = true;
    pr.force_rle = true;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, pr).train(ds));
  }
  analysis::set_audit_enabled(false);
}

}  // namespace
}  // namespace gbdt
