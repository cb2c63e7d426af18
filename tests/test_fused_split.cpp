// Fused find-split primitives (src/primitives/fused_split.h): they must
// agree element for element with the separate-kernel sequence they replace
// (gather -> segmented scan with its fixup pass -> present totals, and
// per-element gains -> segmented argmax), charge less modeled device time
// than that sequence on the same inputs, and run clean under the access
// auditor on every trainer path that launches them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "analysis/access_audit.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "primitives/fused_split.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

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

// Primitive-level agreement: the fused argmax applies segmented_arg_max's
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

// Fusion must pay: on one 2^16-element layout (1000-element segments, a
// random instance gather, two-lane pairs like the trainers' (g, h)), each
// fused primitive charges less modeled device time than the separate-kernel
// sequence it replaces, and returns the same values bit for bit.  The
// reference gather and present-totals kernels charge what the trainers'
// separate kernels charged; the reference gains kernel drops their value
// reads, which this test's gain does not make.
TEST(FusedSplit, FusedPrimitivesChargeLessThanUnfusedSequence) {
  using device::BlockCtx;
  using prim::kBlockDim;
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const std::int64_t n = 1 << 16;
  std::vector<std::int64_t> offs{0};
  while (offs.back() < n) {
    offs.push_back(std::min<std::int64_t>(n, offs.back() + 1000));
  }
  const auto n_seg = static_cast<std::int64_t>(offs.size()) - 1;
  const std::int64_t spb = prim::segs_per_block(n_seg, n, 28);
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  prim::set_keys(dev, d_offs, keys, spb);
  auto inst = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  auto src = dev.alloc<Lanes>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    inst[u] = static_cast<std::int32_t>((i * 2654435761u) % n);
    src[u] = Lanes{static_cast<double>(i % 13) - 6.0,
                   1.0 + static_cast<double>(i % 5)};
  }
  auto ix = inst.span();
  auto sv = src.span();
  auto ko = keys.span();
  auto off = d_offs.span();

  // Gather + segmented scan + per-segment totals.
  auto fused_out = arena.alloc<Lanes>(static_cast<std::size_t>(n));
  auto fused_tot = arena.alloc<Lanes>(static_cast<std::size_t>(n_seg));
  double t0 = dev.elapsed_seconds();
  const prim::CarriedScan<Lanes> view = prim::fused_gather_scan_totals(
      dev, arena, keys, fused_out, fused_tot,
      [ix, sv](BlockCtx& b, std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        b.reads(ix, i);
        b.reads(sv, ix[u]);
        b.mem_coalesced(sizeof(std::int32_t));
        b.mem_irregular(1);
        return sv[static_cast<std::size_t>(ix[u])];
      },
      "test_fused_gather_scan");
  const double fused_scan_s = dev.elapsed_seconds() - t0;

  auto ghe = dev.alloc<Lanes>(static_cast<std::size_t>(n));
  auto plain_out = dev.alloc<Lanes>(static_cast<std::size_t>(n));
  auto plain_tot = dev.alloc<Lanes>(static_cast<std::size_t>(n_seg));
  auto ge = ghe.span();
  auto po = plain_out.span();
  auto pt = plain_tot.span();
  t0 = dev.elapsed_seconds();
  dev.launch("test_gather", device::grid_for(n, kBlockDim), kBlockDim,
             [&](BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i >= n) return;
                 const auto u = static_cast<std::size_t>(i);
                 ge[u] = sv[static_cast<std::size_t>(ix[u])];
                 b.reads(sv, ix[u]);
               });
               b.reads_tile(ix, n);
               b.writes_tile(ge, n);
               const auto m = prim::elems_in_block(b, n);
               b.mem_coalesced(m * 20);
               b.mem_irregular(m);
             });
  prim::segmented_inclusive_scan_by_key(dev, ghe, keys, plain_out,
                                        "test_seg_scan");
  dev.launch("test_seg_totals", device::grid_for(n_seg, kBlockDim), kBlockDim,
             [&](BlockCtx& b) {
               b.for_each_thread([&](std::int64_t s) {
                 if (s >= n_seg) return;
                 const auto u = static_cast<std::size_t>(s);
                 pt[u] = po[static_cast<std::size_t>(off[u + 1] - 1)];
                 b.reads(po, off[u + 1] - 1);
               });
               b.reads_tile(off, n_seg + 1);
               b.writes_tile(pt, n_seg);
               const auto m = prim::elems_in_block(b, n_seg);
               b.mem_coalesced(m * 32);
               b.mem_irregular(m);
             });
  const double plain_scan_s = dev.elapsed_seconds() - t0;
  EXPECT_LT(fused_scan_s, plain_scan_s);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const std::int64_t seg_lo = offs[static_cast<std::size_t>(ko[u])];
    ASSERT_TRUE(same_bits(view.at(i, seg_lo), plain_out[u])) << "element " << i;
  }
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto u = static_cast<std::size_t>(s);
    ASSERT_TRUE(same_bits(fused_tot[u], plain_tot[u])) << "segment " << s;
  }

  // Gains + per-segment argmax, read from the carried scan.
  const auto gain_of = [](const Lanes& prefix, const Lanes& total) {
    const Lanes right{total.a - prefix.a, total.b - prefix.b};
    return prefix.a * prefix.a / prefix.b +
           right.a * right.a / (right.b + 1.0);
  };
  auto fused_val = dev.alloc<double>(static_cast<std::size_t>(n_seg));
  auto fused_idx = dev.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  auto fused_dir = dev.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  auto ft = fused_tot.span();
  t0 = dev.elapsed_seconds();
  prim::fused_gain_argmax(
      dev, d_offs, view, fused_val, fused_idx, fused_dir, spb,
      [ft, gain_of](BlockCtx& b, std::int64_t s, std::int64_t e,
                    std::int64_t lo, std::int64_t, const Lanes& prefix) {
        if (e == lo) {
          b.reads(ft, s);
          b.mem_irregular(1);  // segment-invariant table, loaded once
        }
        b.flop(16);
        const double g = gain_of(prefix, ft[static_cast<std::size_t>(s)]);
        return prim::GainDir{g, static_cast<std::uint8_t>(prefix.a < 0.0)};
      },
      "test_fused_gain_argmax");
  const double fused_gain_s = dev.elapsed_seconds() - t0;

  auto gains = dev.alloc<double>(static_cast<std::size_t>(n));
  auto dirs = dev.alloc<std::uint8_t>(static_cast<std::size_t>(n));
  auto plain_val = dev.alloc<double>(static_cast<std::size_t>(n_seg));
  auto plain_idx = dev.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  auto gn = gains.span();
  auto dr = dirs.span();
  t0 = dev.elapsed_seconds();
  dev.launch("test_compute_gains", device::grid_for(n, kBlockDim), kBlockDim,
             [&](BlockCtx& b) {
               b.for_each_thread([&](std::int64_t e) {
                 if (e >= n) return;
                 const auto u = static_cast<std::size_t>(e);
                 const auto seg = static_cast<std::size_t>(ko[u]);
                 gn[u] = gain_of(po[u], pt[seg]);
                 dr[u] = po[u].a < 0.0 ? 1 : 0;
                 b.reads(pt, ko[u]);
               });
               b.reads_tile(ko, n);
               b.reads_tile(po, n);
               b.writes_tile(gn, n);
               b.writes_tile(dr, n);
               const auto m = prim::elems_in_block(b, n);
               b.mem_coalesced(m * 29);  // key, prefix pair, gain, dir
               b.mem_irregular(m / 2);   // segment-table lookups
               b.flop(m * 16);
             });
  prim::segmented_arg_max(dev, gains, d_offs, plain_val, plain_idx, spb,
                          "test_seg_argmax");
  const double plain_gain_s = dev.elapsed_seconds() - t0;
  EXPECT_LT(fused_gain_s, plain_gain_s);
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto u = static_cast<std::size_t>(s);
    ASSERT_EQ(fused_val[u], plain_val[u]) << "segment " << s;
    ASSERT_EQ(fused_idx[u], plain_idx[u]) << "segment " << s;
    ASSERT_EQ(fused_dir[u], dirs[static_cast<std::size_t>(plain_idx[u])])
        << "segment " << s;
  }
}

// Every new fused kernel (phase 1 under its caller-supplied label, the
// carry pass, and the fused argmax with its carry-on-read scan loads) must
// run clean under the shadow-memory access auditor on every trainer path
// that launches them.
TEST(FusedSplit, FusedTrainingRunsCleanUnderAudit) {
  analysis::set_audit_enabled(true);
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
