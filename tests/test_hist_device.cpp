// Tests for the device-side histogram trainer (core/trainer_hist) and its
// kernel layer (primitives/histogram.h): the histogram-subtraction trick is
// bitwise-identical to direct accumulation, the device bin-index matrix
// round-trips through BinCuts::bin_of, empty-node and single-bin edge cases,
// determinism across replayed runs, the subtraction self-check catches an
// injected fault, and an audit-armed end-to-end training run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/access_audit.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "core/trainer_hist.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "obs/metrics.h"
#include "primitives/histogram.h"
#include "testing/invariants.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;
using hist::QGH;

data::Dataset make_data(unsigned seed, std::int64_t n = 1200,
                        std::int64_t d = 8, double density = 0.7) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = d;
  s.density = density;
  s.label_noise = 0.1;
  s.seed = seed;
  return generate(s);
}

GBDTParam hist_param(int bins = 32, int depth = 4, int trees = 4) {
  GBDTParam p;
  p.use_hist_trainer = true;
  p.n_bins = bins;
  p.depth = depth;
  p.n_trees = trees;
  return p;
}

/// Deterministic pseudo-random fixed-point gradients, independent of the
/// trainer so the kernel-layer tests control their own inputs.
std::vector<std::int64_t> fake_quantized(std::int64_t n, std::int64_t salt) {
  std::vector<std::int64_t> q(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto m = static_cast<std::uint64_t>(i + salt) * 2654435761u;
    q[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(m % 2001) - 1000;
  }
  return q;
}

// ---- kernel layer ----------------------------------------------------------

TEST(HistDevice, SubtractionBitwiseMatchesDirectAccumulation) {
  const auto ds = make_data(41, 900, 6);
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 16);
  const std::int64_t cps = binned.n_attr * binned.n_bins;

  const auto qg_h = fake_quantized(ds.n_instances(), 1);
  const auto qh_h = fake_quantized(ds.n_instances(), 7);
  auto qg = dev.to_device<std::int64_t>(qg_h);
  auto qh = dev.to_device<std::int64_t>(qh_h);

  // Instances split across two sibling nodes 3 and 4 of parent 1.
  std::vector<std::int32_t> node_of_h(
      static_cast<std::size_t>(ds.n_instances()));
  for (std::size_t i = 0; i < node_of_h.size(); ++i) {
    node_of_h[i] = (i % 3 == 0) ? 3 : 4;
  }
  auto node_of = dev.to_device<std::int32_t>(node_of_h);

  // Parent histogram: both children accumulate into slot 0.
  auto parent = arena.alloc<QGH>(static_cast<std::size_t>(cps));
  {
    std::vector<std::int32_t> accum_of_node = {-1, -1, -1, 0, 0};
    std::vector<std::int32_t> dest = {0};
    auto a = dev.to_device<std::int32_t>(accum_of_node);
    auto d = dev.to_device<std::int32_t>(dest);
    hist::build_histograms(dev, arena, binned.row_offsets.span(),
                           binned.entry_attr.span(), binned.entry_bin.span(),
                           qg.span(), qh.span(), node_of.span(), a.span(),
                           d.span(), binned.n_attr, binned.n_bins,
                           parent.span());
  }
  // Current level: sibling (node 3) accumulated into slot 0; node 4 skipped.
  auto cur = arena.alloc<QGH>(static_cast<std::size_t>(2 * cps));
  {
    std::vector<std::int32_t> accum_of_node = {-1, -1, -1, 0, -1};
    std::vector<std::int32_t> dest = {0};
    auto a = dev.to_device<std::int32_t>(accum_of_node);
    auto d = dev.to_device<std::int32_t>(dest);
    hist::build_histograms(dev, arena, binned.row_offsets.span(),
                           binned.entry_attr.span(), binned.entry_bin.span(),
                           qg.span(), qh.span(), node_of.span(), a.span(),
                           d.span(), binned.n_attr, binned.n_bins, cur.span());
  }
  // Derived child (node 4) at slot 1 via parent - sibling.
  {
    std::vector<std::int32_t> ps = {0}, ss = {0}, der = {1};
    auto p = dev.to_device<std::int32_t>(ps);
    auto s = dev.to_device<std::int32_t>(ss);
    auto de = dev.to_device<std::int32_t>(der);
    hist::subtract_histograms(dev, parent.span(), cur.span(), p.span(),
                              s.span(), de.span(), cps);
  }
  // Direct accumulation of node 4, for the bitwise comparison.
  auto direct = arena.alloc<QGH>(static_cast<std::size_t>(cps));
  {
    std::vector<std::int32_t> accum_of_node = {-1, -1, -1, -1, 0};
    std::vector<std::int32_t> dest = {0};
    auto a = dev.to_device<std::int32_t>(accum_of_node);
    auto d = dev.to_device<std::int32_t>(dest);
    hist::build_histograms(dev, arena, binned.row_offsets.span(),
                           binned.entry_attr.span(), binned.entry_bin.span(),
                           qg.span(), qh.span(), node_of.span(), a.span(),
                           d.span(), binned.n_attr, binned.n_bins,
                           direct.span());
  }
  std::int64_t occupied = 0;
  for (std::int64_t c = 0; c < cps; ++c) {
    const QGH& want = direct[static_cast<std::size_t>(c)];
    const QGH& got = cur[static_cast<std::size_t>(cps + c)];
    ASSERT_EQ(want.g, got.g) << "cell " << c;
    ASSERT_EQ(want.h, got.h) << "cell " << c;
    ASSERT_EQ(want.cnt, got.cnt) << "cell " << c;
    occupied += want.cnt > 0;
  }
  EXPECT_GT(occupied, 0);  // the comparison exercised real cells
}

TEST(HistDevice, BinIndexMatrixRoundTripsThroughBinOf) {
  const auto ds = make_data(42, 700, 5, 0.6);
  Device dev(DeviceConfig::titan_x_pascal());
  const auto binned = build_binned_matrix(dev, ds, 12);
  ASSERT_EQ(binned.n_inst, ds.n_instances());
  ASSERT_EQ(binned.n_attr, ds.n_attributes());
  ASSERT_EQ(static_cast<std::int64_t>(binned.cuts.size()), ds.n_attributes());

  const auto attr = dev.to_host(binned.entry_attr);
  const auto bin = dev.to_host(binned.entry_bin);
  const auto& entries = ds.entries();
  ASSERT_EQ(attr.size(), entries.size());
  ASSERT_EQ(bin.size(), entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    ASSERT_EQ(attr[k], entries[k].attr) << "entry " << k;
    const auto& cuts = binned.cuts[static_cast<std::size_t>(entries[k].attr)];
    ASSERT_EQ(static_cast<int>(bin[k]), cuts.bin_of(entries[k].value))
        << "entry " << k;
    ASSERT_LT(static_cast<int>(bin[k]), binned.n_bins);
  }
}

TEST(HistDevice, EmptyNodeYieldsZeroHistogramAndOnlyDestRowsAreWritten) {
  const auto ds = make_data(43, 300, 4);
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 8);
  const std::int64_t cps = binned.n_attr * binned.n_bins;

  auto qg = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 3));
  auto qh = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 9));
  // Every instance sits in node 1; node 2 is empty.
  std::vector<std::int32_t> node_of_h(
      static_cast<std::size_t>(ds.n_instances()), 1);
  auto node_of = dev.to_device<std::int32_t>(node_of_h);

  auto out = arena.alloc<QGH>(static_cast<std::size_t>(3 * cps));
  const QGH sentinel{7, 7, 7};
  prim::fill(dev, out, sentinel);
  // Node 1 -> slot 0, empty node 2 -> slot 2; slot 1 is not a destination.
  std::vector<std::int32_t> accum_of_node = {-1, 0, 1};
  std::vector<std::int32_t> dest = {0, 2};
  auto a = dev.to_device<std::int32_t>(accum_of_node);
  auto d = dev.to_device<std::int32_t>(dest);
  hist::build_histograms(dev, arena, binned.row_offsets.span(),
                         binned.entry_attr.span(), binned.entry_bin.span(),
                         qg.span(), qh.span(), node_of.span(), a.span(),
                         d.span(), binned.n_attr, binned.n_bins, out.span());

  std::int64_t populated_count = 0;
  for (std::int64_t c = 0; c < cps; ++c) {
    populated_count += out[static_cast<std::size_t>(c)].cnt;  // slot 0
    const QGH& skipped = out[static_cast<std::size_t>(cps + c)];
    EXPECT_TRUE(skipped == sentinel) << "non-dest cell " << c;
    const QGH& empty = out[static_cast<std::size_t>(2 * cps + c)];
    EXPECT_TRUE(empty == QGH{}) << "empty-node cell " << c;
  }
  // Each present entry lands exactly once in slot 0.
  EXPECT_GT(populated_count, 0);
}

TEST(HistDevice, SubtractionSelfCheckCatchesInjectedFault) {
  const auto ds = make_data(44, 400, 5);
  auto p = hist_param(16, 3, 1);
  Device dev(DeviceConfig::titan_x_pascal());
  testing::set_invariants_enabled(true);
  testing::fault_injection() = {};
  testing::fault_injection().break_hist_subtraction = true;
  EXPECT_THROW((void)GpuGbdtTrainer(dev, p).train(ds),
               testing::InvariantViolation);
  testing::fault_injection() = {};
  testing::set_invariants_enabled(false);
}

// ---- trainer ---------------------------------------------------------------

TEST(HistDevice, SingleBinTrainingCompletes) {
  const auto ds = make_data(45, 500, 6, 0.5);
  auto p = hist_param(1, 3, 3);
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  ASSERT_EQ(r.trees.size(), 3u);
  for (const auto& t : r.trees) {
    EXPECT_LE(t.depth(), 3);
    for (const auto& n : t.nodes()) {
      if (!n.is_leaf()) {
        EXPECT_GT(n.n_instances, 0);
      }
    }
  }
}

TEST(HistDevice, DeterministicAcrossReplayedRuns) {
  const auto ds = make_data(46);
  const auto p = hist_param();
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto a = GpuGbdtTrainer(dev1, p).train(ds);
  const auto b = GpuGbdtTrainer(dev2, p).train(ds);
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a.trees[t], b.trees[t], 0.0)) << t;
  }
  EXPECT_EQ(a.train_scores, b.train_scores);
}

TEST(HistDevice, QualityTracksExactTrainer) {
  const auto ds = make_data(47, 2000, 12);
  auto p = hist_param(64, 4, 8);
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  p.use_hist_trainer = false;
  const auto exact = GpuGbdtTrainer(dev1, p).train(ds);
  p.use_hist_trainer = true;
  const auto h = GpuGbdtTrainer(dev2, p).train(ds);
  ASSERT_EQ(h.trees.size(), exact.trees.size());
  const double exact_rmse = rmse(exact.train_scores, ds.labels());
  const double hist_rmse = rmse(h.train_scores, ds.labels());
  EXPECT_LT(hist_rmse, exact_rmse * 1.35 + 0.05);
}

TEST(HistDevice, SubtractionCounterAdvancesWithDepth) {
  const auto ds = make_data(48, 800, 8);
  auto p = hist_param(16, 4, 2);
  auto& counter =
      obs::Registry::global().counter("gbdt_hist_subtractions_total");
  const auto before = counter.value();
  Device dev(DeviceConfig::titan_x_pascal());
  (void)GpuGbdtTrainer(dev, p).train(ds);
  EXPECT_GT(counter.value(), before);
}

TEST(HistDevice, AuditArmedTrainingRunsClean) {
  const auto ds = make_data(49, 600, 6);
  const auto p = hist_param(16, 3, 2);
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
  analysis::set_audit_enabled(true);
  try {
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_EQ(r.trees.size(), 2u);
  } catch (...) {
    analysis::set_audit_enabled(false);
    throw;
  }
  analysis::set_audit_enabled(false);
}

}  // namespace
}  // namespace gbdt
