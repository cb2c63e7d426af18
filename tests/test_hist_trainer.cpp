// Tests for the histogram-based (approximate) device trainer: learning
// quality relative to the exact trainer, bin-grid split semantics,
// feasibility limits, determinism.
#include <gtest/gtest.h>

#include <set>

#include "core/metrics.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "primitives/histogram.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

data::Dataset make_data(unsigned seed, std::int64_t n = 2000,
                        std::int64_t d = 16) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = d;
  s.density = 0.8;
  s.label_noise = 0.1;
  s.seed = seed;
  return generate(s);
}

GBDTParam small_param() {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 8;
  return p;
}

/// One run of the histogram method on `dev`.
TrainReport train_hist(Device& dev, GBDTParam p, const data::Dataset& ds) {
  p.use_hist_trainer = true;
  return GpuGbdtTrainer(dev, p).train(ds);
}

TEST(HistTrainer, LearnsCloseToExact) {
  const auto ds = make_data(21);
  auto p = small_param();
  Device dev1(DeviceConfig::titan_x_pascal());
  const auto exact = GpuGbdtTrainer(dev1, p).train(ds);
  p.n_bins = 64;
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto hist = train_hist(dev2, p, ds);

  const double exact_rmse = rmse(exact.train_scores, ds.labels());
  const double hist_rmse = rmse(hist.train_scores, ds.labels());
  // Approximate splits cannot beat exact enumeration by much, and with 64
  // quantile bins they should be close.
  EXPECT_GT(hist_rmse, exact_rmse - 1e-9);
  EXPECT_LT(hist_rmse, exact_rmse * 1.35 + 0.05);
}

TEST(HistTrainer, MoreBinsApproachExactQuality) {
  const auto ds = make_data(22);
  auto p = small_param();
  double prev = 1e9;
  for (int bins : {4, 16, 256}) {
    p.n_bins = bins;
    Device dev(DeviceConfig::titan_x_pascal());
    const auto r = train_hist(dev, p, ds);
    const double e = rmse(r.train_scores, ds.labels());
    EXPECT_LT(e, prev * 1.02) << bins;  // near-monotone improvement
    prev = e;
  }
}

TEST(HistTrainer, SplitValuesLieOnTheBinGrid) {
  // With very few bins, every split threshold must be one of <= 8 distinct
  // cut values per attribute.
  const auto ds = make_data(23, 1500, 6);
  GBDTParam p = small_param();
  p.n_trees = 4;
  p.n_bins = 8;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = train_hist(dev, p, ds);
  std::map<std::int32_t, std::set<float>> per_attr;
  for (const auto& t : r.trees) {
    for (const auto& n : t.nodes()) {
      if (!n.is_leaf()) per_attr[n.attr].insert(n.split_value);
    }
  }
  for (const auto& [attr, values] : per_attr) {
    EXPECT_LE(values.size(), 8u) << "attr " << attr;
  }
}

TEST(HistTrainer, FasterThanExactPerModeledSecond) {
  // The histogram method skips sorted lists and partitioning; on dense
  // medium-dimensional data its modeled time per tree is lower.
  SyntheticSpec s;
  s.n_instances = 20000;
  s.n_attributes = 24;
  s.density = 1.0;
  s.seed = 24;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 6;
  p.n_trees = 5;
  Device dev1(DeviceConfig::titan_x_pascal());
  const auto exact = GpuGbdtTrainer(dev1, p).train(ds);
  p.n_bins = 64;
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto hist = train_hist(dev2, p, ds);
  EXPECT_LT(hist.modeled_seconds, exact.modeled_seconds);
}

TEST(HistTrainer, RejectsInfeasibleHighDimensionalHistograms) {
  SyntheticSpec s;
  s.n_instances = 200;
  s.n_attributes = 50000;
  s.density = 0.001;
  s.seed = 25;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 12;  // 2^11 nodes x 50k attrs x 256 bins blows the device
  p.n_trees = 1;
  p.n_bins = 256;
  p.use_hist_trainer = true;
  Device dev(DeviceConfig::titan_x_pascal());
  GpuGbdtTrainer trainer(dev, p);
  EXPECT_THROW((void)trainer.train(ds), std::invalid_argument);
}

TEST(HistTrainer, RejectsBadConfig) {
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.use_hist_trainer = true;
  for (int bins : {0, -3, 1 << 20}) {
    p.n_bins = bins;
    EXPECT_THROW(GpuGbdtTrainer(dev, p), std::invalid_argument) << bins;
  }
  p.n_bins = 1;
  GpuGbdtTrainer one_bin_ok(dev, p);  // legal: miss-direction splits only
  p.n_bins = 64;
  GpuGbdtTrainer ok(dev, p);
  data::Dataset empty(3);
  EXPECT_THROW((void)ok.train(empty), std::invalid_argument);
}

// ---- build_cuts degenerate shapes (the trainer's quantile cuts) -----------

TEST(HistTrainer, BuildCutsAllEqualColumnIsSingleCleanBin) {
  const auto cuts = hist::build_cuts({3.5f, 3.5f, 3.5f, 3.5f}, 16);
  ASSERT_EQ(cuts.bin_low.size(), 1u);
  EXPECT_EQ(cuts.bin_low[0], 3.5f);
  EXPECT_EQ(cuts.bin_of(3.5f), 0);
}

TEST(HistTrainer, BuildCutsDominantRunStillYieldsABoundary) {
  // One value dominates: the greedy chunking used to swallow the whole
  // column into a single bin whose boundary never splits.  Any column with
  // two distinct values must produce at least two bins.
  const auto cuts = hist::build_cuts({9.f, 1.f, 1.f, 1.f, 1.f, 1.f}, 2);
  ASSERT_EQ(cuts.bin_low.size(), 2u);
  EXPECT_EQ(cuts.bin_of(9.f), 0);
  EXPECT_EQ(cuts.bin_of(1.f), 1);
}

TEST(HistTrainer, BuildCutsFewDistinctValuesGetOneBinEach) {
  const auto cuts = hist::build_cuts({5.f, 1.f, 1.f, 1.f, 1.f}, 2);
  ASSERT_EQ(cuts.bin_low.size(), 2u);
  EXPECT_EQ(cuts.bin_low[0], 5.f);
  EXPECT_EQ(cuts.bin_low[1], 1.f);
  // n_bins = 1 collapses everything into one bucket.
  const auto one = hist::build_cuts({5.f, 1.f, 2.f}, 1);
  EXPECT_EQ(one.bin_low.size(), 1u);
}

TEST(HistTrainer, SingleBinTrainingStillLearnsFromMissingness) {
  // n_bins = 1: present-vs-present splits are impossible, but on sparse data
  // the present-vs-missing boundary still carries signal, and training must
  // run to completion without degenerate splits.
  SyntheticSpec s;
  s.n_instances = 600;
  s.n_attributes = 8;
  s.density = 0.5;
  s.seed = 28;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 3;
  p.n_bins = 1;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = train_hist(dev, p, ds);
  ASSERT_EQ(r.trees.size(), 3u);
  for (const auto& t : r.trees) {
    for (const auto& n : t.nodes()) {
      if (n.is_leaf()) continue;
      EXPECT_GT(n.n_instances, 0);
    }
  }
}

TEST(HistTrainer, AllEqualColumnsNeverSplit) {
  // Every attribute is constant: no split has positive gain, so each tree is
  // a single root leaf (an all-equal column must not fabricate boundaries).
  data::Dataset ds(2);
  for (int i = 0; i < 50; ++i) {
    const data::Entry row[] = {{0, 7.0f}, {1, -2.0f}};
    ds.add_instance(row, static_cast<float>(i % 2));
  }
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 2;
  p.n_bins = 8;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = train_hist(dev, p, ds);
  for (const auto& t : r.trees) {
    EXPECT_EQ(t.n_leaves(), 1);
  }
}

TEST(HistTrainer, DeterministicAcrossRuns) {
  const auto ds = make_data(26, 800, 8);
  auto p = small_param();
  p.n_bins = 32;
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto a = train_hist(dev1, p, ds);
  const auto b = train_hist(dev2, p, ds);
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a.trees[t], b.trees[t], 0.0)) << t;
  }
  EXPECT_EQ(a.train_scores, b.train_scores);
}

TEST(HistTrainer, DepthAndLeafBoundsHold) {
  const auto ds = make_data(27);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 5;
  p.n_bins = 32;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = train_hist(dev, p, ds);
  for (const auto& t : r.trees) {
    EXPECT_LE(t.depth(), 3);
    EXPECT_LE(t.n_leaves(), 8);
    EXPECT_EQ(t.node(0).n_instances, ds.n_instances());
  }
}

}  // namespace
}  // namespace gbdt
