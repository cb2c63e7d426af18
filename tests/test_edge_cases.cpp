// Edge-case hardening across the training stack: degenerate datasets,
// constant attributes, extreme labels, deep trees on tiny data, and the
// paper's Table I worked example pushed end to end through the trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/xgb_exact.h"
#include "core/metrics.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

GBDTParam tiny_param(int depth = 3, int trees = 2) {
  GBDTParam p;
  p.depth = depth;
  p.n_trees = trees;
  return p;
}

TrainReport train(const data::Dataset& ds, const GBDTParam& p) {
  Device dev(DeviceConfig::titan_x_pascal());
  return GpuGbdtTrainer(dev, p).train(ds);
}

void expect_matches_oracle(const data::Dataset& ds, GBDTParam p) {
  p.use_rle = false;
  const auto gpu = train(ds, p);
  const auto cpu = baseline::XgbExactTrainer(p).train(ds);
  ASSERT_EQ(gpu.trees.size(), cpu.trees.size());
  for (std::size_t t = 0; t < gpu.trees.size(); ++t) {
    ASSERT_TRUE(Tree::same_structure(gpu.trees[t], cpu.trees[t], 0.0))
        << gpu.trees[t].dump() << "\nvs\n"
        << cpu.trees[t].dump();
  }
}

TEST(EdgeCases, SingleAttributeDataset) {
  data::Dataset ds(1);
  for (int i = 0; i < 200; ++i) {
    const std::vector<data::Entry> row{{0, static_cast<float>(i)}};
    ds.add_instance(row, static_cast<float>(i < 100 ? -1 : 1));
  }
  const auto r = train(ds, tiny_param());
  EXPECT_GE(r.trees[0].n_leaves(), 2);
  EXPECT_LT(rmse(r.train_scores, ds.labels()), 0.6);
  expect_matches_oracle(ds, tiny_param());
}

TEST(EdgeCases, ConstantAttributeNeverSplits) {
  // Attribute 0 is constant: it has no valid split (duplicate suppression
  // kills every interior candidate); splits must use attribute 1.
  data::Dataset ds(2);
  for (int i = 0; i < 100; ++i) {
    const std::vector<data::Entry> row{{0, 5.f}, {1, static_cast<float>(i)}};
    ds.add_instance(row, static_cast<float>(i % 2));
  }
  const auto r = train(ds, tiny_param());
  for (const auto& t : r.trees) {
    for (const auto& n : t.nodes()) {
      if (!n.is_leaf()) {
        EXPECT_EQ(n.attr, 1);
      }
    }
  }
}

TEST(EdgeCases, TwoInstances) {
  data::Dataset ds(1);
  ds.add_instance(std::vector<data::Entry>{{0, 1.f}}, 10.f);
  ds.add_instance(std::vector<data::Entry>{{0, 2.f}}, -10.f);
  GBDTParam p = tiny_param(4, 3);
  p.eta = 1.0;
  p.lambda = 0.0;  // unregularized leaves fit the residual exactly
  const auto r = train(ds, p);
  // One split separates them; residuals collapse after the first tree.
  EXPECT_EQ(r.trees[0].n_leaves(), 2);
  EXPECT_NEAR(r.train_scores[0], 10.0, 1e-5);
  EXPECT_NEAR(r.train_scores[1], -10.0, 1e-5);
  EXPECT_EQ(r.trees[2].n_leaves(), 1);
  expect_matches_oracle(ds, p);
}

TEST(EdgeCases, ExtremeLabelMagnitudes) {
  data::SyntheticSpec s;
  s.n_instances = 300;
  s.n_attributes = 6;
  s.seed = 91;
  auto ds = data::generate(s);
  for (auto& y : ds.labels()) y *= 1e6f;
  const auto r = train(ds, tiny_param(4, 10));
  for (double v : r.train_scores) ASSERT_TRUE(std::isfinite(v));
  EXPECT_LT(rmse(r.train_scores, ds.labels()), 1e6);
  expect_matches_oracle(ds, tiny_param(4, 10));
}

TEST(EdgeCases, DepthFarExceedsData) {
  data::SyntheticSpec s;
  s.n_instances = 20;
  s.n_attributes = 3;
  s.seed = 92;
  const auto ds = data::generate(s);
  GBDTParam p = tiny_param(/*depth=*/12, /*trees=*/2);
  const auto r = train(ds, p);
  for (const auto& t : r.trees) {
    EXPECT_LE(t.n_leaves(), 20);  // cannot exceed the instance count
    // Every leaf covers at least one instance.
    for (const auto& n : t.nodes()) {
      if (n.is_leaf()) {
        EXPECT_GE(n.n_instances, 1);
      }
    }
  }
  expect_matches_oracle(ds, p);
}

TEST(EdgeCases, PaperTableOneEndToEnd) {
  // The running example of paper Table I trained end to end; both paths and
  // the oracle agree and the root split is reproducible.
  data::Dataset ds(4);
  ds.add_instance(std::vector<data::Entry>{{2, 0.1f}}, 0.f);
  ds.add_instance(std::vector<data::Entry>{{0, 1.2f}, {2, 0.1f}, {3, 0.6f}},
                  1.f);
  ds.add_instance(std::vector<data::Entry>{{0, 0.5f}, {1, 1.0f}}, 0.f);
  ds.add_instance(std::vector<data::Entry>{{0, 1.2f}, {2, 2.0f}}, 1.f);
  GBDTParam p = tiny_param(2, 1);
  p.eta = 1.0;
  const auto r = train(ds, p);
  const auto& root = r.trees[0].node(0);
  ASSERT_FALSE(root.is_leaf());
  EXPECT_EQ(root.attr, 0);            // a1 >= 1.2 separates {x2,x4} from {x1,x3}
  EXPECT_FLOAT_EQ(root.split_value, 1.2f);
  expect_matches_oracle(ds, p);

  GBDTParam rle = p;
  rle.force_rle = true;
  const auto r2 = train(ds, rle);
  EXPECT_TRUE(Tree::same_structure(r.trees[0], r2.trees[0], 1e-9));
}

TEST(EdgeCases, AllInstancesIdentical) {
  data::Dataset ds(2);
  for (int i = 0; i < 50; ++i) {
    ds.add_instance(std::vector<data::Entry>{{0, 1.f}, {1, 2.f}},
                    static_cast<float>(i % 2));
  }
  // No attribute separates anything: every tree is a single leaf predicting
  // toward the mean.
  const auto r = train(ds, tiny_param(4, 5));
  for (const auto& t : r.trees) EXPECT_EQ(t.n_leaves(), 1);
  for (double v : r.train_scores) EXPECT_NEAR(v, 0.5, 0.3);
}

TEST(EdgeCases, NegativeAndPositiveValuesAroundZero) {
  // Values straddling -0/+0 and denormals must sort and split consistently.
  data::Dataset ds(1);
  const float vals[] = {-1.f, -1e-30f, -0.f, 0.f, 1e-30f, 1.f};
  for (int rep = 0; rep < 10; ++rep) {
    for (int k = 0; k < 6; ++k) {
      ds.add_instance(std::vector<data::Entry>{{0, vals[k]}},
                      k < 3 ? -1.f : 1.f);
    }
  }
  GBDTParam p = tiny_param(1, 1);
  p.eta = 1.0;
  const auto r = train(ds, p);
  const auto& root = r.trees[0].node(0);
  ASSERT_FALSE(root.is_leaf());
  // -0.f == 0.f in float comparison, so the only clean boundary that
  // separates the labels lies at +1e-30 (the smallest strictly-positive
  // value on the high side).
  EXPECT_FLOAT_EQ(root.split_value, 1e-30f);
  expect_matches_oracle(ds, p);
}

TEST(EdgeCases, ManyEmptyAttributes) {
  // 100 attributes, only 2 ever present: empty columns produce empty
  // segments everywhere and must never be chosen.
  data::Dataset ds(100);
  for (int i = 0; i < 200; ++i) {
    ds.add_instance(std::vector<data::Entry>{{17, static_cast<float>(i)},
                                             {83, static_cast<float>(i % 5)}},
                    static_cast<float>(i < 100 ? 0 : 1));
  }
  const auto r = train(ds, tiny_param(3, 2));
  for (const auto& t : r.trees) {
    for (const auto& n : t.nodes()) {
      if (!n.is_leaf()) {
        EXPECT_TRUE(n.attr == 17 || n.attr == 83);
      }
    }
  }
  expect_matches_oracle(ds, tiny_param(3, 2));
}

TEST(EdgeCases, GammaEqualsBestGainPrunes) {
  // gain > gamma is strict: setting gamma to exactly the root's best gain
  // must leave the root unsplit.
  data::Dataset ds(1);
  for (int i = 0; i < 40; ++i) {
    ds.add_instance(std::vector<data::Entry>{{0, static_cast<float>(i)}},
                    static_cast<float>(i < 20 ? -1 : 1));
  }
  GBDTParam p = tiny_param(3, 1);
  const auto r = train(ds, p);
  ASSERT_FALSE(r.trees[0].node(0).is_leaf());
  const double best_gain = r.trees[0].node(0).gain;

  GBDTParam pruned = p;
  pruned.gamma = best_gain;
  const auto r2 = train(ds, pruned);
  EXPECT_TRUE(r2.trees[0].node(0).is_leaf());
}

// Every trainer class runs the same parameter check at construction.
// Regressions: MultiGpuTrainer used to accept n_trees = 0 and then read the
// last tree of an empty forest, and OutOfCoreTrainer accepted a negative
// gamma or lambda.
void expect_every_trainer_rejects(const GBDTParam& p) {
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam hist = p;
  hist.use_hist_trainer = true;
  EXPECT_THROW((void)GpuGbdtTrainer(dev, p), std::invalid_argument);
  EXPECT_THROW((void)GpuGbdtTrainer(dev, hist), std::invalid_argument);
  EXPECT_THROW((void)OutOfCoreTrainer(dev, p), std::invalid_argument);
  EXPECT_THROW(
      (void)multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2, p),
      std::invalid_argument);
  EXPECT_THROW(
      (void)multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2, hist),
      std::invalid_argument);
}

TEST(EdgeCases, EveryTrainerRejectsZeroDepth) {
  GBDTParam p = tiny_param();
  p.depth = 0;
  expect_every_trainer_rejects(p);
}

TEST(EdgeCases, EveryTrainerRejectsZeroTrees) {
  GBDTParam p = tiny_param();
  p.n_trees = 0;
  expect_every_trainer_rejects(p);
}

TEST(EdgeCases, EveryTrainerRejectsNegativeGamma) {
  GBDTParam p = tiny_param();
  p.gamma = -0.5;
  expect_every_trainer_rejects(p);
}

TEST(EdgeCases, EveryTrainerRejectsNegativeLambda) {
  GBDTParam p = tiny_param();
  p.lambda = -1.0;
  expect_every_trainer_rejects(p);
}

TEST(EdgeCases, HistTrainersRejectBinCountOutOfRange) {
  Device dev(DeviceConfig::titan_x_pascal());
  for (const int bins : {0, 4097}) {
    GBDTParam p = tiny_param();
    p.n_bins = bins;
    p.use_hist_trainer = true;
    EXPECT_THROW((void)GpuGbdtTrainer(dev, p), std::invalid_argument);
    EXPECT_THROW(
        (void)multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2, p),
        std::invalid_argument);
  }
}

}  // namespace
}  // namespace gbdt
