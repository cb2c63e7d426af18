// Property-style parameterized sweeps across the trainer configuration
// space: for every combination of depth, density, value-cardinality and
// loss, the GPU trainer must (a) match the CPU oracle exactly, (b) respect
// structural invariants (leaf counts, depth bounds, instance conservation),
// and (c) behave monotonically in the regularization knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baselines/xgb_exact.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "device/device_memory.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

struct MatrixCase {
  int depth;
  double density;
  int distinct;
  LossKind loss;
  unsigned seed;
};

void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << "depth" << c.depth << "_dens" << c.density << "_dist" << c.distinct
      << "_" << (c.loss == LossKind::kSquaredError ? "l2" : "logistic")
      << "_s" << c.seed;
}

class TrainerMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  data::Dataset make_dataset() const {
    const auto& c = GetParam();
    SyntheticSpec s;
    s.n_instances = 400;
    s.n_attributes = 10;
    s.density = c.density;
    s.distinct_values = c.distinct;
    s.binary_labels = c.loss == LossKind::kLogistic;
    s.seed = c.seed;
    return generate(s);
  }
  GBDTParam make_param() const {
    const auto& c = GetParam();
    GBDTParam p;
    p.depth = c.depth;
    p.n_trees = 3;
    p.loss = c.loss;
    p.use_rle = false;  // oracle comparison uses the sparse path
    return p;
  }
};

TEST_P(TrainerMatrix, GpuMatchesCpuOracleBitwise) {
  const auto ds = make_dataset();
  const auto param = make_param();
  Device dev(DeviceConfig::titan_x_pascal());
  const auto gpu = GpuGbdtTrainer(dev, param).train(ds);
  const auto cpu = baseline::XgbExactTrainer(param).train(ds);
  ASSERT_EQ(gpu.trees.size(), cpu.trees.size());
  for (std::size_t t = 0; t < gpu.trees.size(); ++t) {
    ASSERT_TRUE(Tree::same_structure(gpu.trees[t], cpu.trees[t], 0.0))
        << "tree " << t;
  }
  ASSERT_EQ(gpu.train_scores.size(), cpu.train_scores.size());
  for (std::size_t i = 0; i < gpu.train_scores.size(); ++i) {
    ASSERT_EQ(gpu.train_scores[i], cpu.train_scores[i]) << i;
  }
}

TEST_P(TrainerMatrix, StructuralInvariantsHold) {
  const auto ds = make_dataset();
  const auto param = make_param();
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, param).train(ds);
  for (const auto& tree : r.trees) {
    EXPECT_LE(tree.depth(), param.depth);
    EXPECT_LE(tree.n_leaves(), 1 << param.depth);
    EXPECT_EQ(tree.node(0).n_instances, ds.n_instances());
    // Instance conservation: children partition the parent exactly.
    for (std::int32_t id = 0; id < tree.n_nodes(); ++id) {
      const auto& n = tree.node(id);
      if (!n.is_leaf()) {
        EXPECT_EQ(n.n_instances,
                  tree.node(n.left).n_instances +
                      tree.node(n.right).n_instances)
            << "node " << id;
        EXPECT_NEAR(n.sum_h,
                    tree.node(n.left).sum_h + tree.node(n.right).sum_h, 1e-6);
        EXPECT_GT(n.gain, param.gamma);
        EXPECT_GE(n.attr, 0);
        EXPECT_LT(n.attr, ds.n_attributes());
      }
    }
  }
}

TEST_P(TrainerMatrix, RlePathAgreesWhenForced) {
  if (GetParam().distinct == 0) GTEST_SKIP() << "continuous data";
  const auto ds = make_dataset();
  auto p_sparse = make_param();
  auto p_rle = make_param();
  p_rle.use_rle = true;
  p_rle.force_rle = true;
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto sparse = GpuGbdtTrainer(dev1, p_sparse).train(ds);
  const auto rle = GpuGbdtTrainer(dev2, p_rle).train(ds);
  ASSERT_EQ(sparse.trees.size(), rle.trees.size());
  // Low-cardinality data can produce *exact* gain ties between different
  // attributes (two columns inducing the same partition of a small node);
  // the two paths may break such ties differently because element-domain
  // and run-domain prefix sums differ in the last ulp.  Structural equality
  // is required tree by tree, but a tied-split divergence is accepted when
  // the forests are functionally equivalent (same training fit).
  bool all_identical = true;
  for (std::size_t t = 0; t < sparse.trees.size(); ++t) {
    if (!Tree::same_structure(sparse.trees[t], rle.trees[t], 1e-7)) {
      all_identical = false;
      EXPECT_EQ(sparse.trees[t].n_leaves(), rle.trees[t].n_leaves());
    }
  }
  if (!all_identical) {
    EXPECT_NEAR(rmse(sparse.train_scores, ds.labels()),
                rmse(rle.train_scores, ds.labels()), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TrainerMatrix,
    ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      unsigned seed = 100;
      for (int depth : {1, 3, 6}) {
        for (double density : {0.3, 1.0}) {
          for (int distinct : {0, 4}) {
            for (LossKind loss :
                 {LossKind::kSquaredError, LossKind::kLogistic}) {
              cases.push_back({depth, density, distinct, loss, ++seed});
            }
          }
        }
      }
      return cases;
    }()));

// ---- regularization monotonicity -------------------------------------------

TEST(Regularization, LargerLambdaShrinksLeafWeights) {
  SyntheticSpec s;
  s.n_instances = 500;
  s.n_attributes = 8;
  s.seed = 9;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  double prev_max = std::numeric_limits<double>::infinity();
  for (double lambda : {0.0, 1.0, 10.0, 100.0}) {
    GBDTParam p;
    p.depth = 3;
    p.n_trees = 1;
    p.lambda = lambda;
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    double max_w = 0.0;
    for (const auto& n : r.trees[0].nodes()) {
      if (n.is_leaf()) max_w = std::max(max_w, std::abs(n.weight));
    }
    EXPECT_LT(max_w, prev_max) << lambda;
    prev_max = max_w;
  }
}

TEST(Regularization, LargerGammaNeverGrowsTheTree) {
  SyntheticSpec s;
  s.n_instances = 500;
  s.n_attributes = 8;
  s.seed = 10;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  int prev_leaves = 1 << 30;
  for (double gamma : {0.0, 0.5, 5.0, 500.0}) {
    GBDTParam p;
    p.depth = 5;
    p.n_trees = 1;
    p.gamma = gamma;
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_LE(r.trees[0].n_leaves(), prev_leaves) << gamma;
    prev_leaves = r.trees[0].n_leaves();
  }
}

TEST(Regularization, SmallerEtaNeedsMoreTreesForSameFit) {
  SyntheticSpec s;
  s.n_instances = 600;
  s.n_attributes = 10;
  s.seed = 11;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  auto rmse_with = [&](double eta, int trees) {
    GBDTParam p;
    p.depth = 4;
    p.n_trees = trees;
    p.eta = eta;
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    return rmse(r.train_scores, ds.labels());
  };
  // At equal tree count the larger step size fits the training data faster.
  EXPECT_LT(rmse_with(0.8, 5), rmse_with(0.1, 5));
  // More small steps close the gap.
  EXPECT_LT(rmse_with(0.1, 40), rmse_with(0.1, 5));
}

// ---- missing-value handling -------------------------------------------------

TEST(MissingValues, LearnedDefaultDirectionBeatsFixed) {
  // Instances missing attribute 0 share the label of the high-value group,
  // so the learned default direction must send them left (the high side).
  data::Dataset ds(2);
  for (int i = 0; i < 100; ++i) {
    const std::vector<data::Entry> high{{0, 10.f}, {1, static_cast<float>(i % 7)}};
    ds.add_instance(high, 1.f);
    const std::vector<data::Entry> low{{0, -10.f}, {1, static_cast<float>(i % 5)}};
    ds.add_instance(low, -1.f);
    const std::vector<data::Entry> missing{{1, static_cast<float>(i % 3)}};
    ds.add_instance(missing, 1.f);  // behaves like the high group
  }
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 1;
  p.n_trees = 1;
  p.eta = 1.0;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  const auto& root = r.trees[0].node(0);
  ASSERT_FALSE(root.is_leaf());
  EXPECT_EQ(root.attr, 0);
  EXPECT_TRUE(root.default_left);  // missing joins the +1 group
  // And the missing instances indeed predict positive.
  const std::vector<data::Entry> probe{{1, 0.f}};
  EXPECT_GT(ForestSoA::flatten(r.trees, 0.0).leaf_weight(probe, 0), 0.0);
}

TEST(MissingValues, AllMissingAttributeNeverChosen) {
  // Attribute 1 never appears; splits must come from attribute 0 only.
  data::Dataset ds(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<data::Entry> row{{0, static_cast<float>(i)}};
    ds.add_instance(row, i < 25 ? -1.f : 1.f);
  }
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 2;
  p.n_trees = 1;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  for (const auto& n : r.trees[0].nodes()) {
    if (!n.is_leaf()) {
      EXPECT_EQ(n.attr, 0);
    }
  }
}

// ---- device-memory behaviour -------------------------------------------------

TEST(DeviceMemory, TrainerOomsOnTinyDevice) {
  SyntheticSpec s;
  s.n_instances = 5000;
  s.n_attributes = 50;
  s.seed = 12;
  const auto ds = generate(s);
  auto cfg = DeviceConfig::titan_x_pascal();
  cfg.global_mem_bytes = 1 << 16;  // 64 KiB "GPU"
  Device dev(cfg);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 1;
  GpuGbdtTrainer trainer(dev, p);
  EXPECT_THROW((void)trainer.train(ds), device::DeviceOutOfMemory);
}

TEST(DeviceMemory, RleShrinksPeakFootprintOnCompressibleData) {
  SyntheticSpec s;
  s.n_instances = 20000;
  s.n_attributes = 16;
  s.density = 1.0;
  s.distinct_values = 2;  // extremely compressible
  s.seed = 13;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 2;
  p.use_rle = false;
  Device dev1(DeviceConfig::titan_x_pascal());
  const auto sparse = GpuGbdtTrainer(dev1, p).train(ds);
  p.use_rle = true;
  p.force_rle = true;
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto rle = GpuGbdtTrainer(dev2, p).train(ds);
  EXPECT_GT(rle.rle_ratio, 100.0);
  EXPECT_LT(rle.peak_device_bytes, sparse.peak_device_bytes);
}

TEST(DeviceMemory, RleReducesPcieTraffic) {
  // Paper: RLE "helps reduce the PCI-e traffic".  The compressed layout is
  // built on-device here, so the saving shows up as less data copied back
  // and forth per tree and a smaller resident set; assert the compressed
  // run count is a small fraction of the element count.
  SyntheticSpec s;
  s.n_instances = 10000;
  s.n_attributes = 8;
  s.density = 1.0;
  s.distinct_values = 3;
  s.seed = 14;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 2;
  p.n_trees = 1;
  p.force_rle = true;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  EXPECT_TRUE(r.used_rle);
  EXPECT_GT(r.rle_ratio, 1000.0);  // 8 cols x 3 values over 10k instances
}

// ---- prediction robustness ---------------------------------------------------

TEST(Prediction, UnseenAttributesActAsMissing) {
  SyntheticSpec s;
  s.n_instances = 300;
  s.n_attributes = 6;
  s.seed = 15;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 2;
  auto [model, report] = GBDTModel::train(dev, ds, p);
  // An instance with only out-of-training-range attributes routes purely by
  // default directions and must yield a finite score.
  const std::vector<data::Entry> exotic{{100, 1.f}, {200, -3.f}};
  const double score = model.predict_one(exotic);
  EXPECT_TRUE(std::isfinite(score));
  // Empty instance too.
  EXPECT_TRUE(std::isfinite(model.predict_one({})));
}

TEST(Prediction, ConstantLabelsYieldConstantModel) {
  data::Dataset ds(3);
  for (int i = 0; i < 64; ++i) {
    const std::vector<data::Entry> row{{0, static_cast<float>(i % 8)},
                                       {2, static_cast<float>(i % 3)}};
    ds.add_instance(row, 2.5f);
  }
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 20;
  p.eta = 0.5;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  for (double s : r.train_scores) EXPECT_NEAR(s, 2.5, 1e-3);
  // No split has positive gain on constant labels after the first shrink
  // steps; trees collapse to single leaves quickly.
  EXPECT_EQ(r.trees.back().n_leaves(), 1);
}

TEST(Prediction, SingleInstanceDataset) {
  data::Dataset ds(2);
  const std::vector<data::Entry> row{{0, 1.f}};
  ds.add_instance(row, 7.f);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 5;
  p.eta = 1.0;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  EXPECT_NEAR(r.train_scores[0], 7.0 * (1 - std::pow(0.5, 5)) / 0.5 * 0.5,
              3.6);  // converging toward the label
  for (const auto& t : r.trees) EXPECT_EQ(t.n_leaves(), 1);
}

}  // namespace
}  // namespace gbdt
