// Parameterized sweep of the two RLE node-split strategies: Directly-Split
// (splitting the run representation in place, paper Section III-C) must be
// indistinguishable from the decompress -> partition -> recompress fallback
// — identical trees, identical training scores, and identical compression
// accounting (used_rle / rle_ratio), across value cardinalities, densities,
// losses and depths.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

struct RleSweepCase {
  std::string tag;
  int distinct_values;
  double density;
  bool zipf;
  LossKind loss;
  int depth;
  int n_trees;
};

// Names each case by its tag: gtest_discover_tests turns the printed value
// into the test id, as for test_properties.cpp's cases.
void PrintTo(const RleSweepCase& c, std::ostream* os) { *os << c.tag; }

class RlePathSweep : public ::testing::TestWithParam<RleSweepCase> {};

TEST_P(RlePathSweep, DirectSplitMatchesDecompressRepartition) {
  const RleSweepCase& c = GetParam();

  SyntheticSpec spec;
  spec.n_instances = 500;
  spec.n_attributes = 10;
  spec.density = c.density;
  spec.distinct_values = c.distinct_values;
  spec.zipf_values = c.zipf;
  spec.binary_labels = c.loss == LossKind::kLogistic;
  spec.seed = 97;
  const auto ds = generate(spec);

  GBDTParam p;
  p.depth = c.depth;
  p.n_trees = c.n_trees;
  p.loss = c.loss;
  p.use_rle = true;
  p.force_rle = true;  // bypass the paper gate: we compare the strategies

  p.use_direct_rle_split = true;
  Device dev_direct(DeviceConfig::titan_x_pascal());
  const auto direct = GpuGbdtTrainer(dev_direct, p).train(ds);

  p.use_direct_rle_split = false;
  Device dev_fallback(DeviceConfig::titan_x_pascal());
  const auto fallback = GpuGbdtTrainer(dev_fallback, p).train(ds);

  // Same compression accounting on both strategies.
  EXPECT_TRUE(direct.used_rle);
  EXPECT_TRUE(fallback.used_rle);
  EXPECT_EQ(direct.rle_ratio, fallback.rle_ratio);

  // Identical forests, bit for bit.
  ASSERT_EQ(direct.trees.size(), fallback.trees.size());
  for (std::size_t t = 0; t < direct.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(direct.trees[t], fallback.trees[t], 0.0))
        << "tree " << t << " differs:\n"
        << direct.trees[t].dump() << "\nvs\n"
        << fallback.trees[t].dump();
  }

  // Identical training scores, bit for bit.
  ASSERT_EQ(direct.train_scores.size(), fallback.train_scores.size());
  for (std::size_t i = 0; i < direct.train_scores.size(); ++i) {
    ASSERT_EQ(direct.train_scores[i], fallback.train_scores[i])
        << "score " << i << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RlePathSweep,
    ::testing::Values(
        RleSweepCase{"lowcard_dense_zipf_l2_d4", 4, 1.0, true,
                     LossKind::kSquaredError, 4, 3},
        RleSweepCase{"lowcard_dense_uniform_l2_d4", 4, 1.0, false,
                     LossKind::kSquaredError, 4, 3},
        RleSweepCase{"midcard_dense_zipf_logistic_d3", 8, 1.0, true,
                     LossKind::kLogistic, 3, 3},
        RleSweepCase{"lowcard_sparse_zipf_l2_d4", 4, 0.5, true,
                     LossKind::kSquaredError, 4, 3},
        RleSweepCase{"midcard_sparse_uniform_logistic_d5", 8, 0.4, false,
                     LossKind::kLogistic, 5, 2},
        RleSweepCase{"binaryvals_dense_zipf_l2_d6", 2, 1.0, true,
                     LossKind::kSquaredError, 6, 2},
        RleSweepCase{"continuous_dense_l2_d3", 0, 1.0, true,
                     LossKind::kSquaredError, 3, 2},
        RleSweepCase{"continuous_sparse_logistic_d4", 0, 0.6, true,
                     LossKind::kLogistic, 4, 2}));

}  // namespace
}  // namespace gbdt
