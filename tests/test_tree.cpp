// Unit tests for the tree structure, losses, metrics, and model facade
// (save/load round trips, prediction semantics, missing-value routing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gbdt.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/tree.h"
#include "data/synthetic.h"
#include "device/device_context.h"

namespace gbdt {
namespace {

/// x[0] >= 1.0 -> left leaf (+1), else right leaf (-1); missing goes right.
Tree stump() {
  Tree t;
  const auto [l, r] = t.split(0, /*attr=*/0, /*split_value=*/1.0f,
                              /*default_left=*/false, /*gain=*/5.0);
  t.node(l).weight = 1.0;
  t.node(r).weight = -1.0;
  return t;
}

TEST(Tree, SplitCreatesChildren) {
  Tree t;
  EXPECT_EQ(t.n_nodes(), 1);
  EXPECT_TRUE(t.node(0).is_leaf());
  const auto [l, r] = t.split(0, 3, 0.5f, true, 2.0);
  EXPECT_EQ(t.n_nodes(), 3);
  EXPECT_FALSE(t.node(0).is_leaf());
  EXPECT_EQ(t.node(0).left, l);
  EXPECT_EQ(t.node(0).right, r);
  EXPECT_EQ(t.node(0).attr, 3);
  EXPECT_TRUE(t.node(0).default_left);
  EXPECT_EQ(t.depth(), 1);
  EXPECT_EQ(t.n_leaves(), 2);
}

TEST(Tree, PredictRoutesBySplitValue) {
  const Tree t = stump();
  const std::int32_t attrs[] = {0};
  const float hi[] = {1.5f};
  const float eq[] = {1.0f};  // boundary: >= goes left
  const float lo[] = {0.5f};
  EXPECT_EQ(t.predict(attrs, hi, 1), 1.0);
  EXPECT_EQ(t.predict(attrs, eq, 1), 1.0);
  EXPECT_EQ(t.predict(attrs, lo, 1), -1.0);
}

TEST(Tree, MissingFollowsDefaultDirection) {
  const Tree t = stump();  // default right
  const std::int32_t attrs[] = {7};  // attribute 0 missing
  const float vals[] = {3.f};
  EXPECT_EQ(t.predict(attrs, vals, 1), -1.0);
  EXPECT_EQ(t.predict(nullptr, nullptr, 0), -1.0);

  Tree t2;
  const auto [l2, r2] = t2.split(0, 0, 1.0f, /*default_left=*/true, 1.0);
  t2.node(l2).weight = 1.0;
  t2.node(r2).weight = -1.0;
  EXPECT_EQ(t2.predict(attrs, vals, 1), 1.0);
}

TEST(Tree, LeafForReturnsLeafIds) {
  Tree t = stump();
  const std::int32_t attrs[] = {0};
  const float hi[] = {2.f};
  const auto leaf = t.leaf_for(attrs, hi, 1);
  EXPECT_TRUE(t.node(leaf).is_leaf());
  EXPECT_EQ(t.node(leaf).weight, 1.0);
}

TEST(Tree, DumpMentionsEveryNode) {
  Tree t = stump();
  const std::string d = t.dump();
  EXPECT_NE(d.find("f0"), std::string::npos);
  EXPECT_NE(d.find("leaf="), std::string::npos);
  EXPECT_NE(d.find("gain="), std::string::npos);
}

TEST(Tree, SerializeRoundTrips) {
  Tree t;
  const auto [l, r] = t.split(0, 2, 0.75f, true, 3.5);
  const auto [ll, lr] = t.split(l, 5, -1.25f, false, 1.5);
  t.node(ll).weight = 0.125;
  t.node(lr).weight = -0.5;
  t.node(r).weight = 2.0;
  t.node(0).n_instances = 100;

  std::stringstream buf;
  t.serialize(buf);
  const Tree back = Tree::deserialize(buf);
  EXPECT_TRUE(Tree::same_structure(t, back, 0.0));
  EXPECT_EQ(back.node(0).n_instances, 100);
  EXPECT_EQ(back.depth(), 2);
}

TEST(Tree, DeserializeRejectsGarbage) {
  std::stringstream bad("not a tree");
  EXPECT_THROW((void)Tree::deserialize(bad), std::runtime_error);
  std::stringstream truncated("3\n1 2 0 0.5 0 0 1 10 0 0\n");
  EXPECT_THROW((void)Tree::deserialize(truncated), std::runtime_error);

  // Child indices that would read out of bounds or loop: each root below is
  // followed by two valid leaves, so only the root's fields are at fault.
  const std::string leaves =
      "-1 -1 -1 0 0 1 0 5 0 0\n-1 -1 -1 0 0 -1 0 5 0 0\n";
  for (const char* root : {"0 1 0 0.5 0 0 1 10 0 0",    // self loop
                           "5 6 0 0.5 0 0 1 10 0 0",    // past the end
                           "2 3 0 0.5 0 0 1 10 0 0",    // right == count
                           "1 1 0 0.5 0 0 1 10 0 0",    // right != left + 1
                           "1 -1 0 0.5 0 0 1 10 0 0",   // one child missing
                           "-1 2 0 0.5 0 0 1 10 0 0",   // one child missing
                           "1 2 -1 0.5 0 0 1 10 0 0",   // internal, no attr
                           "-5 -4 0 0.5 0 0 1 10 0 0"}) {
    std::stringstream in("3\n" + std::string(root) + "\n" + leaves);
    EXPECT_THROW((void)Tree::deserialize(in), std::runtime_error) << root;
  }
  // A child pointing back at an earlier node.
  std::stringstream backward(
      "5\n1 2 0 0.5 0 0 1 10 0 0\n0 1 0 0.5 0 0 1 5 0 0\n" + leaves +
      "-1 -1 -1 0 0 0 0 0 0 0\n");
  EXPECT_THROW((void)Tree::deserialize(backward), std::runtime_error);
  // A huge node count is not preallocated: the short payload is reported
  // as truncated.
  std::stringstream huge("1000000000000000\n-1 -1 -1 0 0 0 0 1 0 0\n");
  EXPECT_THROW((void)Tree::deserialize(huge), std::runtime_error);
  // The well-formed stump still loads.
  std::stringstream good("3\n1 2 0 0.5 0 0 1 10 0 0\n" + leaves);
  EXPECT_EQ(Tree::deserialize(good).n_nodes(), 3);

  // Model headers: an out-of-range loss kind, a negative attribute count,
  // and a tree count far beyond the payload.
  const std::string path = "/tmp/gbdt_bad_header_model.txt";
  for (const char* header : {"0 7 4 1", "0 -1 4 1", "0 0 -4 1",
                             "0 0 4 1000000000000000"}) {
    {
      std::ofstream out(path);
      out << "gpu-gbdt-model v2\n" << header << "\n1\n"
          << "-1 -1 -1 0 0 0.5 0 1 0 0\n";
    }
    EXPECT_THROW((void)GBDTModel::load(path), std::runtime_error) << header;
  }
  std::remove(path.c_str());
}

TEST(Tree, SameStructureDetectsDifferences) {
  Tree a = stump();
  Tree b = stump();
  EXPECT_TRUE(Tree::same_structure(a, b));
  b.node(1).weight += 1e-3;
  EXPECT_FALSE(Tree::same_structure(a, b, 1e-9));
  EXPECT_TRUE(Tree::same_structure(a, b, 1e-2));
  Tree c;
  EXPECT_FALSE(Tree::same_structure(a, c));
}

TEST(Loss, SquaredErrorDerivatives) {
  SquaredErrorLoss l;
  const auto gp = l.gradient(/*y=*/3.f, /*yhat=*/5.f);
  EXPECT_DOUBLE_EQ(gp.g, 2.0);
  EXPECT_DOUBLE_EQ(gp.h, 1.0);
  EXPECT_DOUBLE_EQ(l.transform(4.2), 4.2);
}

TEST(Loss, LogisticDerivatives) {
  LogisticLoss l;
  const auto gp = l.gradient(/*y=*/1.f, /*yhat=*/0.f);
  EXPECT_NEAR(gp.g, -0.5, 1e-12);  // sigmoid(0) - 1
  EXPECT_NEAR(gp.h, 0.25, 1e-12);
  EXPECT_NEAR(l.transform(0.0), 0.5, 1e-12);
  EXPECT_GT(l.transform(10.0), 0.99);
  // Hessian stays positive even at saturated predictions.
  EXPECT_GT(l.gradient(0.f, 100.f).h, 0.0);
}

TEST(Loss, FactoryAndGainFormula) {
  EXPECT_STREQ(make_loss(LossKind::kSquaredError)->name(), "squared_error");
  EXPECT_STREQ(make_loss(LossKind::kLogistic)->name(), "logistic");
  // Perfectly balanced split of zero-sum gradients has no gain.
  EXPECT_DOUBLE_EQ(split_gain(0, 5, 0, 5, 1.0), 0.0);
  // Separating opposite gradients has positive gain.
  EXPECT_GT(split_gain(-10, 5, 10, 5, 1.0), 0.0);
  // Leaf weight formula.
  EXPECT_DOUBLE_EQ(leaf_weight(-6, 2, 1.0), 2.0);
}

TEST(Metrics, RmseAndErrorRate) {
  const std::vector<double> pred{1.0, 0.0, 1.0, 0.25};
  const std::vector<float> label{1.f, 0.f, 0.f, 0.f};
  EXPECT_NEAR(rmse(pred, label), std::sqrt((1.0 + 0.0625) / 4.0), 1e-12);
  EXPECT_DOUBLE_EQ(error_rate(pred, label), 0.25);
  EXPECT_DOUBLE_EQ(rmse({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(error_rate({}, {}), 0.0);
}

TEST(Model, SaveLoadPreservesPredictions) {
  data::SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 8;
  spec.density = 0.7;
  spec.seed = 5;
  const auto ds = data::generate(spec);
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 4;
  auto [model, report] = GBDTModel::train(dev, ds, p);

  const std::string path = "/tmp/gbdt_model_test.txt";
  model.save(path);
  const auto loaded = GBDTModel::load(path);
  const auto a = model.predict(ds);
  const auto b = loaded.predict(ds);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Model, LoadRejectsWrongMagic) {
  const std::string path = "/tmp/gbdt_not_a_model.txt";
  {
    std::ofstream out(path);
    out << "something else\n";
  }
  EXPECT_THROW((void)GBDTModel::load(path), std::runtime_error);
  EXPECT_THROW((void)GBDTModel::load("/tmp/gbdt_missing_file.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace gbdt
