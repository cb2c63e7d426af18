// Unit tests for the tree structure, losses, metrics, and model facade
// (save/load round trips, prediction semantics, missing-value routing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/gbdt.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/predictor.h"
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
  const RowPredictor t({stump()}, 0.0);
  const std::vector<data::Entry> hi{{0, 1.5f}};
  const std::vector<data::Entry> eq{{0, 1.0f}};  // boundary: >= goes left
  const std::vector<data::Entry> lo{{0, 0.5f}};
  EXPECT_EQ(t.score(hi), 1.0);
  EXPECT_EQ(t.score(eq), 1.0);
  EXPECT_EQ(t.score(lo), -1.0);
}

TEST(Tree, MissingFollowsDefaultDirection) {
  const RowPredictor t({stump()}, 0.0);  // default right
  const std::vector<data::Entry> row{{7, 3.f}};  // attribute 0 missing
  EXPECT_EQ(t.score(row), -1.0);
  EXPECT_EQ(t.score({}), -1.0);

  Tree t2;
  const auto [l2, r2] = t2.split(0, 0, 1.0f, /*default_left=*/true, 1.0);
  t2.node(l2).weight = 1.0;
  t2.node(r2).weight = -1.0;
  EXPECT_EQ(RowPredictor({t2}, 0.0).score(row), 1.0);
}

TEST(Tree, LeafForReturnsLeafIds) {
  const std::vector<Tree> forest{stump()};
  const auto soa = ForestSoA::flatten(forest, 0.0);
  const std::vector<data::Entry> hi{{0, 2.f}};
  const auto leaf = static_cast<std::int32_t>(soa.leaf(hi, 0));
  EXPECT_TRUE(forest[0].node(leaf).is_leaf());
  EXPECT_EQ(forest[0].node(leaf).weight, 1.0);
}

/// Rows at the edges of the routing rule score the same on the host walk
/// (GBDTModel::predict, RowPredictor) and the device walk (predict_device):
/// empty rows, rows of attributes the training set never had, rows holding
/// a split threshold exactly, and rows missing every split attribute.
TEST(Tree, EdgeRowsScoreIdenticallyOnEveryWalk) {
  data::SyntheticSpec spec;
  spec.n_instances = 400;
  spec.n_attributes = 8;
  spec.density = 0.5;
  spec.seed = 11;
  const auto train = data::generate(spec);
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 6;
  p.base_score = 0.25;
  const auto [model, report] = GBDTModel::train(dev, train, p);

  std::set<std::int32_t> split_attrs;
  bool any_default_left = false;
  const auto n_attr = static_cast<std::int32_t>(spec.n_attributes);
  data::Dataset edge(n_attr + 4);
  const std::vector<data::Entry> empty;
  edge.add_instance(empty, 0.f);
  const std::vector<data::Entry> unseen{{n_attr + 1, 5.f}, {n_attr + 3, -5.f}};
  edge.add_instance(unseen, 0.f);
  for (const auto& tree : model.trees()) {
    for (const auto& nd : tree.nodes()) {
      if (nd.is_leaf()) continue;
      split_attrs.insert(nd.attr);
      any_default_left = any_default_left || nd.default_left;
      const std::vector<data::Entry> at{data::Entry{nd.attr, nd.split_value}};
      edge.add_instance(at, 0.f);
    }
  }
  // The missing-value rows must exercise both default directions.
  ASSERT_TRUE(any_default_left);
  std::vector<data::Entry> no_split_attr;
  for (std::int32_t a = 0; a < n_attr + 4; ++a) {
    if (split_attrs.count(a) == 0) no_split_attr.push_back({a, 1.f});
  }
  edge.add_instance(no_split_attr, 0.f);

  const auto host = model.predict(edge);
  const auto device = model.predict_device(dev, edge);
  const RowPredictor rows(model.trees(), model.base_score());
  ASSERT_EQ(host.size(), static_cast<std::size_t>(edge.n_instances()));
  ASSERT_EQ(device.size(), host.size());
  for (std::int64_t i = 0; i < edge.n_instances(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(host[u], rows.score(edge.instance(i))) << i;
    EXPECT_EQ(host[u], device[u]) << i;
    EXPECT_EQ(host[u], model.predict_one(edge.instance(i))) << i;
  }
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
