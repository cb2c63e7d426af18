// Tests for the model-facade features around the core trainer: tree
// callbacks, validation tracking, early stopping (both training methods),
// and feature importance.
#include <gtest/gtest.h>

#include <numeric>

#include "core/gbdt.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "device/device_context.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

data::Dataset make_data(unsigned seed, std::int64_t n = 800) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = 10;
  s.density = 0.8;
  s.label_noise = 0.2;
  s.seed = seed;
  return generate(s);
}

TEST(TreeCallback, SeesEveryTreeInOrder) {
  const auto ds = make_data(1);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 7;
  GpuGbdtTrainer trainer(dev, p);
  std::vector<int> seen;
  const auto r = trainer.train(ds, [&](int t, const std::vector<Tree>& f) {
    seen.push_back(t);
    EXPECT_EQ(f.size(), static_cast<std::size_t>(t) + 1);
    return true;
  });
  const std::vector<int> want{0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(r.trees.size(), 7u);
}

TEST(TreeCallback, ReturningFalseStopsBoosting) {
  const auto ds = make_data(2);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 50;
  GpuGbdtTrainer trainer(dev, p);
  const auto r = trainer.train(ds, [&](int t, const std::vector<Tree>&) {
    return t < 4;  // stop after the 5th tree
  });
  EXPECT_EQ(r.trees.size(), 5u);
  // Scores still reflect the trained forest (the last tree is folded in).
  EXPECT_EQ(r.train_scores.size(), static_cast<std::size_t>(ds.n_instances()));
}

TEST(Validation, HistoryTracksMetricPerTree) {
  const auto full = make_data(3, 1000);
  const auto [train_set, valid] = full.split_at(800);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 10;
  auto [model, report, history] =
      GBDTModel::train_with_validation(dev, train_set, valid, p);
  EXPECT_EQ(history.metric_name, "rmse");
  ASSERT_EQ(history.metric.size(), 10u);
  EXPECT_FALSE(history.stopped_early);
  EXPECT_GE(history.best_iteration, 0);
  // The metric at the best iteration is the minimum of the trace.
  const double best = *std::min_element(history.metric.begin(),
                                        history.metric.end());
  EXPECT_DOUBLE_EQ(history.metric[static_cast<std::size_t>(history.best_iteration)],
                   best);
  // Early trees improve validation rmse on this learnable problem.
  EXPECT_LT(history.metric.back(), history.metric.front());
}

TEST(Validation, MetricMatchesDirectEvaluation) {
  const auto full = make_data(4, 600);
  const auto [train_set, valid] = full.split_at(450);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 6;
  auto [model, report, history] =
      GBDTModel::train_with_validation(dev, train_set, valid, p);
  const auto pred = model.predict(valid);
  EXPECT_NEAR(history.metric.back(), rmse(pred, valid.labels()), 1e-9);
}

TEST(Validation, EarlyStoppingTruncatesToBestIteration) {
  // Tiny training set + deep trees overfit fast: validation rmse starts
  // rising and early stopping must kick in before all 200 trees.
  const auto full = make_data(5, 260);
  const auto [train_set, valid] = full.split_at(200);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 6;
  p.n_trees = 200;
  p.eta = 0.8;
  auto [model, report, history] =
      GBDTModel::train_with_validation(dev, train_set, valid, p,
                                       /*early_stopping_rounds=*/5);
  ASSERT_TRUE(history.stopped_early);
  EXPECT_LT(history.metric.size(), 200u);
  EXPECT_EQ(model.trees().size(),
            static_cast<std::size_t>(history.best_iteration) + 1);
  // The truncated model evaluates to the best tracked metric.
  const auto pred = model.predict(valid);
  EXPECT_NEAR(rmse(pred, valid.labels()),
              history.metric[static_cast<std::size_t>(history.best_iteration)],
              1e-9);
}

// The histogram method goes through the same per-tree hook: the history is
// recorded, early stopping truncates to the best iteration, and the forest is
// a prefix of a plain histogram run (the hook only stops boosting).
TEST(Validation, HistMethodEarlyStopsOnAPrefixOfThePlainRun) {
  const auto full = make_data(5, 260);
  const auto [train_set, valid] = full.split_at(200);
  GBDTParam p;
  p.depth = 6;
  p.n_trees = 200;
  p.eta = 0.8;
  p.use_hist_trainer = true;
  p.n_bins = 32;
  Device dev(DeviceConfig::titan_x_pascal());
  auto [model, report, history] =
      GBDTModel::train_with_validation(dev, train_set, valid, p,
                                       /*early_stopping_rounds=*/5);
  ASSERT_TRUE(history.stopped_early);
  EXPECT_EQ(history.metric.size(), report.trees.size());
  ASSERT_EQ(model.trees().size(),
            static_cast<std::size_t>(history.best_iteration) + 1);
  const auto pred = model.predict(valid);
  EXPECT_NEAR(rmse(pred, valid.labels()),
              history.metric[static_cast<std::size_t>(history.best_iteration)],
              1e-9);

  Device plain_dev(DeviceConfig::titan_x_pascal());
  const auto [plain, plain_report] = GBDTModel::train(plain_dev, train_set, p);
  ASSERT_GT(plain.trees().size(), report.trees.size());
  for (std::size_t t = 0; t < report.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(report.trees[t], plain.trees()[t], 0.0))
        << "tree " << t;
  }
}

TEST(Validation, LogisticUsesErrorRate) {
  SyntheticSpec s;
  s.n_instances = 800;
  s.n_attributes = 10;
  s.binary_labels = true;
  s.seed = 6;
  const auto full = generate(s);
  const auto [train_set, valid] = full.split_at(600);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 8;
  p.loss = LossKind::kLogistic;
  auto [model, report, history] =
      GBDTModel::train_with_validation(dev, train_set, valid, p);
  EXPECT_EQ(history.metric_name, "error");
  for (double m : history.metric) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

TEST(FeatureImportance, SignalAttributesDominate) {
  // The synthetic target depends on the first 8 attributes only; with 30
  // attributes, importance must concentrate on the signal block.
  SyntheticSpec s;
  s.n_instances = 1500;
  s.n_attributes = 30;
  s.density = 1.0;
  s.label_noise = 0.05;
  s.seed = 7;
  const auto ds = generate(s);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 20;
  auto [model, report] = GBDTModel::train(dev, ds, p);

  for (auto kind : {ImportanceKind::kGain, ImportanceKind::kCover,
                    ImportanceKind::kSplitCount}) {
    const auto imp = model.feature_importance(kind);
    ASSERT_EQ(imp.size(), 30u);
    const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    const double signal = std::accumulate(imp.begin(), imp.begin() + 8, 0.0);
    EXPECT_GT(signal, 0.7) << "kind " << static_cast<int>(kind);
  }
}

TEST(FeatureImportance, EmptyForestGivesZeros) {
  GBDTModel model(GBDTParam{}, {}, 0.0, 5);
  const auto imp = model.feature_importance();
  ASSERT_EQ(imp.size(), 5u);
  for (double v : imp) EXPECT_EQ(v, 0.0);
}

TEST(FeatureImportance, SurvivesSaveLoad) {
  const auto ds = make_data(8);
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 5;
  auto [model, report] = GBDTModel::train(dev, ds, p);
  model.save("/tmp/gbdt_feat_imp.txt");
  const auto loaded = GBDTModel::load("/tmp/gbdt_feat_imp.txt");
  EXPECT_EQ(loaded.n_attributes(), model.n_attributes());
  const auto a = model.feature_importance();
  const auto b = loaded.feature_importance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

}  // namespace
}  // namespace gbdt
