// Determinism under replay: the same seed must yield bit-identical results
// on every trainer entry point — cross-validation folds, one-vs-rest
// multiclass models (down to the serialized bytes), and feature-parallel
// multi-GPU forests.  This is what makes `gbdt_fuzz --seed` repro commands
// exact: no entry point may consult hidden global RNG state.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "core/cv.h"
#include "core/multiclass.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Determinism, CrossValidationReplaysBitIdentical) {
  SyntheticSpec s;
  s.n_instances = 400;
  s.n_attributes = 8;
  s.seed = 11;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 4;
  for (unsigned fold_seed : {3u, 19u}) {
    Device dev_a(DeviceConfig::titan_x_pascal());
    Device dev_b(DeviceConfig::titan_x_pascal());
    const auto a = cross_validate(dev_a, ds, p, 4, fold_seed);
    const auto b = cross_validate(dev_b, ds, p, 4, fold_seed);
    EXPECT_EQ(a.fold_metric, b.fold_metric);  // exact double equality
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
  }
}

TEST(Determinism, MulticlassReplaysToIdenticalSavedBytes) {
  // Three separable clusters, generated twice from the same seed.
  auto make_ds = [](unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<float> noise(0.f, 0.3f);
    const float cx[3] = {-2.f, 0.f, 2.f};
    data::Dataset ds(3);
    for (std::int64_t i = 0; i < 300; ++i) {
      const int k = static_cast<int>(i % 3);
      const std::vector<data::Entry> row{
          {0, cx[k] + noise(rng)}, {1, noise(rng)}, {2, noise(rng)}};
      ds.add_instance(row, static_cast<float>(k));
    }
    return ds;
  };
  const auto ds1 = make_ds(29);
  const auto ds2 = make_ds(29);

  GBDTParam p;
  p.depth = 3;
  p.n_trees = 4;
  Device dev_a(DeviceConfig::titan_x_pascal());
  Device dev_b(DeviceConfig::titan_x_pascal());
  auto [model_a, modeled_a] = MulticlassModel::train(dev_a, ds1, 3, p);
  auto [model_b, modeled_b] = MulticlassModel::train(dev_b, ds2, 3, p);

  EXPECT_EQ(model_a.error_rate(ds1), model_b.error_rate(ds1));
  const auto proba_a = model_a.predict_proba(ds1);
  const auto proba_b = model_b.predict_proba(ds1);
  ASSERT_EQ(proba_a.size(), proba_b.size());
  for (std::size_t i = 0; i < proba_a.size(); ++i) {
    EXPECT_EQ(proba_a[i], proba_b[i]) << "probabilities differ at row " << i;
  }

  // The serialized models must be byte-identical.
  const std::string prefix_a = ::testing::TempDir() + "det_mc_a";
  const std::string prefix_b = ::testing::TempDir() + "det_mc_b";
  model_a.save(prefix_a);
  model_b.save(prefix_b);
  for (int k = 0; k < 3; ++k) {
    const std::string fa = slurp(prefix_a + ".class" + std::to_string(k));
    const std::string fb = slurp(prefix_b + ".class" + std::to_string(k));
    ASSERT_FALSE(fa.empty());
    EXPECT_EQ(fa, fb) << "saved class-" << k << " model differs";
  }
}

TEST(Determinism, MultiGpuReplaysBitIdentical) {
  SyntheticSpec s;
  s.n_instances = 500;
  s.n_attributes = 9;
  s.distinct_values = 6;
  s.seed = 31;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;

  multigpu::MultiGpuTrainer t_a(DeviceConfig::titan_x_pascal(), 3, p);
  multigpu::MultiGpuTrainer t_b(DeviceConfig::titan_x_pascal(), 3, p);
  const auto a = t_a.train(ds);
  const auto b = t_b.train(ds);

  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a.trees[t], b.trees[t], 0.0))
        << "tree " << t << " differs between identical multi-GPU runs";
  }
  EXPECT_EQ(a.train_scores, b.train_scores);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);
}

TEST(Determinism, SyntheticGenerationIsAFunctionOfItsSeed) {
  SyntheticSpec s;
  s.n_instances = 200;
  s.n_attributes = 6;
  s.density = 0.7;
  s.distinct_values = 5;
  s.seed = 77;
  const auto a = generate(s);
  const auto b = generate(s);
  ASSERT_EQ(a.n_instances(), b.n_instances());
  EXPECT_EQ(a.labels(), b.labels());
  ASSERT_EQ(a.n_entries(), b.n_entries());
  for (std::int64_t i = 0; i < a.n_entries(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(a.entries()[u].attr, b.entries()[u].attr);
    EXPECT_EQ(a.entries()[u].value, b.entries()[u].value);
  }
  // A different seed must actually change the data.
  s.seed = 78;
  const auto c = generate(s);
  EXPECT_NE(a.labels(), c.labels());
}

}  // namespace
}  // namespace gbdt
