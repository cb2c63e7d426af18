// Integration tests of the GPU-GBDT trainer against the CPU exact-greedy
// oracle and across its own configuration space (RLE on/off, direct vs
// decompress splits, SmartGD vs naive gradients) — the paper's correctness
// claims: identical trees, identical RMSE.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/xgb_exact.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "obs/trace.h"

namespace gbdt {
namespace {

using baseline::XgbExactTrainer;
using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

SyntheticSpec small_spec(unsigned seed = 7) {
  SyntheticSpec s;
  s.n_instances = 600;
  s.n_attributes = 12;
  s.density = 0.6;
  s.distinct_values = 0;  // continuous
  s.seed = seed;
  return s;
}

GBDTParam small_param() {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 5;
  p.eta = 0.5;
  return p;
}

/// Modeled seconds per phase of one training run, read from its span tree
/// (the direct children of the `train` span, keyed by span name).
struct TracedRun {
  TrainReport report;
  std::vector<std::pair<std::string, double>> phases;

  [[nodiscard]] double phase(const char* name) const {
    for (const auto& [n, secs] : phases) {
      if (n == name) return secs;
    }
    return 0.0;
  }
};

TracedRun train_traced(const data::Dataset& ds, const GBDTParam& p) {
  obs::ObsSession session;
  session.activate();
  Device dev(DeviceConfig::titan_x_pascal());
  TracedRun run{GpuGbdtTrainer(dev, p).train(ds), {}};
  session.deactivate();
  const obs::Span* train = session.root().child("train");
  if (train != nullptr) {
    for (const auto& c : train->children()) {
      run.phases.emplace_back(c->name(), c->modeled_total_seconds());
    }
  }
  return run;
}

void expect_same_forest(const std::vector<Tree>& a, const std::vector<Tree>& b,
                        double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a[t], b[t], tol))
        << "tree " << t << " differs:\n"
        << a[t].dump() << "\nvs\n"
        << b[t].dump();
  }
}

TEST(Trainer, BuildsRequestedNumberOfTrees) {
  const auto ds = generate(small_spec());
  Device dev(DeviceConfig::titan_x_pascal());
  GpuGbdtTrainer trainer(dev, small_param());
  const auto report = trainer.train(ds);
  EXPECT_EQ(report.trees.size(), 5u);
  for (const auto& t : report.trees) {
    EXPECT_LE(t.depth(), 4);
    EXPECT_GE(t.n_leaves(), 2);
  }
  EXPECT_GT(report.modeled_seconds, 0.0);
  EXPECT_GT(report.peak_device_bytes, 0u);
}

TEST(Trainer, MatchesCpuOracleExactly) {
  // The paper's core correctness claim: GPU-GBDT and CPU XGBoost construct
  // identical trees.
  for (unsigned seed : {1u, 2u, 3u}) {
    auto spec = small_spec(seed);
    const auto ds = generate(spec);
    auto param = small_param();
    param.use_rle = false;

    Device dev(DeviceConfig::titan_x_pascal());
    const auto gpu = GpuGbdtTrainer(dev, param).train(ds);
    const auto cpu = XgbExactTrainer(param).train(ds);
    expect_same_forest(gpu.trees, cpu.trees, 0.0);  // bitwise identical

    const double gpu_rmse = rmse(gpu.train_scores, ds.labels());
    const double cpu_rmse = rmse(cpu.train_scores, ds.labels());
    EXPECT_DOUBLE_EQ(gpu_rmse, cpu_rmse) << "seed " << seed;
  }
}

TEST(Trainer, RlePathMatchesSparsePath) {
  // RLE compression is lossless for split finding: forcing it on must give
  // the same forest (categorical data so compression actually bites).
  auto spec = small_spec(11);
  spec.distinct_values = 5;
  const auto ds = generate(spec);

  auto p_sparse = small_param();
  p_sparse.use_rle = false;
  auto p_rle = small_param();
  p_rle.force_rle = true;

  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto sparse = GpuGbdtTrainer(dev1, p_sparse).train(ds);
  const auto rle = GpuGbdtTrainer(dev2, p_rle).train(ds);
  EXPECT_TRUE(rle.used_rle);
  EXPECT_GT(rle.rle_ratio, 2.0);
  expect_same_forest(sparse.trees, rle.trees, 1e-7);
}

TEST(Trainer, DirectRleSplitMatchesDecompressSplit) {
  auto spec = small_spec(13);
  spec.distinct_values = 4;
  const auto ds = generate(spec);

  auto p_direct = small_param();
  p_direct.force_rle = true;
  p_direct.use_direct_rle_split = true;
  auto p_decomp = p_direct;
  p_decomp.use_direct_rle_split = false;

  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto direct = GpuGbdtTrainer(dev1, p_direct).train(ds);
  const auto decomp = GpuGbdtTrainer(dev2, p_decomp).train(ds);
  expect_same_forest(direct.trees, decomp.trees, 0.0);
}

TEST(Trainer, DirectRleSplitIsCheaperAtScale) {
  // Paper Figure 9: the decompress-partition-recompress variant costs more
  // than Directly-Split-RLE.  The effect needs enough elements per run that
  // per-element (de)compression work beats the direct path's extra kernel
  // launches, so this runs on a larger, highly compressible dataset.
  SyntheticSpec spec;
  spec.n_instances = 20000;
  spec.n_attributes = 20;
  spec.density = 1.0;
  spec.distinct_values = 3;
  spec.seed = 99;
  const auto ds = generate(spec);

  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  p.force_rle = true;
  const auto direct = train_traced(ds, p);
  p.use_direct_rle_split = false;
  const auto decomp = train_traced(ds, p);
  expect_same_forest(direct.report.trees, decomp.report.trees, 0.0);
  EXPECT_LT(direct.phase("split_node"), decomp.phase("split_node"));
}

TEST(Trainer, SmartGdMatchesNaiveTraversal) {
  const auto ds = generate(small_spec(17));
  auto p_smart = small_param();
  p_smart.use_smart_gd = true;
  auto p_naive = p_smart;
  p_naive.use_smart_gd = false;

  const auto smart_run = train_traced(ds, p_smart);
  const auto naive_run = train_traced(ds, p_naive);
  const auto& smart = smart_run.report;
  const auto& naive = naive_run.report;
  expect_same_forest(smart.trees, naive.trees, 0.0);
  ASSERT_EQ(smart.train_scores.size(), naive.train_scores.size());
  for (std::size_t i = 0; i < smart.train_scores.size(); ++i) {
    ASSERT_DOUBLE_EQ(smart.train_scores[i], naive.train_scores[i]) << i;
  }
  // Paper Figure 9: SmartGD is one of the two biggest wins.
  EXPECT_LT(smart_run.phase("gradient_compute"),
            naive_run.phase("gradient_compute"));
}

TEST(Trainer, TrainingReducesRmse) {
  const auto ds = generate(small_spec(19));
  Device dev(DeviceConfig::titan_x_pascal());
  auto p1 = small_param();
  p1.n_trees = 1;
  auto p20 = small_param();
  p20.n_trees = 20;
  const auto r1 = GpuGbdtTrainer(dev, p1).train(ds);
  const auto r20 = GpuGbdtTrainer(dev, p20).train(ds);
  const double rmse1 = rmse(r1.train_scores, ds.labels());
  const double rmse20 = rmse(r20.train_scores, ds.labels());
  EXPECT_LT(rmse20, rmse1);
  EXPECT_LT(rmse20, 0.5);
}

TEST(Trainer, TrainScoresEqualModelPredictions) {
  const auto ds = generate(small_spec(23));
  Device dev(DeviceConfig::titan_x_pascal());
  auto [model, report] = GBDTModel::train(dev, ds, small_param());
  const auto host_pred = model.predict(ds);
  ASSERT_EQ(host_pred.size(), report.train_scores.size());
  for (std::size_t i = 0; i < host_pred.size(); ++i) {
    ASSERT_NEAR(host_pred[i], report.train_scores[i], 1e-6) << i;
  }
}

TEST(Trainer, DevicePredictionMatchesHost) {
  const auto ds = generate(small_spec(29));
  Device dev(DeviceConfig::titan_x_pascal());
  auto [model, report] = GBDTModel::train(dev, ds, small_param());
  const auto host = model.predict(ds);
  const auto device = model.predict_device(dev, ds);
  ASSERT_EQ(host.size(), device.size());
  for (std::size_t i = 0; i < host.size(); ++i) {
    ASSERT_NEAR(host[i], device[i], 1e-9) << i;
  }
}

TEST(Trainer, GammaPrunesSplits) {
  const auto ds = generate(small_spec(31));
  Device dev(DeviceConfig::titan_x_pascal());
  auto p_free = small_param();
  p_free.gamma = 0.0;
  auto p_strict = small_param();
  p_strict.gamma = 1e7;  // nothing should clear this bar
  const auto free_r = GpuGbdtTrainer(dev, p_free).train(ds);
  const auto strict_r = GpuGbdtTrainer(dev, p_strict).train(ds);
  EXPECT_GT(free_r.trees[0].n_leaves(), 1);
  for (const auto& t : strict_r.trees) {
    EXPECT_EQ(t.n_leaves(), 1);  // root stays a leaf
  }
}

TEST(Trainer, DepthOneGivesStumps) {
  const auto ds = generate(small_spec(37));
  Device dev(DeviceConfig::titan_x_pascal());
  auto p = small_param();
  p.depth = 1;
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  for (const auto& t : r.trees) {
    EXPECT_LE(t.n_leaves(), 2);
    EXPECT_LE(t.depth(), 1);
  }
}

TEST(Trainer, DeterministicAcrossRuns) {
  const auto ds = generate(small_spec(41));
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto a = GpuGbdtTrainer(dev1, small_param()).train(ds);
  const auto b = GpuGbdtTrainer(dev2, small_param()).train(ds);
  expect_same_forest(a.trees, b.trees, 0.0);
  EXPECT_EQ(a.train_scores, b.train_scores);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);
}

TEST(Trainer, RejectsBadParams) {
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 0;
  EXPECT_THROW(GpuGbdtTrainer(dev, p), std::invalid_argument);
  p = GBDTParam{};
  p.n_trees = 0;
  EXPECT_THROW(GpuGbdtTrainer(dev, p), std::invalid_argument);
  p = GBDTParam{};
  p.gamma = -1;
  EXPECT_THROW(GpuGbdtTrainer(dev, p), std::invalid_argument);
}

TEST(Trainer, RejectsEmptyDataset) {
  Device dev(DeviceConfig::titan_x_pascal());
  data::Dataset empty(5);
  GpuGbdtTrainer trainer(dev, small_param());
  EXPECT_THROW((void)trainer.train(empty), std::invalid_argument);
}

TEST(Trainer, RleGateFollowsPaperFormula) {
  // dim/card above R -> compressed; below -> not.
  SyntheticSpec wide = small_spec(43);
  wide.n_instances = 100;
  wide.n_attributes = 2000;  // ratio 20 > R = 10
  wide.density = 0.05;
  wide.distinct_values = 4;
  const auto ds_wide = generate(wide);
  Device dev(DeviceConfig::titan_x_pascal());
  auto p = small_param();
  p.n_trees = 1;
  const auto r_wide = GpuGbdtTrainer(dev, p).train(ds_wide);
  EXPECT_TRUE(r_wide.used_rle);

  const auto ds_tall = generate(small_spec(47));  // ratio 12/600 << 10
  const auto r_tall = GpuGbdtTrainer(dev, p).train(ds_tall);
  EXPECT_FALSE(r_tall.used_rle);
}

TEST(Trainer, LogisticLossLearnsBinaryLabels) {
  auto spec = small_spec(53);
  spec.binary_labels = true;
  const auto ds = generate(spec);
  Device dev(DeviceConfig::titan_x_pascal());
  auto p = small_param();
  p.loss = LossKind::kLogistic;
  p.n_trees = 20;
  auto [model, report] = GBDTModel::train(dev, ds, p);
  const auto prob = model.transform_scores(report.train_scores);
  EXPECT_LT(error_rate(prob, ds.labels()), 0.25);
  for (double v : prob) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

TEST(Trainer, FindSplitSpanOutweighsGradientsAndTransfer) {
  // Paper Section IV-A reports finding the best split at ~95% of GPU-GBDT
  // time.  In our cost model the fused find-split and the order-preserving
  // partition split the time far more evenly (the deviation is recorded in
  // EXPERIMENTS.md), but find_split must still be a major phase: above the
  // gradient and data-transfer phases and above 35% of the modeled total.
  auto spec = small_spec(59);
  spec.n_instances = 8000;
  const auto ds = generate(spec);
  auto p = small_param();
  p.depth = 6;
  p.n_trees = 10;
  const auto r = train_traced(ds, p);
  const double find_split = r.phase("find_split");
  const double split_node = r.phase("split_node") + r.phase("reset_layout");
  const double gradients = r.phase("gradient_compute");
  const double transfer = r.phase("csc_build");
  EXPECT_GT(find_split, gradients);
  EXPECT_GT(find_split, transfer);
  EXPECT_GT(find_split / r.report.modeled_seconds, 0.35);
  EXPECT_GT(split_node, 0.0);
  EXPECT_GT(gradients, 0.0);
  EXPECT_GT(transfer, 0.0);
}

// Wide sparse data: 300 rows x 400,000 attributes at about 10 non-zeros per
// row.  A depth-6 tree reaches 32 slots, where a slots x attributes layout
// needs 12.8 M segments and 102 MB for each int64 offset array alone; the
// compact segment table holds one entry per non-empty (slot, attribute)
// pair.  Both the raw and the RLE path must train in 64 MiB of device
// memory, build the CPU oracle's forest bit for bit, and launch split steps
// whose block counts follow the data, not the attribute count.
TEST(Trainer, WideSparseDataTrainsOnCompactSegments) {
  SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 400'000;
  spec.density = 10.0 / 400'000;
  spec.seed = 5;
  for (const bool rle : {false, true}) {
    SCOPED_TRACE(rle ? "rle" : "raw");
    spec.distinct_values = rle ? 4 : 0;
    const auto ds = generate(spec);
    GBDTParam p;
    p.depth = 6;
    p.n_trees = 2;
    p.use_rle = rle;
    p.force_rle = rle;

    DeviceConfig cfg = DeviceConfig::titan_x_pascal();
    cfg.global_mem_bytes = std::size_t{64} << 20;
    obs::ObsSession session;
    session.activate();
    Device dev(cfg);
    TrainReport gpu;
    ASSERT_NO_THROW(gpu = GpuGbdtTrainer(dev, p).train(ds));
    session.deactivate();
    EXPECT_EQ(gpu.used_rle, rle);
    expect_same_forest(gpu.trees, XgbExactTrainer(p).train(ds).trees, 0.0);

    // Every level holds at most the root's elements and as many runs, so a
    // split step whose grids follow the data launches at most a constant
    // times that many blocks; one kernel over a slots x attributes grid
    // launches 50,000 blocks at 32 slots.
    const obs::Span* train = session.root().child("train");
    ASSERT_NE(train, nullptr);
    const obs::Span* split = train->child("split_node");
    ASSERT_NE(split, nullptr);
    const std::uint64_t levels = split->stats().invocations;
    ASSERT_GT(levels, 0u);
    const auto per_level =
        static_cast<double>(split->kernel_stats_total().blocks) /
        static_cast<double>(levels);
    const auto elems_and_runs = static_cast<double>(2 * ds.n_entries());
    EXPECT_LE(per_level, elems_and_runs / 8) << "levels " << levels;
  }
}

}  // namespace
}  // namespace gbdt
