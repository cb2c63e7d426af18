// Tests for the multi-GPU trainer: equivalence with single-device training,
// communication accounting, device scaling behaviour, degenerate cases, and
// the collective smoke cases (MultiGpuSmoke, label mgpu_smoke): all-to-one
// trains the ring/tree forests, and ring/tree never model slower than it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "testing/invariants.h"

namespace gbdt::multigpu {
namespace {

using data::SyntheticSpec;
using device::DeviceConfig;

data::Dataset make_data(unsigned seed, std::int64_t n = 1000,
                        std::int64_t d = 16, double density = 0.7) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = d;
  s.density = density;
  s.seed = seed;
  return generate(s);
}

GBDTParam small_param() {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 4;
  return p;
}

TrainReport single_device(const data::Dataset& ds, GBDTParam p) {
  p.use_rle = false;  // the multi-GPU path trains the sparse layout
  device::Device dev(DeviceConfig::titan_x_pascal());
  return GpuGbdtTrainer(dev, p).train(ds);
}

class MultiGpuK : public ::testing::TestWithParam<int> {};

TEST_P(MultiGpuK, MatchesSingleDeviceForest) {
  const int K = GetParam();
  const auto ds = make_data(11);
  const auto p = small_param();
  const auto single = single_device(ds, p);
  MultiGpuTrainer multi(DeviceConfig::titan_x_pascal(), K, p);
  const auto sharded = multi.train(ds);

  ASSERT_EQ(sharded.trees.size(), single.trees.size());
  // Shards compute prefix sums over differently-blocked layouts, so exact
  // gain ties can break differently; structural equality holds everywhere
  // in practice for continuous data, with the fit as backstop.
  int identical = 0;
  for (std::size_t t = 0; t < single.trees.size(); ++t) {
    identical += Tree::same_structure(single.trees[t], sharded.trees[t], 1e-6);
  }
  EXPECT_GE(identical, static_cast<int>(single.trees.size()) - 1)
      << "K=" << K;
  EXPECT_NEAR(rmse(single.train_scores, ds.labels()),
              rmse(sharded.train_scores, ds.labels()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Devices, MultiGpuK, ::testing::Values(1, 2, 3, 4, 8));

TEST(MultiGpu, SingleDeviceShardHasNoPeerTraffic) {
  const auto ds = make_data(12);
  MultiGpuTrainer multi(DeviceConfig::titan_x_pascal(), 1, small_param());
  const auto r = multi.train(ds);
  // K = 1 still pays the root-stat "broadcast" of zero peers = nothing.
  EXPECT_EQ(r.comm.bytes, 0u);
  EXPECT_EQ(r.comm.seconds, 0.0);
}

TEST(MultiGpu, CommunicationGrowsWithDevices) {
  const auto ds = make_data(13);
  std::uint64_t prev_bytes = 0;
  for (int k : {2, 4, 8}) {
    MultiGpuTrainer multi(DeviceConfig::titan_x_pascal(), k, small_param());
    const auto r = multi.train(ds);
    EXPECT_GT(r.comm.bytes, prev_bytes) << k;
    EXPECT_GT(r.comm.seconds, 0.0);
    prev_bytes = r.comm.bytes;
  }
}

TEST(MultiGpu, ShardsShareComputeWork) {
  // High-dimensional data: each shard's own clock must drop as devices are
  // added (the find phase is attribute-parallel; per-instance work and
  // kernel-launch overheads replicate, so the drop is sublinear).
  const auto ds = make_data(14, 4000, 128, 0.5);
  GBDTParam p = small_param();
  MultiGpuTrainer one(DeviceConfig::titan_x_pascal(), 1, p);
  const auto r1 = one.train(ds);
  MultiGpuTrainer four(DeviceConfig::titan_x_pascal(), 4, p);
  const auto r4 = four.train(ds);
  ASSERT_EQ(r4.device_seconds.size(), 4u);
  const double max_shard =
      *std::max_element(r4.device_seconds.begin(), r4.device_seconds.end());
  EXPECT_LT(max_shard, r1.device_seconds[0] * 0.75);
  // Work is reasonably balanced across round-robin shards.
  const double min_shard =
      *std::min_element(r4.device_seconds.begin(), r4.device_seconds.end());
  EXPECT_GT(min_shard, max_shard * 0.3);
}

// Every shard op runs inside a parallel step, so the critical path is never
// shorter than a shard's own clock, and with one shard it is that clock.
TEST(MultiGpu, CriticalPathCoversEveryShardClock) {
  const auto ds = make_data(18, 1500, 12);
  for (const bool hist : {false, true}) {
    GBDTParam p = small_param();
    p.use_hist_trainer = hist;
    for (const int k : {1, 2, 4}) {
      const std::string label =
          std::string(hist ? "hist" : "exact") + " K=" + std::to_string(k);
      const auto r =
          MultiGpuTrainer(DeviceConfig::titan_x_pascal(), k, p).train(ds);
      ASSERT_EQ(r.device_seconds.size(), static_cast<std::size_t>(k))
          << label;
      const double slowest =
          *std::max_element(r.device_seconds.begin(), r.device_seconds.end());
      EXPECT_GT(slowest, 0.0) << label;
      EXPECT_GE(r.modeled_seconds, slowest * (1.0 - 1e-12)) << label;
      if (k == 1) {
        EXPECT_NEAR(r.modeled_seconds, slowest, 1e-12 * slowest) << label;
      }
    }
  }
}

TEST(MultiGpu, NvlinkBeatsPcieOnCommunication) {
  const auto ds = make_data(15, 3000, 24);
  GBDTParam p = small_param();
  MultiGpuTrainer pcie(DeviceConfig::titan_x_pascal(), 4, p,
                       Interconnect::pcie3());
  MultiGpuTrainer nvlink(DeviceConfig::titan_x_pascal(), 4, p,
                         Interconnect::nvlink());
  const auto a = pcie.train(ds);
  const auto b = nvlink.train(ds);
  EXPECT_GT(a.comm.seconds, b.comm.seconds);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);  // same protocol, faster wires
}

TEST(MultiGpu, RejectsDegenerateConfigurations) {
  EXPECT_THROW(
      MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 0, small_param()),
      std::invalid_argument);
  const auto ds = make_data(16, 100, 4);
  MultiGpuTrainer too_many(DeviceConfig::titan_x_pascal(), 8, small_param());
  EXPECT_THROW((void)too_many.train(ds), std::invalid_argument);
  data::Dataset empty(4);
  MultiGpuTrainer two(DeviceConfig::titan_x_pascal(), 2, small_param());
  EXPECT_THROW((void)two.train(empty), std::invalid_argument);
}

// GBDT_CHECK_INVARIANTS reaches inside a sharded exact training: every
// shard's replicated instance->node map is checked for conservation after
// node_sync and against the tree at its end.  So a corrupted child count
// throws, and a clean run passes.
TEST(MultiGpu, ShardedExactTrainingRunsTheInvariantChecks) {
  struct Restore {
    bool enabled = gbdt::testing::invariants_enabled();
    ~Restore() {
      gbdt::testing::fault_injection() = {};
      gbdt::testing::set_invariants_enabled(enabled);
    }
  } restore;
  gbdt::testing::set_invariants_enabled(true);
  const auto ds = make_data(17, 400, 8);
  const auto train = [&] {
    return MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2, small_param())
        .train(ds);
  };
  gbdt::testing::fault_injection().break_child_counts = true;
  EXPECT_THROW((void)train(), gbdt::testing::InvariantViolation);
  gbdt::testing::fault_injection().break_child_counts = false;
  EXPECT_NO_THROW((void)train());
}

TEST(MultiGpu, LargerDatasetFitsAcrossDevicesThatOneCannotHold) {
  // Memory aggregation: each shard holds ~1/K of the attribute lists, so a
  // dataset whose lists overflow one small device trains on four.
  SyntheticSpec s;
  s.n_instances = 30000;
  s.n_attributes = 32;
  s.density = 1.0;
  s.seed = 17;
  const auto ds = generate(s);
  auto cfg = DeviceConfig::titan_x_pascal();
  cfg.global_mem_bytes = 26u << 20;  // 26 MiB toy GPUs

  GBDTParam p;
  p.depth = 3;
  p.n_trees = 1;
  p.use_rle = false;
  device::Device dev(cfg);
  EXPECT_THROW((void)GpuGbdtTrainer(dev, p).train(ds),
               device::DeviceOutOfMemory);

  MultiGpuTrainer multi(cfg, 4, p);
  const auto r = multi.train(ds);  // must not throw
  EXPECT_EQ(r.trees.size(), 1u);
}

// The collective smoke sweep (label mgpu_smoke): the multigpu bench's
// analogs at the quick-suite shape (`gbdt_bench --quick`: scale 0.1, 2 trees,
// depth 3) trained under every schedule — exact training at K in {2, 4, 8},
// the histogram method at K in {2, 4}.  Calls check(label, all_to_one, ring,
// tree) once per configuration.
template <typename Check>
void for_each_smoke_config(Check check) {
  const auto train = [](const data::Dataset& ds, const GBDTParam& p, int k,
                        AllreduceAlgo algo) {
    MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(), k, p,
                            Interconnect::pcie3(), algo);
    return trainer.train(ds);
  };
  for (const char* name : {"news20", "higgs"}) {
    const auto ds = generate(data::paper_dataset(name, 0.1).spec);
    GBDTParam p;
    p.depth = 3;
    p.n_trees = 2;
    p.use_rle = false;
    GBDTParam hist = p;
    hist.use_hist_trainer = true;
    // 16 bins: news20's 40 k-column histogram payloads stay large enough
    // for bandwidth to dominate, at a quarter of the 64-bin build time.
    hist.n_bins = 16;
    struct Config {
      const GBDTParam* param;
      std::vector<int> ks;
    };
    for (const Config& c : {Config{&p, {2, 4, 8}}, Config{&hist, {2, 4}}}) {
      for (const int k : c.ks) {
        const std::string label =
            std::string(name) +
            (c.param->use_hist_trainer ? " hist" : " exact") +
            " K=" + std::to_string(k);
        check(label, train(ds, *c.param, k, AllreduceAlgo::kAllToOne),
              train(ds, *c.param, k, AllreduceAlgo::kRing),
              train(ds, *c.param, k, AllreduceAlgo::kTree));
      }
    }
  }
}

// The all-to-one schedule, chosen through the trainer's AllreduceAlgo, trains
// the ring and tree forests bit for bit on every smoke configuration.
TEST(MultiGpuSmoke, AllToOneTrainsTheRingAndTreeForests) {
  for_each_smoke_config([](const std::string& label,
                           const MultiTrainReport& a2o,
                           const MultiTrainReport& ring,
                           const MultiTrainReport& tree) {
    for (const MultiTrainReport* r : {&ring, &tree}) {
      ASSERT_EQ(r->trees.size(), a2o.trees.size()) << label;
      for (std::size_t t = 0; t < a2o.trees.size(); ++t) {
        EXPECT_TRUE(Tree::same_structure(r->trees[t], a2o.trees[t], 0.0))
            << label << " tree " << t;
      }
      EXPECT_EQ(r->train_scores, a2o.train_scores) << label;
    }
  });
}

// The collective acceptance gate: the ring and tree schedules never model a
// slower training than the legacy all-to-one merge.
TEST(MultiGpuSmoke, RingAndTreeNeverModelSlowerThanAllToOne) {
  for_each_smoke_config([](const std::string& label,
                           const MultiTrainReport& a2o,
                           const MultiTrainReport& ring,
                           const MultiTrainReport& tree) {
    EXPECT_LE(ring.modeled_seconds, a2o.modeled_seconds) << label << " ring";
    EXPECT_LE(tree.modeled_seconds, a2o.modeled_seconds) << label << " tree";
  });
}

}  // namespace
}  // namespace gbdt::multigpu
