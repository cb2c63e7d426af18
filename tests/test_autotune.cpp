// Tests for the cost-model-guided autotuner: the tuned configuration can
// never predict worse find-split seconds than the paper's fixed C = 1000,
// the sweep always evaluates the paper default, a predicted set_keys launch
// costs what the launched kernel does, the chosen knobs land in GBDTParam,
// and, for both training methods, a tuned run still fits, and on the Figure 9
// analogs fits like and never models slower than the paper constants (the
// acceptance gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/autotune.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "core/trainer_detail.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "primitives/segmented.h"

namespace gbdt::autotune {
namespace {

using device::DeviceConfig;

ProblemShape shape_of(std::int64_t n, std::int64_t d, double density) {
  ProblemShape s;
  s.n_instances = n;
  s.n_attributes = d;
  s.n_entries = static_cast<std::int64_t>(static_cast<double>(n * d) * density);
  return s;
}

// The tuner keeps the paper default unless a candidate predicts a >3% win,
// so tuned <= baseline must hold on every shape, device, and depth.
TEST(Autotune, TunedNeverWorseThanPaperDefault) {
  const ProblemShape shapes[] = {
      shape_of(100, 8, 1.0),           // tiny
      shape_of(10000, 100, 0.3),       // small sparse
      shape_of(500000, 90, 0.2),       // tall (higgs-like)
      shape_of(20000, 1000000, 0.001),  // wide sparse (news20-like)
  };
  const DeviceConfig cfgs[] = {DeviceConfig::titan_x_pascal(),
                               DeviceConfig::tesla_p100(),
                               DeviceConfig::tesla_k20()};
  for (const auto& cfg : cfgs) {
    for (const auto& s : shapes) {
      for (int depth : {3, 6, 10}) {
        GBDTParam p;
        p.depth = depth;
        const auto t = tune(cfg, s, p);
        EXPECT_LE(t.tuned_find_split_seconds,
                  t.baseline_find_split_seconds + 1e-15)
            << "n=" << s.n_instances << " d=" << s.n_attributes
            << " depth=" << depth;
      }
    }
  }
}

TEST(Autotune, SweepEvaluatesPaperDefault) {
  GBDTParam p;
  const auto t =
      tune(DeviceConfig::titan_x_pascal(), shape_of(10000, 50, 0.5), p);
  const bool has_default = std::any_of(
      t.candidates.begin(), t.candidates.end(), [](const SetKeyCandidate& c) {
        return c.use_custom_setkey && c.setkey_c == 1000;
      });
  EXPECT_TRUE(has_default);
  // The formula-off candidate is part of the sweep too.
  const bool has_off = std::any_of(
      t.candidates.begin(), t.candidates.end(),
      [](const SetKeyCandidate& c) { return !c.use_custom_setkey; });
  EXPECT_TRUE(has_off);
}

// The tuner's own accuracy, measured: it prices the grid the trainer
// launches (prim::segs_per_block), so on a uniform-segment layout its
// predicted set_keys seconds equal the launched kernel's modeled seconds —
// where the paper's term governs the grid, where the element bound does,
// and for the naive one-block-per-segment ablation.
TEST(Autotune, PredictedSetKeysSecondsMatchLaunchedKernel) {
  const DeviceConfig cfg = DeviceConfig::titan_x_pascal();
  const device::CostModel cm(cfg);
  struct Layout {
    std::int64_t n_seg;
    std::int64_t seg_len;
    std::int64_t c;
  };
  for (const Layout l : {Layout{10'000, 50, 10},     // paper term governs
                         Layout{100'000, 1, 1000},   // element bound governs
                         Layout{40'000, 3, 1000},
                         Layout{28, 4000, 1000}}) {  // root level
    const std::int64_t n = l.n_seg * l.seg_len;
    std::vector<std::int64_t> offs(static_cast<std::size_t>(l.n_seg) + 1);
    for (std::int64_t s = 0; s <= l.n_seg; ++s) {
      offs[static_cast<std::size_t>(s)] = s * l.seg_len;
    }
    device::Device dev(cfg);
    auto d_offs = dev.to_device<std::int64_t>(offs);
    auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
    for (const bool custom : {true, false}) {
      const std::int64_t spb =
          custom ? prim::segs_per_block(l.n_seg, n, cfg.num_sms, l.c) : 1;
      dev.reset_timeline();
      prim::set_keys(dev, d_offs, keys, spb);
      const double realized = dev.timeline().kernels.at("set_keys").seconds;
      EXPECT_NEAR(set_keys_seconds(cm, l.n_seg, n, spb), realized,
                  1e-9 * realized)
          << "segments=" << l.n_seg << " len=" << l.seg_len
          << " custom=" << custom;
    }
  }
  // The trainer's grid: the same function, and one segment per block for
  // the naive Fig 9 ablation however short the segments are.
  GBDTParam p;
  const auto loss = make_loss(p.loss);
  device::Device dev(cfg);
  detail::TrainState st(dev, p, *loss);
  EXPECT_EQ(st.segs_per_block(100'000, 100'000),
            prim::segs_per_block(100'000, 100'000, cfg.num_sms));
  p.use_custom_setkey = false;
  EXPECT_EQ(st.segs_per_block(100'000, 100'000), 1);
}

TEST(Autotune, ApplyWritesChosenKnobs) {
  TuningReport t;
  t.setkey_c = 250;
  t.use_custom_setkey = true;
  t.use_custom_idxcomp_workload = false;
  GBDTParam p;
  apply(t, p);
  EXPECT_EQ(p.setkey_c, 250);
  EXPECT_TRUE(p.use_custom_setkey);
  EXPECT_FALSE(p.use_custom_idxcomp_workload);
}

// Both training methods, by param.use_hist_trainer.
enum class Method { kExact, kHist };

// Names each case: gtest_discover_tests turns the printed value into the
// test id, as for test_properties.cpp's cases.
void PrintTo(Method m, std::ostream* os) {
  *os << (m == Method::kHist ? "hist" : "exact");
}

class AutotuneMethod : public ::testing::TestWithParam<Method> {
 protected:
  [[nodiscard]] bool hist() const { return GetParam() == Method::kHist; }
};

// End-to-end: --autotune produces a report with the tuning evidence attached
// and a model that fits the data exactly as well as the untuned one.
TEST_P(AutotuneMethod, TrainerRunsTunedAndFits) {
  data::SyntheticSpec spec;
  spec.n_instances = 1500;
  spec.n_attributes = 24;
  spec.density = 0.6;
  spec.seed = 29;
  const auto ds = data::generate(spec);

  GBDTParam p;
  p.depth = 4;
  p.n_trees = 4;
  p.use_rle = false;
  p.use_hist_trainer = hist();

  device::Device plain_dev(DeviceConfig::titan_x_pascal());
  const auto plain = GpuGbdtTrainer(plain_dev, p).train(ds);

  p.autotune = true;
  device::Device tuned_dev(DeviceConfig::titan_x_pascal());
  const auto tuned = GpuGbdtTrainer(tuned_dev, p).train(ds);
  EXPECT_FALSE(tuned.tuning.candidates.empty());
  EXPECT_LE(tuned.tuning.tuned_find_split_seconds,
            tuned.tuning.baseline_find_split_seconds + 1e-15);
  EXPECT_EQ(tuned.trees.size(), plain.trees.size());
  // The knobs only re-block kernels; the fit must not degrade.
  EXPECT_NEAR(rmse(tuned.train_scores, ds.labels()),
              rmse(plain.train_scores, ds.labels()), 1e-9);
}

// Every Figure 9 analog at the quick-suite shape (`gbdt_bench --quick`:
// scale 0.1, 2 trees, depth 3, RLE forced on the compressible analogs as
// bench_fig9 does), trained once with the paper's fixed constants and once
// with param.autotune.  Calls check(name, fixed, tuned) per analog.
template <typename Check>
void for_each_fig9_analog(bool use_hist_trainer, Check check) {
  for (const auto& info : data::paper_datasets(0.1)) {
    const auto ds = data::generate(info.spec);
    GBDTParam p;
    p.depth = 3;
    p.n_trees = 2;
    p.force_rle = info.spec.distinct_values > 0;
    p.use_hist_trainer = use_hist_trainer;
    device::Device fixed_dev(DeviceConfig::titan_x_pascal());
    const auto fixed = GpuGbdtTrainer(fixed_dev, p).train(ds);
    p.autotune = true;
    device::Device tuned_dev(DeviceConfig::titan_x_pascal());
    const auto tuned = GpuGbdtTrainer(tuned_dev, p).train(ds);
    check(info.paper_name, ds, fixed, tuned);
  }
}

// The tuned Figure 9 suite trains every analog and fits it exactly as well
// as the paper constants do.
TEST_P(AutotuneMethod, TunedFig9AnalogsFitLikePaperConstants) {
  for_each_fig9_analog(hist(), [](const std::string& name,
                                      const data::Dataset& ds,
                                      const TrainReport& fixed,
                                      const TrainReport& tuned) {
    EXPECT_FALSE(tuned.tuning.candidates.empty()) << name;
    EXPECT_EQ(tuned.trees.size(), fixed.trees.size()) << name;
    EXPECT_NEAR(rmse(tuned.train_scores, ds.labels()),
                rmse(fixed.train_scores, ds.labels()), 1e-9)
        << name;
  });
}

// The acceptance gate, in modeled device seconds: on every Figure 9 analog
// training with param.autotune never models slower than the paper's fixed
// constants.
TEST_P(AutotuneMethod, NeverModelsSlowerThanPaperConstantsOnFig9Analogs) {
  for_each_fig9_analog(hist(), [](const std::string& name,
                                      const data::Dataset&,
                                      const TrainReport& fixed,
                                      const TrainReport& tuned) {
    EXPECT_LE(tuned.modeled_seconds, fixed.modeled_seconds) << name;
  });
}

INSTANTIATE_TEST_SUITE_P(Methods, AutotuneMethod,
                         ::testing::Values(Method::kExact, Method::kHist));

}  // namespace
}  // namespace gbdt::autotune
