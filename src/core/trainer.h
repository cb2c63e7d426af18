// GPU-GBDT on the simulated device: the paper's exact training algorithm,
// or the quantized-histogram method with param.use_hist_trainer set.
//
// Typical use:
//   device::Device dev(device::DeviceConfig::titan_x_pascal());
//   GpuGbdtTrainer trainer(dev, GBDTParam{});
//   const TrainReport report = trainer.train(dataset);
//   // report.trees, report.modeled_seconds, report.train_scores
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/autotune.h"
#include "core/loss.h"
#include "core/param.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

struct TrainReport {
  std::vector<Tree> trees;
  double base_score = 0.0;
  /// Modeled device seconds of this call: the device clock's advance from
  /// entry to return.  Per-phase time lives in the obs span tree.
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;
  bool used_rle = false;             // always false for the hist method
  double rle_ratio = 1.0;            // elements per run (1 = uncompressed)
  std::size_t peak_device_bytes = 0;
  /// Final raw training scores (base_score + sum of leaf weights).
  std::vector<double> train_scores;
  /// With param.autotune: the cost-model tuner's chosen knobs and sweeps.
  autotune::TuningReport tuning;
};

class GpuGbdtTrainer {
 public:
  /// Called after each completed tree with its index and the forest so far;
  /// returning false stops boosting early (used for early stopping).
  using TreeCallback =
      std::function<bool(int tree_index, const std::vector<Tree>& forest)>;

  /// Validates param (n_bins too with use_hist_trainer; throws
  /// std::invalid_argument).
  GpuGbdtTrainer(device::Device& dev, GBDTParam param);

  /// Trains param.n_trees trees of depth param.depth on ds with the method
  /// param.use_hist_trainer picks.  The device timeline keeps accumulating
  /// across calls; the report's modeled seconds cover this call only.
  [[nodiscard]] TrainReport train(const data::Dataset& ds);
  [[nodiscard]] TrainReport train(const data::Dataset& ds,
                                  const TreeCallback& on_tree);

  [[nodiscard]] const GBDTParam& param() const { return param_; }

 private:
  device::Device& dev_;
  GBDTParam param_;
  std::unique_ptr<Loss> loss_;
};

}  // namespace gbdt
