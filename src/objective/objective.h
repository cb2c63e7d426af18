// The objective layer: per-round gradient production + row/feature
// visibility, shared by every trainer path (exact, sparse, RLE, hist,
// out-of-core; multi-GPU inherits per shard).
//
// It sits between the per-instance `Loss` and the trainers: a trainer no
// longer calls detail::compute_gradients directly at the top of each
// boosting round — it asks a RoundDriver, which dispatches to the configured
// Objective (pointwise Loss derivatives, or pairwise LambdaMART over query
// groups) and then installs the round's SamplingPlan (row-mask kernel +
// feature-mask span on the TrainState).  With the default configuration
// (pointwise, subsample=1.0, feature_bag=all) the driver reduces to exactly
// the old compute_gradients call: no extra kernels, no extra spans, bitwise
// identical forests.
#pragma once

#include <cstdint>
#include <memory>

#include "core/loss.h"
#include "core/param.h"
#include "core/trainer_detail.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt::objective {

/// Produces one boosting round's gradients into st.gh from the
/// current st.y_pred and the device-resident labels.
class Objective {
 public:
  virtual ~Objective() = default;
  virtual void gradients(detail::TrainState& st,
                         const device::DeviceBuffer<float>& labels) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Pointwise objective: defers to the per-instance Loss via the shared
/// compute_gradients kernel (bitwise-identical to the pre-objective-layer
/// trainers by construction — it is the same call).
class PointwiseObjective final : public Objective {
 public:
  void gradients(detail::TrainState& st,
                 const device::DeviceBuffer<float>& labels) override {
    detail::compute_gradients(st, labels);
  }
  [[nodiscard]] const char* name() const override { return "pointwise"; }
};

/// Builds the objective the param asks for.  kRanking requires query groups
/// on the dataset (throws std::invalid_argument otherwise).
[[nodiscard]] std::unique_ptr<Objective> make_objective(
    device::Device& dev, const GBDTParam& param, const data::Dataset& ds);

/// Per-trainer driver of the objective/sampling layer: owns the Objective
/// and the device-resident masks, and runs the start-of-round sequence.
///
/// Multi-GPU shards pass (n_shards, shard_index) so the feature mask is
/// remapped to shard-local attribute ids (global attribute a lives on shard
/// a % K as local a / K); gradients are replicated (every shard holds the
/// full row set), so the same driver works unchanged.
class RoundDriver {
 public:
  RoundDriver(device::Device& dev, const GBDTParam& param,
              const data::Dataset& ds, int n_shards = 1, int shard_index = 0);

  /// Start-of-round hook, replacing the trainers' direct
  /// detail::compute_gradients call: produces gradients, then (only when
  /// sampling is configured) draws the round's SamplingPlan, zeroes the
  /// unsampled rows' gradients on the device, and points st.feature_mask at
  /// the round's bag.  st.feature_mask is cleared first, so a trivial plan
  /// leaves the TrainState exactly as the pre-sampling trainers did.
  void begin_round(detail::TrainState& st,
                   const device::DeviceBuffer<float>& labels, int tree_index);

  [[nodiscard]] bool sampling_enabled() const { return sampling_enabled_; }
  [[nodiscard]] const Objective& objective() const { return *objective_; }

 private:
  device::Device& dev_;
  const GBDTParam& param_;
  std::unique_ptr<Objective> objective_;
  std::int64_t global_n_attr_ = 0;
  int n_shards_ = 1;
  int shard_index_ = 0;
  bool sampling_enabled_ = false;
  device::DeviceBuffer<std::uint8_t> d_row_mask_;
  device::DeviceBuffer<std::uint8_t> d_feature_mask_;
};

}  // namespace gbdt::objective
