// Cost-model-guided autotuning of the trainer's performance knobs.
//
// The paper fixes its tuning constants globally (Customized SetKey C = 1000,
// IdxComp counter budget 2^30) and reports they work well on its four
// datasets.  The simulated device makes the better
// experiment cheap: every kernel's modeled time is an analytical function of
// counted work (device/cost_model.h), so the tuner can *predict* each
// candidate configuration's find-split seconds from the dataset shape alone
// — no trial training runs — and pick the argmin before training starts.
//
// Search space (one pass, all closed-form):
//   * SetKey segs-per-block constant C over {1, 10, 100, 250, 500, 1000,
//     2000, 4000} plus the formula disabled (one block per segment).  Each
//     candidate is priced at the grid the trainer launches
//     (prim::segs_per_block, whose element bound makes C irrelevant below
//     #SM * C * kBlockDim elements), and the synthesized KernelStats mirror
//     prim::set_keys' accounting exactly under a uniform-segment assumption.
//     The exact trainer lists only non-empty (node, attribute) segments, so
//     a level is priced at min(nodes * attributes, entries) segments; the
//     histogram trainer keys its fixed grid only when a level outgrows it,
//     so only those levels are priced, at the grid's size.
//   * Customized IdxComp workload on/off, costed through the real
//     prim::plan_partition pass structure (the naive fixed workload pays a
//     multi-pass penalty when the counters blow the budget), at two parts
//     per segment of that bound.
//
// The default (paper) configuration is only abandoned when a candidate
// predicts at least a 3% win — the uniform-segment assumption is not worth
// betting on for less — so `--autotune` can never lose to the paper's fixed
// C = 1000 by more than model noise, and test_autotune gates exactly that.
//
// The chosen knobs are applied onto the GBDTParam the trainers copy into
// TrainState, so every downstream segs_per_block / plan_partition call sees
// the tuned values; the full candidate sweep is kept in the report for the
// CLI `--profile` tuning block and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/param.h"
#include "data/dataset.h"
#include "device/cost_model.h"
#include "device/device_config.h"

namespace gbdt::autotune {

/// One evaluated SetKey configuration.
struct SetKeyCandidate {
  std::int64_t setkey_c = 0;  // meaningful when use_custom_setkey
  bool use_custom_setkey = true;
  /// Predicted modeled seconds of all set_keys launches of one tree (of
  /// the whole training for the histogram method, which keys its grid at
  /// most `depth` times).
  double find_split_seconds = 0.0;
};

/// Everything the tuner decided plus the evidence it decided on.
struct TuningReport {
  // ---- chosen configuration ----------------------------------------------
  std::int64_t setkey_c = 1000;
  bool use_custom_setkey = true;
  bool use_custom_idxcomp_workload = true;

  // ---- predictions --------------------------------------------------------
  /// Paper default (C = 1000, custom formula on), for the acceptance gate.
  double baseline_find_split_seconds = 0.0;
  /// The chosen SetKey configuration (<= baseline by construction).
  double tuned_find_split_seconds = 0.0;
  double partition_custom_seconds = 0.0;
  double partition_naive_seconds = 0.0;

  // ---- full sweeps (for --profile and EXPERIMENTS.md) ---------------------
  std::vector<SetKeyCandidate> candidates;
};

/// The dataset statistics the predictions depend on.
struct ProblemShape {
  std::int64_t n_instances = 0;
  std::int64_t n_attributes = 0;
  std::int64_t n_entries = 0;
};

[[nodiscard]] ProblemShape problem_shape(const data::Dataset& ds);

/// Predicted modeled seconds of one prim::set_keys launch of `n_seg`
/// equal-length segments over `n_elems` elements with `segs_per_block`
/// segments per block: the kernel's own accounting, synthesized.  On a
/// uniform-segment layout it equals the launched kernel's modeled seconds.
[[nodiscard]] double set_keys_seconds(const device::CostModel& cm,
                                      std::int64_t n_seg, std::int64_t n_elems,
                                      std::int64_t segs_per_block);

/// Evaluates the whole search space against the analytical cost model.
/// Pure: no device is touched, no training happens.
[[nodiscard]] TuningReport tune(const device::DeviceConfig& cfg,
                                const ProblemShape& shape,
                                const GBDTParam& param);

/// Writes the chosen knobs into `p` (which the trainers then cache in
/// TrainState).
void apply(const TuningReport& t, GBDTParam& p);

}  // namespace gbdt::autotune
