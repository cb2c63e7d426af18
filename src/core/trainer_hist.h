// Device-side histogram method: the quantized-histogram training every
// production GPU GBDT system uses (XGBoost-GPU, LightGBM, ThunderGBM), built
// on the same simulated device, workspace arena and fused find-split
// machinery as the paper's exact method.
//
// Typical use (core/trainer.h):
//   device::Device dev(device::DeviceConfig::titan_x_pascal());
//   GBDTParam p;
//   p.use_hist_trainer = true;
//   p.n_bins = 64;
//   const TrainReport report = GpuGbdtTrainer(dev, p).train(dataset);
//
// Splits are approximate (bin boundaries instead of exact feature values),
// so the trainer is validated by quality equivalence against the exact
// reference (see testing/oracle.h's hist_vs_exact leg), not bitwise — but
// the training itself is fully deterministic: gradients are quantized to
// int64 fixed point, making histogram accumulation exact and the
// histogram-subtraction trick bitwise-identical to direct accumulation.
//
// The per-tree/per-level machinery lives in HistGrower, whose steps
// GpuGbdtTrainer and the multi-GPU trainer sequence as level-driver
// backends (DESIGN.md §5k).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/param.h"
#include "core/trainer_detail.h"
#include "data/dataset.h"
#include "device/device_context.h"
#include "primitives/histogram.h"

namespace gbdt {

/// Device-resident quantized feature matrix: per-attribute quantile cuts plus
/// the CSR entry stream rewritten as (attribute, bin-index) pairs.  Built
/// once per training run; every tree and level reads bins, never raw floats.
struct BinnedMatrix {
  std::vector<hist::BinCuts> cuts;                   // per attribute
  device::DeviceBuffer<std::int64_t> row_offsets;    // [n_inst + 1]
  device::DeviceBuffer<std::int32_t> entry_attr;     // per CSR entry
  device::DeviceBuffer<std::uint16_t> entry_bin;
  std::int64_t n_inst = 0;
  std::int64_t n_attr = 0;
  int n_bins = 0;  // bin budget; cuts[a].bin_low.size() may be smaller
};

/// Host-side per-attribute quantile cuts of `ds` (the shared first step of
/// both build_binned_matrix overloads; the multi-GPU row shards build cuts
/// from the *full* dataset so their bin boundaries agree).
[[nodiscard]] std::vector<hist::BinCuts> build_hist_cuts(
    const data::Dataset& ds, int n_bins);

/// Quantizes the dataset: builds per-attribute quantile cuts (hist::build_cuts)
/// and uploads the bin-index entry stream (PCI-e accounted).
[[nodiscard]] BinnedMatrix build_binned_matrix(device::Device& dev,
                                               const data::Dataset& ds,
                                               int n_bins);

/// Same, against caller-supplied cuts (multi-GPU shards pass the global
/// dataset's cuts and a row-sliced `ds`).
[[nodiscard]] BinnedMatrix build_binned_matrix(
    device::Device& dev, const data::Dataset& ds, int n_bins,
    const std::vector<hist::BinCuts>& cuts);

/// Stepwise histogram tree grower over one device (one row shard in the
/// multi-GPU path); the caller owns spans and the instance-count /
/// leaf-map checks.  With `distributed` set the grower
/// skips the subtraction self-check (it assumes the full row set) and the
/// process-wide subtraction counter.
///
/// Per tree:   local_abs_max -> [max-allreduce] -> quantize ->
///             [sum-allreduce] -> begin_tree
/// Per level:  plan_level -> build_level -> [histogram allreduce over
///             accumulated_slots] -> subtract_level -> find_level ->
///             (shared split decision) -> apply_level -> advance_level
class HistGrower {
 public:
  HistGrower(device::Device& dev, const GBDTParam& param,
             detail::TrainState& st, const BinnedMatrix& binned,
             bool distributed);

  struct AbsMax {
    double g = 0.0;
    double h = 0.0;
  };

  // ---- per tree -----------------------------------------------------------
  /// Largest |gradient| / |hessian| over this shard's rows.
  [[nodiscard]] AbsMax local_abs_max();
  /// Fixes the quantization scales from the (globally reduced) maxima and
  /// `global_n` rows, quantizes this shard's gradients, and returns the
  /// shard-local quantized root sums.
  [[nodiscard]] hist::QGH quantize(double max_abs_g, double max_abs_h,
                                   std::int64_t global_n);
  /// Resets the per-tree state around the (globally reduced) root stats and
  /// returns the root.
  detail::ActiveNode begin_tree(Tree& tree, const hist::QGH& global_root);

  // ---- per level ----------------------------------------------------------
  /// Installs the level's active nodes, allocates their histograms and picks
  /// the accumulate/derive split.
  void plan_level(const std::vector<detail::ActiveNode>& active);
  /// Builds the accumulated slots' histograms over this shard's rows.
  void build_level();
  /// Spans of the accumulated (directly built) histogram slots — the
  /// payloads the multi-GPU trainer allreduces before subtract_level.
  [[nodiscard]] std::vector<std::span<hist::QGH>> accumulated_slots();
  /// Derives the larger siblings by parent - sibling subtraction (bitwise
  /// in int64, also across shards once the accumulated slots are global).
  void subtract_level();
  [[nodiscard]] bool has_derived() const;
  /// Single-device bitwise self-check of the subtraction trick (invariants
  /// mode only; distributed growers skip — the fuzz oracle's bitwise
  /// mgpu_hist_vs_single leg subsumes it).
  void maybe_verify_subtraction();
  /// Uploads the segment-offset table and checks the key buffer out of the
  /// arena (must precede any comm enqueue: it rides the default stream).
  void prepare_offsets();
  /// set_keys over the prepared offsets; `stream` lets the multi-GPU path
  /// overlap it with the histogram allreduce.
  void run_set_keys(int stream = device::kDefaultStream);
  /// Fused scan + gain/argmax + host winner assembly over the (merged)
  /// histograms.  Deterministic in its inputs, so shards agree bitwise.
  void find_level();
  /// update_positions over this shard's rows for the decided splits.
  void apply_level(const detail::LevelPlan& plan);
  /// Rolls slot state forward to the decided children.
  void advance_level(const detail::LevelPlan& plan);

  // ---- per tree, end ------------------------------------------------------
  /// Clears the level state (the leaves are already written).
  void finish_tree();

  [[nodiscard]] const std::vector<detail::BestSplit>& best() const {
    return best_;
  }

 private:
  struct AccumPlan {
    std::vector<std::int32_t> accum_of_node;  // tree-node id -> accum index
    std::vector<std::int32_t> dest_slot;      // accum index -> level slot
    std::vector<std::int32_t> der_parent;     // per derived: parent slot
    std::vector<std::int32_t> der_sibling;    // per derived: sibling slot
    std::vector<std::int32_t> der_derived;    // per derived: slot to fill
  };
  void make_accum_plan();

  device::Device& dev_;
  const GBDTParam& param_;
  detail::TrainState& st_;
  const BinnedMatrix& binned_;
  const bool distributed_;
  const int n_bins_;
  const std::int64_t cps_;  // cells per node slot = n_attr * n_bins

  device::DeviceBuffer<std::int64_t> qg_;
  device::DeviceBuffer<std::int64_t> qh_;
  hist::GradQuant quant_g_;
  hist::GradQuant quant_h_;

  std::vector<hist::QGH> slotq_;  // per-slot quantized node stats (global)
  device::ArenaBuffer<hist::QGH> hist_prev_;
  device::ArenaBuffer<hist::QGH> hist_cur_;
  std::vector<std::int32_t> pair_parent_slot_;
  AccumPlan accum_;
  device::ArenaBuffer<std::int64_t> seg_offsets_;
  std::vector<detail::BestSplit> best_;
  std::vector<hist::QGH> child_q_;
  std::vector<hist::QGH> level_scan_;     // host copies for winner assembly
};

}  // namespace gbdt
