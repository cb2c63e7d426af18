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
/// The grower keeps a row index sorted by level slot (Mitchell 2018's row
/// partitioner), so each level's build reads only the accumulated slots'
/// rows, and one arena block of int64 tables per level: the build plan, the
/// subtraction triples and the slots' quantized stats.  apply_level packs
/// the next level's tables with its own split commands into one upload; the
/// root level's few words ride begin_tree's kernel as arguments.
///
/// Per tree:   local_abs_max -> [max-allreduce] -> quantize ->
///             [sum-allreduce] -> begin_tree
/// Per level:  plan_level -> build_level -> [histogram allreduce over
///             accumulated_slots] -> subtract_level -> find_level ->
///             (shared split decision) -> apply_level
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
  /// Resets the per-tree state (every row in the root, the root level's
  /// tables) around the (globally reduced) root stats and returns the root.
  detail::ActiveNode begin_tree(Tree& tree, const hist::QGH& global_root);

  // ---- per level ----------------------------------------------------------
  /// Installs the level's active nodes and allocates their histograms.
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
  /// Writes the segment- and node-offset tables (one launch) and checks the
  /// key buffer out of the arena (must precede any comm enqueue: it rides
  /// the default stream).
  void prepare_offsets();
  /// set_keys over the prepared offsets; `stream` lets the multi-GPU path
  /// overlap it with the histogram allreduce.
  void run_set_keys(int stream = device::kDefaultStream);
  /// Fused scan + gain/argmax + host winner assembly over the (merged)
  /// histograms.  Deterministic in its inputs, so shards agree bitwise.
  void find_level();
  /// Uploads the decided splits with the next level's tables (one
  /// transfer), moves this shard's rows to their children, partitions the
  /// row index by next-level slot and rolls the level state forward.
  void apply_level(const detail::LevelPlan& plan);

  // ---- per tree, end ------------------------------------------------------
  /// Clears the level state (the leaves are already written).
  void finish_tree();

  [[nodiscard]] const std::vector<detail::BestSplit>& best() const {
    return best_;
  }

 private:
  /// One level's host-side tables: the accumulated slots and their build
  /// items, the derived slots' (parent, sibling, derived) triples, and
  /// every slot's quantized stats.
  struct LevelTables {
    hist::BuildPlan build;
    std::vector<std::int64_t> der_parent;
    std::vector<std::int64_t> der_sibling;
    std::vector<std::int64_t> der_derived;
    std::vector<hist::QGH> slotq;
    std::int64_t n_rows = 0;  // bound on the rows in the level's index
  };
  /// Where a LevelTables' columns sit in its device block.
  struct Columns {
    hist::BuildPlan::Columns build;
    hist::PackedTables::Column der_parent, der_sibling, der_derived, slotq;
  };
  [[nodiscard]] static Columns pack(const LevelTables& level,
                                    hist::PackedTables& t);
  [[nodiscard]] std::span<const std::int64_t> column(
      hist::PackedTables::Column c) const;

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

  // The slot-sorted row index (double-buffered across the partition) and
  // each level slot's range in it ([n_slots + 1], written on the device).
  device::DeviceBuffer<std::int32_t> rows_;
  device::DeviceBuffer<std::int32_t> rows_next_;
  device::ArenaBuffer<std::int64_t> slot_rows_;
  const std::int64_t chunk_;  // rows per build item

  LevelTables level_;
  Columns cols_;
  device::ArenaBuffer<std::int64_t> tables_;  // level_'s columns on device

  device::ArenaBuffer<hist::QGH> hist_prev_;
  device::ArenaBuffer<hist::QGH> hist_cur_;
  device::ArenaBuffer<std::int64_t> offsets_;  // segment, then node offsets
  std::vector<detail::BestSplit> best_;
  std::vector<hist::QGH> child_q_;
};

}  // namespace gbdt
