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
// backends (DESIGN.md §5k); each level is decided on the device
// (decide_hist_level), so no level crosses PCI-e.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/param.h"
#include "core/trainer_detail.h"
#include "data/dataset.h"
#include "device/device_context.h"
#include "primitives/fused_split.h"
#include "primitives/histogram.h"

namespace gbdt {

/// Device-resident quantized feature matrix: per-attribute quantile cuts plus
/// the CSR entry stream rewritten as one symbol per entry, attribute *
/// n_bins + bin (hist::BinSymbol), which is the entry's histogram cell.
/// Built once per training run; every tree and level reads symbols, never
/// raw floats.  A row lookup searches only the positions its length leaves
/// the attribute (data::find_in_row), so rows keep the CSR layout with no
/// padding.
struct BinnedMatrix {
  std::vector<hist::BinCuts> cuts;                   // per attribute
  /// cuts[a].bin_low[b] at a * n_bins + b (0 past an attribute's last bin):
  /// the split values the device decision reads.
  device::DeviceBuffer<float> cut_values;
  device::DeviceBuffer<std::int64_t> row_offsets;    // [n_inst + 1]
  device::DeviceBuffer<hist::BinSymbol> entry_sym;   // per CSR entry
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
/// and uploads the cut values and the symbol stream (PCI-e accounted).
/// Throws std::invalid_argument, before building any cut or allocating on
/// the device, when n_attributes * n_bins symbols do not fit BinSymbol.
[[nodiscard]] BinnedMatrix build_binned_matrix(device::Device& dev,
                                               const data::Dataset& ds,
                                               int n_bins);

/// Same, against caller-supplied cuts (multi-GPU shards pass the global
/// dataset's cuts and a row-sliced `ds`), with the same width check.
[[nodiscard]] BinnedMatrix build_binned_matrix(
    device::Device& dev, const data::Dataset& ds, int n_bins,
    const std::vector<hist::BinCuts>& cuts);

/// One histogram level's tables: int64 columns of one arena block that the
/// previous level's decision wrote on the device (the root's: begin_tree),
/// trimmed to the sizes it wrote.
struct HistTables {
  device::ArenaBuffer<std::int64_t> block;
  /// The deciding level's split bins: per slot, the last bin on the left
  /// (high-value) side, or -1 where it does not split.  Empty at the root.
  std::span<const std::int64_t> split_bin;
  /// The accumulated slots: the smaller child of each split pair.
  hist::BuildTables build;
  /// Derived slot k is der_parent[k]'s histogram minus der_sibling[k]'s.
  std::span<const std::int64_t> der_parent;
  std::span<const std::int64_t> der_sibling;
  std::span<const std::int64_t> der_derived;
  std::span<const std::int64_t> slotq;  // (g, h, cnt) per slot
  std::int64_t n_slots = 0;
  std::int64_t n_rows = 0;  // bound on the rows in the level's index
};

/// The histogram find step's outputs the split decision reads: segment =
/// slot * n_attr + attribute, cell = segment * n_bins + bin.
struct HistSearch {
  std::span<const double> node_val;        // [slots] best segment gain
  std::span<const std::int64_t> node_idx;  // [slots] best segment, or -1
  std::span<const std::int64_t> seg_idx;   // [segments] best cell, or -1
  std::span<const std::uint8_t> seg_dir;   // [segments] 1: missing go left
  prim::CarriedScan<hist::QGH> scan;       // inclusive scan per cell
  std::span<const hist::QGH> seg_tot;      // [segments] present totals
  std::span<const std::int64_t> slotq;     // [3 * slots] (g, h, cnt)
  std::span<const float> cut_values;       // BinnedMatrix::cut_values
  std::int64_t n_attr = 0;
  std::int64_t n_bins = 0;
  hist::GradQuant quant_g;
  hist::GradQuant quant_h;

  /// Slot s's winner (valid for a segment, a cell and a positive gain; pos
  /// is the bin) with its children's quantized statistics.  Runs inside a
  /// device kernel, one irregular transaction per gathered field.
  struct Winner {
    detail::BestSplit split;
    hist::QGH left;
    hist::QGH right;
  };
  [[nodiscard]] Winner winner(device::BlockCtx& b, std::int64_t s) const;
};

/// The split decision of st's current level as one one-block kernel
/// (`hist_decide_level`): decide_slot per slot over its winner, the records
/// of the slots and their children (child_node), the split bins and, unless
/// `children_are_leaves`, the next level's tables (build items of `chunk`
/// rows).  Advances nothing: the slots stay current until advance_level.
[[nodiscard]] HistTables decide_hist_level(detail::TrainState& st,
                                           const HistSearch& search,
                                           bool children_are_leaves,
                                           std::int64_t chunk);

/// Stepwise histogram tree grower over one device (one row shard in the
/// multi-GPU path); the caller owns spans, the conservation and leaf-map
/// checks, and advancing the level (advance_level).  With `distributed`
/// set the grower skips the subtraction self-check (it assumes the full
/// row set) and the process-wide subtraction counter.
///
/// The grower keeps a row index sorted by level slot (Mitchell 2018's row
/// partitioner), so each level's build reads only the accumulated slots'
/// rows, and the level's HistTables, which the previous level's decision
/// wrote on the device.  The tree is st.nodes: the current level's slots
/// are its nodes level_base .. level_base + n_slots.
///
/// Per tree:   local_abs_max -> [max-allreduce] -> quantize ->
///             [sum-allreduce] -> begin_tree
/// Per level:  plan_level -> build_level -> [histogram allreduce over
///             accumulated_slots] -> subtract_level -> find_level (grows the
///             segment grids when the level is the widest yet; ends in the
///             decision) -> apply_level
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
  /// Resets the per-tree state around the (globally reduced) root stats:
  /// every row in the root, the root's tree record st.nodes[0] and the
  /// root level's tables; the root becomes the level's only slot.
  void begin_tree(const hist::QGH& global_root);

  // ---- per level ----------------------------------------------------------
  /// Allocates the level's histograms.
  void plan_level();
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
  /// Fused scan + gain/argmax over the (merged) histograms, then the
  /// level's decision on the device (decide_hist_level).  Deterministic in
  /// its inputs, so shards agree bitwise.
  void find_level(bool children_are_leaves);
  /// The decided level's next slot count (0: nothing splits).
  [[nodiscard]] std::int64_t n_next() const { return next_.n_slots; }
  /// Moves this shard's rows to the children the device tree names and,
  /// unless `children_are_leaves`, partitions the row index by next-level
  /// slot and makes the decided tables current.
  void apply_level(bool children_are_leaves);

  // ---- per tree, end ------------------------------------------------------
  /// Clears the level state (the leaves are already written).
  void finish_tree();

 private:
  /// Makes the grids cover the current level (see grid_slots_).
  void grow_grid();

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

  HistTables tables_;  // the current level's
  HistTables next_;    // the decided level's split bins and next tables

  device::ArenaBuffer<hist::QGH> hist_prev_;
  device::ArenaBuffer<hist::QGH> hist_cur_;

  // The histogram layout's fixed grids, built for grid_slots_ slots: segment
  // s = slot * n_attr + attr holds n_bins cells and node s holds n_attr
  // segments, so a level of k <= grid_slots_ slots reads the first k slots'
  // entries.  They are rebuilt only for a level wider than any before it,
  // at least doubling, so a training builds them at most `depth` times.
  std::int64_t grid_slots_ = 0;
  device::DeviceBuffer<std::int64_t> grid_offsets_;  // segment, then node
  device::DeviceBuffer<std::int32_t> grid_keys_;     // cell -> segment
};

}  // namespace gbdt
