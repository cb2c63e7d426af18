// Prediction on the simulated device (paper Section III-D) and the serving
// fast paths built on top of it.
//
// The paper's kernel is instance level x tree level parallelism — one
// logical GPU thread computes the partial prediction of one instance under
// one tree.  Training itself never calls this (SmartGD reuses the
// instance->leaf map); it exists for scoring unseen data.
//
// The upload and traversal halves are split so callers that score many
// times against the same forest (cross-validation, the serving layer's
// shard scorer, `gbdt predict`) pay the PCI-e cost once:
//
//   * ForestSoA     — host-side flat structure-of-arrays view of a forest;
//   * DeviceForest  — ForestSoA uploaded once to one device;
//   * DeviceRows    — a dataset's CSR rows uploaded once to one device;
//   * predict_resident — traversal only: accumulates the leaf weights of a
//     tree range into a caller-seeded output buffer (no uploads);
//   * RowPredictor  — host-side single-row scorer over the same ForestSoA,
//     bitwise identical to the device batch path (same traversal, same
//     accumulation order), used by the serving single-row fast path and by
//     GBDTModel's host scoring.
//
// There are two tree walks, one per side.  walk_row is the device walk:
// predict_resident and the SmartGD-off training update (the Fig 9 ablation,
// core/trainer.cpp) both call it and differ only in what they charge and
// where they add the leaf weight.  ForestSoA::leaf is the host walk under
// RowPredictor.  They stay two on purpose: the host walk is the reference
// the device scores are checked against bit for bit (test_serve, the
// benchmark's device-equals-host check), so a change to the device walk —
// its grid, its accumulation — cannot also move the reference.
//
// predict_on_device keeps its historical signature and behaviour: it is now
// a thin upload-then-traverse wrapper and stays bitwise identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

/// Host-side flat structure-of-arrays view of a forest: per-tree node
/// offsets plus parallel node arrays.  Immutable once built; shared by the
/// device uploader, the host RowPredictor, serving snapshots and the
/// SmartGD-off training update.
struct ForestSoA {
  std::vector<std::int64_t> tree_off;   // n_trees + 1 node offsets
  std::vector<std::int32_t> left, right, attr;
  std::vector<float> split;
  std::vector<std::uint8_t> def_left;
  std::vector<double> weight;
  double base_score = 0.0;

  [[nodiscard]] static ForestSoA flatten(std::span<const Tree> trees,
                                         double base_score);

  [[nodiscard]] std::int64_t n_trees() const {
    return static_cast<std::int64_t>(tree_off.size()) - 1;
  }
  [[nodiscard]] std::int64_t n_nodes() const {
    return static_cast<std::int64_t>(left.size());
  }

  /// Tree-local id of the leaf one sparse row (entries sorted by attr
  /// ascending) lands in under tree `t` — the host walk, with the exact
  /// comparison sequence of the device walk: value >= split goes left, a
  /// missing attribute follows the default child.
  [[nodiscard]] std::int64_t leaf(std::span<const data::Entry> row,
                                  std::int64_t t) const;

  /// Leaf weight of `row` under tree `t`.
  [[nodiscard]] double leaf_weight(std::span<const data::Entry> row,
                                   std::int64_t t) const {
    const auto base = tree_off[static_cast<std::size_t>(t)];
    return weight[static_cast<std::size_t>(base + leaf(row, t))];
  }
};

/// A ForestSoA resident in one device's memory (uploaded at construction).
class DeviceForest {
 public:
  DeviceForest(device::Device& dev, const ForestSoA& host);

  [[nodiscard]] std::int64_t n_trees() const { return n_trees_; }
  [[nodiscard]] double base_score() const { return base_score_; }

  [[nodiscard]] std::span<const std::int64_t> tree_off() const {
    return d_tree_off_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> left() const {
    return d_left_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> right() const {
    return d_right_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> attr() const {
    return d_attr_.span();
  }
  [[nodiscard]] std::span<const float> split() const {
    return d_split_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> def_left() const {
    return d_def_left_.span();
  }
  [[nodiscard]] std::span<const double> weight() const {
    return d_weight_.span();
  }

 private:
  std::int64_t n_trees_;
  double base_score_;
  device::DeviceBuffer<std::int64_t> d_tree_off_;
  device::DeviceBuffer<std::int32_t> d_left_, d_right_, d_attr_;
  device::DeviceBuffer<float> d_split_;
  device::DeviceBuffer<std::uint8_t> d_def_left_;
  device::DeviceBuffer<double> d_weight_;
};

/// A dataset's CSR rows resident in one device's memory.
class DeviceRows {
 public:
  DeviceRows(device::Device& dev, const data::Dataset& ds);

  [[nodiscard]] std::int64_t n_rows() const { return n_rows_; }
  /// The dataset's n_attributes: every row's attributes lie below it.
  [[nodiscard]] std::int64_t n_attr() const { return n_attr_; }
  [[nodiscard]] std::span<const std::int64_t> offsets() const {
    return d_offsets_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> attrs() const {
    return d_attrs_.span();
  }
  [[nodiscard]] std::span<const float> values() const {
    return d_values_.span();
  }

 private:
  std::int64_t n_rows_;
  std::int64_t n_attr_;
  device::DeviceBuffer<std::int64_t> d_offsets_;
  device::DeviceBuffer<std::int32_t> d_attrs_;
  device::DeviceBuffer<float> d_values_;
};

/// The node arrays the device walk reads: a DeviceForest's, or one tree's
/// uploads in the SmartGD-off training update.
struct DeviceNodes {
  std::span<const std::int32_t> left, right, attr;
  std::span<const float> split;
  std::span<const std::uint8_t> def_left;
};

/// Where one row lands under one tree, and the counts its kernel charges.
struct DeviceWalk {
  std::int64_t leaf = 0;       // node index, the tree's base offset included
  std::uint64_t misses = 0;    // row-lookup probes that missed
  std::uint64_t nodes = 0;     // internal nodes visited
};

/// The device tree walk: one logical thread routes CSR row entries
/// [row_lo, row_hi) of (attrs, values), strictly increasing attributes
/// below `n_attr` (the rows' dataset's n_attributes), through the tree whose
/// root is node `base`.  Each internal node looks its split attribute up in
/// the window of the row where it can sit (data::find_in_row: one probe on
/// a row that holds every attribute); value >= split goes left, a missing
/// attribute follows the default child.  Child ids are tree-local.
inline DeviceWalk walk_row(std::span<const std::int32_t> attrs,
                           std::span<const float> values, std::int64_t row_lo,
                           std::int64_t row_hi, std::int64_t n_attr,
                           const DeviceNodes& nodes, std::int64_t base) {
  DeviceWalk w;
  std::int64_t id = base;
  while (nodes.left[static_cast<std::size_t>(id)] >= 0) {
    const auto nu = static_cast<std::size_t>(id);
    const data::RowHit hit =
        data::find_in_row(attrs, row_lo, row_hi, n_attr, nodes.attr[nu]);
    w.misses += hit.probes - (hit.found ? 1 : 0);
    const bool go_left =
        hit.found ? values[static_cast<std::size_t>(hit.pos)] >= nodes.split[nu]
                  : nodes.def_left[nu] != 0;
    id = base + (go_left ? nodes.left[nu] : nodes.right[nu]);
    ++w.nodes;
  }
  w.leaf = id;
  return w;
}

/// Traversal only: accumulates the leaf weights of trees [tree_lo, tree_hi)
/// of `forest` into `inout` (one cell per row of `rows`), which the caller
/// seeds — with base_score for a full scoring pass, or with the previous
/// shard's partial sums in the serving relay.  Per row, trees accumulate in
/// ascending order, so chaining ranges reproduces the whole-forest sum bit
/// for bit.  `name` labels the kernel in traces (serving passes a
/// `serve_`-prefixed label).
void predict_resident(device::Device& dev, const DeviceForest& forest,
                      const DeviceRows& rows,
                      device::DeviceBuffer<double>& inout,
                      std::int64_t tree_lo, std::int64_t tree_hi,
                      const char* name = "predict_batch");

/// Raw scores (base_score + sum of leaf weights) for every instance of ds.
/// Uploads the forest and the rows, seeds with base_score, traverses, and
/// downloads — one-shot convenience over the resident API.
[[nodiscard]] std::vector<double> predict_on_device(
    device::Device& dev, const std::vector<Tree>& trees, double base_score,
    const data::Dataset& ds);

/// Host-side single-row scorer over a ForestSoA: the serving layer's fast
/// path.  Construction flattens (or adopts) the forest once; score() then
/// walks the flat arrays with the exact comparison and accumulation
/// sequence of the device batch kernel, so single-row scores are bitwise
/// identical to batched ones.
class RowPredictor {
 public:
  explicit RowPredictor(const std::vector<Tree>& trees, double base_score)
      : soa_(ForestSoA::flatten(trees, base_score)) {}
  explicit RowPredictor(ForestSoA soa) : soa_(std::move(soa)) {}

  /// base_score + every tree's leaf weight, accumulated in tree order.
  [[nodiscard]] double score(std::span<const data::Entry> row) const;

  /// Partial sum of trees [tree_lo, tree_hi) accumulated onto `seed` — the
  /// host mirror of one serving shard's relay step.
  [[nodiscard]] double partial(std::span<const data::Entry> row,
                               std::int64_t tree_lo, std::int64_t tree_hi,
                               double seed) const;

  [[nodiscard]] const ForestSoA& soa() const { return soa_; }

 private:
  ForestSoA soa_;
};

}  // namespace gbdt
