// The one boosting loop shared by every device trainer (paper Algorithm 1).
//
// Every trainer path grows trees the same way: per tree, set up the round
// and compute the root's statistics; per level, find every active node's
// best split, decide the splits (Algorithm 1 lines 14-23), then split the
// nodes; nodes still active at the depth limit become leaves.
// grow_forest() owns that loop and the tree/level counters.  This file owns
// the split decision and the leaf rule, written once per slot (decide_slot,
// leaf_node): the host decide_level() runs them for the paths that decide
// on the host (histogram, out-of-core), and the exact trainers' one-block
// decide kernel runs the same functions on the device.  A path plugs in as
// a LevelBackend: its own kernels, spans and invariant checks live inside
// the steps, so the loop itself adds no device work.
//
// The paths and their steps are listed in DESIGN.md §5k.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/param.h"
#include "core/trainer_detail.h"
#include "core/tree.h"
#include "device/device_context.h"

namespace gbdt::detail {

/// Host wall seconds since `start` (the reports' wall_seconds).
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Rejects parameters no trainer can train with: depth < 1, n_trees < 1,
/// gamma < 0, lambda < 0, and with `hist` an n_bins outside [1, 4096].
/// Every trainer class runs it at construction (std::invalid_argument).
void validate_param(const GBDTParam& p, bool hist);

/// Histogram-method feasibility: the widest level's current and parent
/// histograms over `n_attr` attributes must fit in a quarter of
/// `device_mem_bytes` (std::invalid_argument otherwise).
void check_hist_memory(const GBDTParam& p, std::int64_t n_attr,
                       std::size_t device_mem_bytes);

/// The leaf rule: `node` as a leaf of weight eta * -G / (H + lambda), with
/// its statistics.
[[nodiscard]] TreeNode leaf_node(const ActiveNode& node, const GBDTParam& p);

/// Makes `node` a leaf of `tree` (leaf_node).
void finalize_leaf(Tree& tree, const ActiveNode& node, const GBDTParam& p);

/// The split rule: a node splits when its best split `b` is valid and its
/// gain is strictly greater than gamma.
[[nodiscard]] bool splits(const BestSplit& b, const GBDTParam& p);

/// One slot's decision, the record its tree node ends the level with: a
/// leaf (leaf_node) unless `b` splits `node`, else an internal node on
/// b's attribute whose children are `first_child` and `first_child + 1`.
/// Both record the node's statistics.
[[nodiscard]] TreeNode decide_slot(const ActiveNode& node, const BestSplit& b,
                                   const GBDTParam& p,
                                   std::int32_t first_child);

/// The record a fresh child starts with: its statistics only, or its leaf
/// (leaf_node) when `leaf` (the children reached the depth limit).
[[nodiscard]] TreeNode child_node(const ActiveNode& child, bool leaf,
                                  const GBDTParam& p);

/// Host split decision of one level (decide_slot per slot).  Children are
/// appended to the tree and to next_active in slot order (left, right),
/// and next_slot_of_tree maps them back to their slot.
[[nodiscard]] LevelPlan decide_level(Tree& tree,
                                     const std::vector<ActiveNode>& active,
                                     const std::vector<BestSplit>& best,
                                     const GBDTParam& p);

/// One trainer path's steps.  A path decides its levels on the host or on
/// the device.  Host-decided paths (histogram, out-of-core) set find_splits
/// and apply_splits, and grow_forest runs decide_level between them.
/// Device-decided paths (the exact trainers) set split_level and read_tree.
/// begin_tree and finish are required; end_tree may stay empty.
struct LevelBackend {
  /// Per-tree setup: folds `prev` (null for the first tree) into the
  /// predictions, computes round `t`'s gradients, and returns the root's
  /// statistics.  `tree` is the fresh tree this round grows.
  std::function<ActiveNode(int t, const Tree* prev, Tree& tree)> begin_tree;
  /// Host-decided: best split of every active node, in slot order.
  std::function<std::vector<BestSplit>(const std::vector<ActiveNode>& active)>
      find_splits;
  /// Host-decided: moves the instances of the splitting nodes to their
  /// children (the level's active nodes are the ones find_splits received).
  /// On the last level (plan.children_are_leaves) only the instance->node
  /// map matters.
  std::function<void(const LevelPlan& plan)> apply_splits;
  /// Device-decided: finds, decides and applies the current level, and
  /// returns the next level's slot count (0 ends the tree).  With
  /// `children_are_leaves` the decision makes the children leaves and the
  /// apply step updates only the instance->node map.
  std::function<std::int64_t(bool children_are_leaves)> split_level;
  /// Device-decided: copies the finished device tree into `tree`.
  std::function<void(Tree& tree)> read_tree;
  /// After the tree's last leaf is written: per-path checks and releases.
  std::function<void(const Tree& tree)> end_tree;
  /// Folds the last tree into the predictions and returns the final raw
  /// training scores.
  std::function<std::vector<double>(const Tree& last)> finish;
};

/// Called after each tree with its index and the forest so far; returning
/// false stops boosting.
using TreeCallback =
    std::function<bool(int tree_index, const std::vector<Tree>& forest)>;

/// Runs the boosting loop over `backend`: grows p.n_trees trees of depth
/// p.depth into `trees` (fewer when `on_tree` stops early) and returns the
/// final raw training scores.
[[nodiscard]] std::vector<double> grow_forest(
    const LevelBackend& backend, const GBDTParam& p, std::vector<Tree>& trees,
    const TreeCallback& on_tree = {});

}  // namespace gbdt::detail
