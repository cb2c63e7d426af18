// The one boosting loop shared by every device trainer (paper Algorithm 1).
//
// Every trainer path grows trees the same way: per tree, set up the round
// and write the root; per level, find every active node's best split,
// decide the splits (Algorithm 1 lines 14-23), then split the nodes; the
// decision of the level at the depth limit makes the children leaves.
// grow_forest() owns that loop and the tree/level counters.  This file owns
// the split decision and the leaf rule, written once per slot (decide_slot,
// child_node, leaf_node): every path's one-block decide kernel runs them
// over its device tree through decide_slots, and each finished tree is read
// back once.  A path plugs in as a LevelBackend: its own kernels, spans and
// invariant checks live inside the steps, so the loop itself adds no device
// work.
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

/// The slot loop of a one-block decide kernel (block `b`): for every slot s
/// of st's current level, decide_slot over `winner(s, node)` (a BestSplit)
/// writes the slot's tree record and, for a split, child_node its
/// children's; then `on_split(s, node, w, l)` writes the path's tables,
/// where l is the left child's next-level slot.  Declares and charges the
/// records (a read and a rewrite per slot, two child writes per split) and
/// returns the next level's slot count.
template <typename Winner, typename OnSplit>
std::int64_t decide_slots(device::BlockCtx& b, TrainState& st,
                          bool children_are_leaves, const Winner& winner,
                          const OnSplit& on_split) {
  const auto nodes = st.nodes.span();
  const std::int64_t base = st.level_base;
  const std::int64_t next_base = base + st.n_slots;
  std::int64_t n_next = 0;
  for (std::int64_t s = 0; s < st.n_slots; ++s) {
    const auto id = static_cast<std::size_t>(base + s);
    const ActiveNode node{static_cast<std::int32_t>(id), nodes[id].sum_g,
                          nodes[id].sum_h, nodes[id].n_instances};
    const BestSplit w = winner(s, node);
    const TreeNode rec = decide_slot(
        node, w, st.param, static_cast<std::int32_t>(next_base + n_next));
    nodes[id] = rec;
    if (rec.is_leaf()) continue;
    nodes[static_cast<std::size_t>(rec.left)] =
        child_node(w.left, children_are_leaves, st.param);
    nodes[static_cast<std::size_t>(rec.right)] =
        child_node(w.right, children_are_leaves, st.param);
    on_split(s, node, w, n_next);
    n_next += 2;
  }
  b.reads(nodes, base, st.n_slots);
  b.writes(nodes, base, st.n_slots + n_next);
  b.work(static_cast<std::uint64_t>(st.n_slots + n_next));
  b.mem_irregular(static_cast<std::uint64_t>(2 * st.n_slots + n_next));
  return n_next;
}

/// One trainer path's steps.  begin_tree, split_level, read_tree and finish
/// are required; end_tree may stay empty.
struct LevelBackend {
  /// Per-tree setup: folds `prev` (null for the first tree) into the
  /// predictions, computes round `t`'s gradients, and makes the root the
  /// level's only slot.
  std::function<void(int t, const Tree* prev)> begin_tree;
  /// Finds, decides and applies the current level, and returns the next
  /// level's slot count (0 ends the tree).  With `children_are_leaves` the
  /// decision makes the children leaves and the apply step updates only the
  /// instance->node map.
  std::function<std::int64_t(bool children_are_leaves)> split_level;
  /// Reads the finished device tree back (once per tree).
  std::function<Tree()> read_tree;
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
