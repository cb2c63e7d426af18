// The host reference of the level decision.  Every trainer decides its
// levels on the device (detail::decide_slots in core/level_driver.h); this
// host loop runs the same per-slot rule (decide_slot, child_node) on a
// host Tree, and the device-decision and level-driver tests hold the decide
// kernels to it.
#pragma once

#include <vector>

#include "core/level_driver.h"

namespace gbdt::testing {

/// Host split decision of one level (decide_slot per slot): the splits
/// become `tree`'s records, and the children, written as
/// child_node(child, children_are_leaves) like the decide kernels write
/// them, are appended to the tree and returned in slot order (left, right).
inline std::vector<detail::ActiveNode> decide_level(
    Tree& tree, const std::vector<detail::ActiveNode>& active,
    const std::vector<detail::BestSplit>& best, const GBDTParam& p,
    bool children_are_leaves) {
  std::vector<detail::ActiveNode> next;
  for (std::size_t s = 0; s < active.size(); ++s) {
    const detail::BestSplit& b = best[s];
    const std::int32_t id = active[s].tree_node;
    const TreeNode tn = detail::decide_slot(active[s], b, p, tree.n_nodes());
    if (!tn.is_leaf()) {
      (void)tree.split(id, tn.attr, tn.split_value, tn.default_left, tn.gain);
    }
    tree.node(id) = tn;
    if (tn.is_leaf()) continue;
    tree.node(tn.left) = detail::child_node(b.left, children_are_leaves, p);
    tree.node(tn.right) = detail::child_node(b.right, children_are_leaves, p);
    next.push_back(b.left);
    next.back().tree_node = tn.left;
    next.push_back(b.right);
    next.back().tree_node = tn.right;
  }
  return next;
}

}  // namespace gbdt::testing
