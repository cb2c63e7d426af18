// Decision tree structure shared by GPU-GBDT and the CPU baselines.
//
// Split convention (attribute lists are sorted descending):
//   x[attr] >= split_value  -> left child  (the "high" side / sorted prefix)
//   x[attr] <  split_value  -> right child
//   attr missing            -> default_left ? left : right (learned)
// split_value is the smallest attribute value on the high side, so the test
// is exact — no midpoints, no epsilon.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gbdt {

struct TreeNode {
  std::int32_t left = -1;   // -1 => leaf
  std::int32_t right = -1;
  std::int32_t attr = -1;
  float split_value = 0.f;
  bool default_left = false;
  double weight = 0.0;      // leaf value (eta already applied)
  double gain = 0.0;        // split gain (internal nodes)
  std::int64_t n_instances = 0;
  double sum_g = 0.0;
  double sum_h = 0.0;

  [[nodiscard]] bool is_leaf() const { return left < 0; }
};

class Tree {
 public:
  Tree() { nodes_.emplace_back(); }
  /// A tree from its node records (node 0 is the root), as a device-built
  /// tree is read back.
  explicit Tree(std::vector<TreeNode> nodes) : nodes_(std::move(nodes)) {}

  [[nodiscard]] const TreeNode& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] TreeNode& node(std::int32_t id) {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::int32_t n_nodes() const {
    return static_cast<std::int32_t>(nodes_.size());
  }
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Turns `id` into an internal node with two fresh children; returns
  /// {left_id, right_id}.
  std::pair<std::int32_t, std::int32_t> split(std::int32_t id,
                                              std::int32_t attr,
                                              float split_value,
                                              bool default_left, double gain);

  [[nodiscard]] int depth() const;
  [[nodiscard]] std::int32_t n_leaves() const;

  /// Human-readable dump (one line per node, indented by depth).
  [[nodiscard]] std::string dump() const;

  /// Structural equality within a tolerance on split values / weights; used
  /// to verify the paper's "trees are identical" claim across trainers.
  [[nodiscard]] static bool same_structure(const Tree& a, const Tree& b,
                                           double tol = 1e-9);

  void serialize(std::ostream& out) const;
  [[nodiscard]] static Tree deserialize(std::istream& in);

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace gbdt
