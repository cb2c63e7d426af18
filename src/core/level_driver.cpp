#include "core/level_driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/loss.h"
#include "obs/metrics.h"
#include "primitives/histogram.h"

namespace gbdt::detail {

void validate_param(const GBDTParam& p, bool hist) {
  if (p.depth < 1) throw std::invalid_argument("depth must be >= 1");
  if (p.n_trees < 1) throw std::invalid_argument("n_trees must be >= 1");
  if (p.gamma < 0) throw std::invalid_argument("gamma must be >= 0");
  if (p.lambda < 0) throw std::invalid_argument("lambda must be >= 0");
  if (hist && (p.n_bins < 1 || p.n_bins > 4096)) {
    throw std::invalid_argument("n_bins must be in [1, 4096]");
  }
}

void check_hist_memory(const GBDTParam& p, std::int64_t n_attr,
                       std::size_t device_mem_bytes) {
  // Same guard shape as the CPU baseline; histogram slots replicate per
  // shard in the multi-GPU path, so the bound is the same there.
  const double widest = std::ldexp(1.0, std::min(p.depth - 1, 24));
  const double hist_bytes = 2.0 * widest *
                            static_cast<double>(n_attr * p.n_bins) *
                            sizeof(hist::QGH);
  if (hist_bytes > static_cast<double>(device_mem_bytes) / 4.0) {
    throw std::invalid_argument(
        "hist trainer: per-level histograms would exceed a quarter of "
        "device memory; reduce depth or n_bins");
  }
}

TreeNode leaf_node(const ActiveNode& node, const GBDTParam& p) {
  TreeNode tn;
  tn.weight = p.eta * leaf_weight(node.sum_g, node.sum_h, p.lambda);
  tn.n_instances = node.count;
  tn.sum_g = node.sum_g;
  tn.sum_h = node.sum_h;
  return tn;
}

bool splits(const BestSplit& b, const GBDTParam& p) {
  return b.valid && b.gain > p.gamma;
}

TreeNode decide_slot(const ActiveNode& node, const BestSplit& b,
                     const GBDTParam& p, std::int32_t first_child) {
  if (!splits(b, p)) return leaf_node(node, p);
  TreeNode tn;
  tn.left = first_child;
  tn.right = first_child + 1;
  tn.attr = b.attr;
  tn.split_value = b.split_value;
  tn.default_left = b.default_left;
  tn.gain = b.gain;
  tn.n_instances = node.count;
  tn.sum_g = node.sum_g;
  tn.sum_h = node.sum_h;
  return tn;
}

TreeNode child_node(const ActiveNode& child, bool leaf, const GBDTParam& p) {
  if (leaf) return leaf_node(child, p);
  TreeNode tn;
  tn.n_instances = child.count;
  tn.sum_g = child.sum_g;
  tn.sum_h = child.sum_h;
  return tn;
}

std::vector<double> grow_forest(const LevelBackend& backend,
                                const GBDTParam& p, std::vector<Tree>& trees,
                                const TreeCallback& on_tree) {
  static obs::Counter& trees_trained =
      obs::Registry::global().counter("gbdt_trees_trained_total");
  static obs::Counter& levels_grown =
      obs::Registry::global().counter("gbdt_levels_grown_total");
  trees.reserve(static_cast<std::size_t>(p.n_trees));
  for (int t = 0; t < p.n_trees; ++t) {
    // reserve() keeps earlier trees in place as the forest grows.
    backend.begin_tree(t, t > 0 ? &trees.back() : nullptr);
    // The decision of the level at the depth limit makes its children
    // leaves, so the tree is complete once a level splits nothing or the
    // depth limit is reached.
    std::int64_t n_slots = 1;
    for (int level = 0; level < p.depth && n_slots > 0; ++level) {
      levels_grown.inc();
      n_slots = backend.split_level(level + 1 == p.depth);
    }
    const Tree& tree = trees.emplace_back(backend.read_tree());
    if (backend.end_tree) backend.end_tree(tree);
    trees_trained.inc();
    if (on_tree && !on_tree(t, trees)) break;
  }
  return backend.finish(trees.back());
}

}  // namespace gbdt::detail
