#include "core/level_driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

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

void finalize_leaf(Tree& tree, const ActiveNode& node, const GBDTParam& p) {
  auto& tn = tree.node(node.tree_node);
  tn.weight = p.eta * leaf_weight(node.sum_g, node.sum_h, p.lambda);
  tn.n_instances = node.count;
  tn.sum_g = node.sum_g;
  tn.sum_h = node.sum_h;
}

LevelPlan decide_level(Tree& tree, const std::vector<ActiveNode>& active,
                       const std::vector<BestSplit>& best,
                       const GBDTParam& p) {
  LevelPlan plan;
  plan.per_slot.resize(active.size());
  for (std::size_t s = 0; s < active.size(); ++s) {
    const ActiveNode& node = active[s];
    const BestSplit& b = best[s];
    if (!b.valid || !(b.gain > p.gamma)) {
      finalize_leaf(tree, node, p);
      continue;
    }
    auto& tn = tree.node(node.tree_node);
    tn.n_instances = node.count;
    tn.sum_g = node.sum_g;
    tn.sum_h = node.sum_h;
    const auto [l, r] = tree.split(node.tree_node, b.attr, b.split_value,
                                   b.default_left, b.gain);
    plan.per_slot[s] = LevelPlan::Entry{true,  b.seg,         b.pos,
                                        l,     r,             b.default_left,
                                        b.attr, b.split_value};
    plan.next_active.push_back(b.left);
    plan.next_active.back().tree_node = l;
    plan.next_active.push_back(b.right);
    plan.next_active.back().tree_node = r;
  }
  plan.next_slot_of_tree.assign(static_cast<std::size_t>(tree.n_nodes()), -1);
  for (std::size_t k = 0; k < plan.next_active.size(); ++k) {
    plan.next_slot_of_tree[static_cast<std::size_t>(
        plan.next_active[k].tree_node)] = static_cast<std::int32_t>(k);
  }
  return plan;
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
    // reserve() keeps `prev` valid across the emplace.
    const Tree* prev = t > 0 ? &trees.back() : nullptr;
    Tree& tree = trees.emplace_back();
    std::vector<ActiveNode> active{backend.begin_tree(t, prev, tree)};

    for (int level = 0; level < p.depth && !active.empty(); ++level) {
      levels_grown.inc();
      const std::vector<BestSplit> best = backend.find_splits(active);
      LevelPlan plan = decide_level(tree, active, best, p);
      if (plan.next_active.empty()) {
        active.clear();
        break;
      }
      plan.children_are_leaves = level + 1 == p.depth;
      backend.apply_splits(plan);
      active = std::move(plan.next_active);
    }

    // Depth limit reached: remaining active nodes become leaves.
    for (const ActiveNode& node : active) finalize_leaf(tree, node, p);
    if (backend.end_tree) backend.end_tree(tree);
    trees_trained.inc();
    if (on_tree && !on_tree(t, trees)) break;
  }
  return backend.finish(trees.back());
}

}  // namespace gbdt::detail
