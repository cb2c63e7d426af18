// Unit tests of the shared level driver (core/level_driver.h): the split
// decision's per-slot rule, run by the host reference decide_level
// (testing/host_decision.h) on hand-built ActiveNode / BestSplit inputs,
// and the boosting loop over scripted backends that run no device work, one
// deciding into a host tree it hands back as the read tree and one
// standing in for a device-decided path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/level_driver.h"
#include "core/loss.h"
#include "obs/metrics.h"
#include "testing/host_decision.h"

namespace gbdt::detail {
namespace {

using gbdt::testing::decide_level;

GBDTParam make_param(double gamma = 0.0) {
  GBDTParam p;
  p.gamma = gamma;
  p.eta = 0.3;
  p.lambda = 1.0;
  p.depth = 3;
  p.n_trees = 2;
  return p;
}

ActiveNode make_node(std::int32_t id, double g, double h, std::int64_t cnt) {
  return ActiveNode{id, g, h, cnt};
}

/// A valid candidate of `parent` whose left child holds (g, h, cnt).
BestSplit make_split(const ActiveNode& parent, double gain, std::int32_t attr,
                     double g, double h, std::int64_t cnt) {
  BestSplit b;
  b.valid = true;
  b.gain = gain;
  b.attr = attr;
  b.split_value = 0.5f + static_cast<float>(attr);
  b.default_left = attr % 2 == 0;
  b.seg = 10 + attr;
  b.pos = 100 + attr;
  b.left = make_node(-1, g, h, cnt);
  b.right = make_node(-1, parent.sum_g - g, parent.sum_h - h,
                      parent.count - cnt);
  return b;
}

double leaf_value(const ActiveNode& n, const GBDTParam& p) {
  return p.eta * leaf_weight(n.sum_g, n.sum_h, p.lambda);
}

TEST(LevelDriver, GainEqualToGammaMakesALeaf) {
  const GBDTParam p = make_param(2.5);
  const std::vector<ActiveNode> active{make_node(0, -4.0, 10.0, 10)};

  Tree tree;
  const std::vector<ActiveNode> next = decide_level(
      tree, active, {make_split(active[0], 2.5, 1, -3.0, 5.0, 5)}, p, false);
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(tree.n_nodes(), 1);
  EXPECT_TRUE(tree.node(0).is_leaf());
  EXPECT_EQ(tree.node(0).weight, leaf_value(active[0], p));

  // The test is a strict `>`: the next double above gamma splits.
  Tree above;
  const std::vector<ActiveNode> split_next = decide_level(
      above, active,
      {make_split(active[0], std::nextafter(2.5, 3.0), 1, -3.0, 5.0, 5)}, p,
      false);
  EXPECT_EQ(split_next.size(), 2u);
  EXPECT_FALSE(above.node(0).is_leaf());
  EXPECT_EQ(above.n_nodes(), 3);
}

TEST(LevelDriver, InvalidSplitMakesALeafWithShrunkWeight) {
  const GBDTParam p = make_param();
  const std::vector<ActiveNode> active{make_node(0, 6.0, 3.0, 4)};
  BestSplit b = make_split(active[0], 100.0, 0, 1.0, 1.0, 2);
  b.valid = false;

  Tree tree;
  const std::vector<ActiveNode> next =
      decide_level(tree, active, {b}, p, false);
  EXPECT_TRUE(next.empty());
  const TreeNode& leaf = tree.node(0);
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_EQ(leaf.weight, 0.3 * (-6.0 / (3.0 + 1.0)));
  EXPECT_EQ(leaf.n_instances, 4);
  EXPECT_EQ(leaf.sum_g, 6.0);
  EXPECT_EQ(leaf.sum_h, 3.0);
}

TEST(LevelDriver, ChildrenComeOutInSlotOrder) {
  const GBDTParam p = make_param();
  // Nodes 2, 3 and 4 are active; slots 0 and 2 split, slot 1 does not.
  Tree tree;
  (void)decide_level(
      tree, {make_node(0, 0.0, 9.0, 9)},
      {make_split(make_node(0, 0.0, 9.0, 9), 1.0, 0, 1.0, 3.0, 3)}, p, false);
  (void)decide_level(
      tree, {make_node(1, 1.0, 3.0, 3)},
      {make_split(make_node(1, 1.0, 3.0, 3), 1.0, 0, 0.5, 1.0, 1)}, p, false);
  ASSERT_EQ(tree.n_nodes(), 5);
  const std::vector<ActiveNode> active{make_node(2, -1.0, 6.0, 6),
                                       make_node(3, 0.5, 1.0, 1),
                                       make_node(4, 0.5, 2.0, 2)};
  BestSplit none;
  const std::vector<BestSplit> best{
      make_split(active[0], 2.0, 4, -2.0, 2.0, 2), none,
      make_split(active[2], 3.0, 5, 0.25, 1.0, 1)};

  const std::vector<ActiveNode> next =
      decide_level(tree, active, best, p, false);
  ASSERT_EQ(tree.n_nodes(), 9);

  // The splits are the tree's records: slots 0 and 2 split in slot order.
  const TreeNode& n0 = tree.node(2);
  EXPECT_FALSE(n0.is_leaf());
  EXPECT_EQ(n0.left, 5);
  EXPECT_EQ(n0.right, 6);
  EXPECT_EQ(n0.attr, 4);
  EXPECT_EQ(n0.split_value, best[0].split_value);
  EXPECT_EQ(n0.default_left, best[0].default_left);
  EXPECT_TRUE(tree.node(3).is_leaf());
  EXPECT_EQ(tree.node(4).left, 7);
  EXPECT_EQ(tree.node(4).right, 8);

  // Children in slot order, left before right, carrying the split's stats.
  ASSERT_EQ(next.size(), 4u);
  const std::vector<std::int32_t> ids{5, 6, 7, 8};
  const std::vector<const ActiveNode*> stats{&best[0].left, &best[0].right,
                                             &best[2].left, &best[2].right};
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(next[k].tree_node, ids[k]);
    EXPECT_EQ(next[k].sum_g, stats[k]->sum_g);
    EXPECT_EQ(next[k].sum_h, stats[k]->sum_h);
    EXPECT_EQ(next[k].count, stats[k]->count);
    // The tree records a fresh child's statistics, as the kernels do.
    const TreeNode& child = tree.node(ids[k]);
    EXPECT_TRUE(child.is_leaf());
    EXPECT_EQ(child.n_instances, stats[k]->count);
    EXPECT_EQ(child.sum_g, stats[k]->sum_g);
    EXPECT_EQ(child.weight, 0.0);
  }

  // The tree records the split nodes and the new leaf.
  EXPECT_EQ(tree.node(2).left, 5);
  EXPECT_EQ(tree.node(2).attr, 4);
  EXPECT_EQ(tree.node(2).gain, 2.0);
  EXPECT_EQ(tree.node(2).n_instances, 6);
  EXPECT_EQ(tree.node(4).left, 7);
  EXPECT_TRUE(tree.node(3).is_leaf());
  EXPECT_EQ(tree.node(3).weight, leaf_value(active[1], p));
}

/// Scripted backend deciding on the host: the root holds 16 instances;
/// `split_levels` levels of every tree split each node in half, after which
/// the scripted find step reports no valid candidate.  Its split_level
/// finds, runs decide_level into its own tree and applies a level with
/// children; read_tree hands that tree back.  Counts every step and records
/// each applied level's children_are_leaves.
struct Script {
  int split_levels = 0;
  int find_calls = 0;
  int apply_calls = 0;
  std::vector<bool> leaf_children;
  int end_calls = 0;
  int level = 0;
  std::vector<const Tree*> prevs;
  const Tree* finished = nullptr;
  Tree tree;
  std::vector<ActiveNode> active;
  GBDTParam p;

  std::vector<BestSplit> find_splits() {
    ++find_calls;
    std::vector<BestSplit> best(active.size());
    if (level++ >= split_levels) return best;
    for (std::size_t s = 0; s < active.size(); ++s) {
      const ActiveNode& n = active[s];
      best[s] = make_split(n, 1.0, 0, n.sum_g / 2, n.sum_h / 2, n.count / 2);
    }
    return best;
  }

  void apply_splits(bool children_are_leaves) {
    ++apply_calls;
    leaf_children.push_back(children_are_leaves);
  }

  LevelBackend backend(const GBDTParam& param) {
    p = param;
    LevelBackend b;
    b.begin_tree = [this](int /*t*/, const Tree* prev) {
      prevs.push_back(prev);
      level = 0;
      tree = Tree();
      active.assign(1, make_node(0, -8.0, 16.0, 16));
    };
    b.split_level = [this](bool children_are_leaves) -> std::int64_t {
      std::vector<ActiveNode> next =
          decide_level(tree, active, find_splits(), p, children_are_leaves);
      if (!next.empty()) apply_splits(children_are_leaves);
      active = std::move(next);
      return static_cast<std::int64_t>(active.size());
    };
    b.read_tree = [this] { return tree; };
    b.end_tree = [this](const Tree& /*tree*/) { ++end_calls; };
    b.finish = [this](const Tree& last) {
      finished = &last;
      return std::vector<double>{1.0, 2.0};
    };
    return b;
  }
};

TEST(LevelDriver, LevelWithoutSplitsEndsTheTree) {
  auto& trees_total =
      obs::Registry::global().counter("gbdt_trees_trained_total");
  auto& levels_total =
      obs::Registry::global().counter("gbdt_levels_grown_total");
  const std::uint64_t trees_before = trees_total.value();
  const std::uint64_t levels_before = levels_total.value();

  GBDTParam p = make_param();
  p.depth = 5;
  Script script;
  script.split_levels = 1;
  std::vector<Tree> trees;
  const std::vector<double> scores =
      grow_forest(script.backend(p), p, trees);

  ASSERT_EQ(trees.size(), 2u);
  // Level 0 splits the root, level 1 splits nothing: two levels per tree.
  EXPECT_EQ(script.find_calls, 4);
  EXPECT_EQ(script.apply_calls, 2);
  // The trees stop early: no applied level reaches the depth limit.
  EXPECT_EQ(script.leaf_children, (std::vector<bool>{false, false}));
  EXPECT_EQ(script.end_calls, 2);
  EXPECT_EQ(trees_total.value() - trees_before, 2u);
  EXPECT_EQ(levels_total.value() - levels_before, 4u);
  for (const Tree& t : trees) {
    EXPECT_EQ(t.n_nodes(), 3);
    EXPECT_EQ(t.depth(), 1);
    EXPECT_EQ(t.node(1).weight,
              leaf_value(make_node(1, -4.0, 8.0, 8), p));
  }
  EXPECT_EQ(script.prevs, (std::vector<const Tree*>{nullptr, &trees[0]}));
  EXPECT_EQ(script.finished, &trees.back());
  EXPECT_EQ(scores, (std::vector<double>{1.0, 2.0}));
}

TEST(LevelDriver, DepthLimitTurnsActiveNodesIntoLeaves) {
  GBDTParam p = make_param();
  p.depth = 2;
  p.n_trees = 1;
  Script script;
  script.split_levels = 10;
  std::vector<Tree> trees;
  (void)grow_forest(script.backend(p), p, trees);

  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(script.find_calls, 2);
  EXPECT_EQ(script.apply_calls, 2);
  // Only the last level's children are leaves: its apply step may skip the
  // re-layout.
  EXPECT_EQ(script.leaf_children, (std::vector<bool>{false, true}));
  const Tree& t = trees[0];
  EXPECT_EQ(t.n_nodes(), 7);
  EXPECT_EQ(t.n_leaves(), 4);
  for (std::int32_t id = 3; id < 7; ++id) {
    EXPECT_TRUE(t.node(id).is_leaf());
    EXPECT_EQ(t.node(id).n_instances, 4);
    EXPECT_EQ(t.node(id).weight, leaf_value(make_node(id, -2.0, 4.0, 4), p));
  }
}

// A device-decided backend: the loop asks split_level for levels until one
// splits nothing or the depth limit, flags only the last level's children
// as leaves, and reads each finished tree back once.
TEST(LevelDriver, DeviceDecidedLevelsStopAtNoSplitOrDepth) {
  GBDTParam p = make_param();
  p.depth = 4;
  p.n_trees = 2;
  for (const int splitting_levels : {1, 10}) {
    SCOPED_TRACE(splitting_levels);
    std::vector<bool> leaf_flags;
    int level = 0;
    int reads = 0;
    LevelBackend b;
    b.begin_tree = [&](int, const Tree*) { level = 0; };
    b.split_level = [&](bool children_are_leaves) -> std::int64_t {
      leaf_flags.push_back(children_are_leaves);
      return level++ < splitting_levels ? std::int64_t{2} << level : 0;
    };
    b.read_tree = [&] {
      ++reads;
      Tree tree;
      (void)tree.split(0, 1, 0.5f, true, 3.0);
      return tree;
    };
    b.finish = [](const Tree&) { return std::vector<double>{}; };
    std::vector<Tree> trees;
    (void)grow_forest(b, p, trees);

    ASSERT_EQ(trees.size(), 2u);
    EXPECT_EQ(reads, 2);
    EXPECT_EQ(trees[1].n_nodes(), 3);  // what read_tree returned
    const std::vector<bool> per_tree =
        splitting_levels == 1 ? std::vector<bool>{false, false}
                              : std::vector<bool>{false, false, false, true};
    std::vector<bool> both = per_tree;
    both.insert(both.end(), per_tree.begin(), per_tree.end());
    EXPECT_EQ(leaf_flags, both);
  }
}

TEST(LevelDriver, CallbackStopsBoosting) {
  GBDTParam p = make_param();
  p.n_trees = 5;
  Script script;
  std::vector<Tree> trees;
  (void)grow_forest(script.backend(p), p, trees,
                    [](int t, const std::vector<Tree>&) { return t < 1; });
  EXPECT_EQ(trees.size(), 2u);
  EXPECT_EQ(script.end_calls, 2);
  EXPECT_EQ(script.finished, &trees.back());
}

}  // namespace
}  // namespace gbdt::detail
