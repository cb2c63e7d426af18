// The exact trainers decide every level on the device (decide_on_device in
// core/trainer_detail.h).  The decide kernel runs the same per-slot rule as
// the host decide_level (core/level_driver.h); these tests hold the two to
// byte-identical trees, plans and next-level slot statistics on hand-built
// winners, and check end to end that exact training makes no PCI-e
// transfer per level: its transfers are the setup's plus one tree
// read-back per tree, at any depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/xgb_exact.h"
#include "core/level_driver.h"
#include "core/loss.h"
#include "core/trainer.h"
#include "core/trainer_detail.h"
#include "data/synthetic.h"
#include "multigpu/multi_trainer.h"
#include "obs/trace.h"

namespace gbdt::detail {
namespace {

using device::Device;
using device::DeviceConfig;

GBDTParam make_param(double gamma) {
  GBDTParam p;
  p.gamma = gamma;
  p.eta = 0.3;
  p.lambda = 1.0;
  p.depth = 4;
  p.use_rle = false;
  return p;
}

/// Bit patterns, so -0.0 and 0.0 (and NaN payloads) count as different.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_node(const TreeNode& got, const TreeNode& want,
                      const std::string& where) {
  EXPECT_EQ(got.left, want.left) << where;
  EXPECT_EQ(got.right, want.right) << where;
  EXPECT_EQ(got.attr, want.attr) << where;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.split_value),
            std::bit_cast<std::uint32_t>(want.split_value))
      << where;
  EXPECT_EQ(got.default_left, want.default_left) << where;
  EXPECT_EQ(bits(got.weight), bits(want.weight)) << where;
  EXPECT_EQ(bits(got.gain), bits(want.gain)) << where;
  EXPECT_EQ(got.n_instances, want.n_instances) << where;
  EXPECT_EQ(bits(got.sum_g), bits(want.sum_g)) << where;
  EXPECT_EQ(bits(got.sum_h), bits(want.sum_h)) << where;
}

/// A valid winner of `parent` whose left child holds (g, h, cnt).
BestSplit make_split(const ActiveNode& parent, double gain, std::int32_t attr,
                     double g, double h, std::int64_t cnt) {
  BestSplit b;
  b.valid = true;
  b.gain = gain;
  b.attr = attr;
  b.split_value = 0.25f + static_cast<float>(attr);
  b.default_left = attr % 2 == 1;
  b.owner = 0;
  b.seg = 3 * attr + 1;
  b.pos = 40 + attr;
  b.left = ActiveNode{0, g, h, cnt};
  b.right = ActiveNode{0, parent.sum_g - g, parent.sum_h - h,
                       parent.count - cnt};
  return b;
}

/// One level decided both ways: the host decide_level on a Tree, and the
/// decide kernel on a TrainState whose device tree holds the same nodes and
/// whose segment table gives slot s `segs[s]` segments of `elems[s]`
/// elements each.
struct Level {
  Device dev{DeviceConfig::titan_x_pascal()};
  GBDTParam p;
  std::unique_ptr<Loss> loss;
  std::unique_ptr<TrainState> st;
  device::DeviceBuffer<std::int64_t> offsets;
  device::DeviceBuffer<std::int64_t> ids;
  device::DeviceBuffer<std::int64_t> slot_offsets;

  Tree host;
  LevelPlan plan;

  Level(const GBDTParam& param, const Tree& tree,
        const std::vector<ActiveNode>& active,
        const std::vector<BestSplit>& best, bool children_are_leaves,
        const std::vector<std::int64_t>& segs,
        const std::vector<std::int64_t>& elems)
      : p(param), loss(make_loss(param.loss)), host(tree) {
    st = std::make_unique<TrainState>(dev, p, *loss);
    st->n_inst = 1000;
    st->n_attr = 16;
    alloc_device_tree(*st);
    for (std::int32_t i = 0; i < tree.n_nodes(); ++i) {
      st->nodes[static_cast<std::size_t>(i)] = tree.node(i);
    }
    // The device tree carries the active nodes' statistics.
    for (const ActiveNode& a : active) {
      st->nodes[static_cast<std::size_t>(a.tree_node)] =
          child_node(a, /*leaf=*/false, p);
    }
    st->level_base = active.front().tree_node;
    st->n_slots = static_cast<std::int64_t>(active.size());

    std::vector<std::int64_t> off{0}, id, so{0};
    for (std::size_t s = 0; s < active.size(); ++s) {
      for (std::int64_t k = 0; k < segs[s]; ++k) {
        off.push_back(off.back() + elems[s]);
        id.push_back(static_cast<std::int64_t>(s) * st->n_attr + k);
      }
      so.push_back(static_cast<std::int64_t>(id.size()));
    }
    offsets = dev.to_device<std::int64_t>(off);
    ids = dev.to_device<std::int64_t>(id);
    slot_offsets = dev.to_device<std::int64_t>(so);
    st->seg = SegmentTable{{}, offsets.span(), ids.span(),
                           slot_offsets.span()};

    plan = decide_level(host, active, best, p);
    if (children_are_leaves) {
      for (const ActiveNode& c : plan.next_active) finalize_leaf(host, c, p);
    }
  }

  /// Holds the device decision to the host's: every node record, each
  /// slot's split command, the next-level slot statistics and the sizes.
  void expect_same(bool children_are_leaves) const {
    const SplitTables& t = st->split_tables;
    const auto n_next = static_cast<std::int64_t>(plan.next_active.size());
    ASSERT_EQ(t.n_next, n_next);
    ASSERT_EQ(st->level_base + st->n_slots + n_next, host.n_nodes());
    for (std::int32_t i = 0; i < host.n_nodes(); ++i) {
      const TreeNode& got = st->nodes[static_cast<std::size_t>(i)];
      if (!children_are_leaves && i >= st->level_base + st->n_slots) {
        // A fresh child carries its slot statistics until its level.
        const ActiveNode& c =
            plan.next_active[static_cast<std::size_t>(
                plan.next_slot_of_tree[static_cast<std::size_t>(i)])];
        EXPECT_EQ(c.tree_node, i);
        expect_same_node(got, child_node(c, false, p),
                         "child " + std::to_string(i));
      } else {
        expect_same_node(got, host.node(i), "node " + std::to_string(i));
      }
    }
    std::int64_t kept = 0;
    for (std::int64_t s = 0; s < st->n_slots; ++s) {
      const auto u = static_cast<std::size_t>(s);
      const LevelPlan::Entry& e = plan.per_slot[u];
      EXPECT_EQ(t.chosen_seg[u], e.chosen_seg) << "slot " << s;
      EXPECT_EQ(t.best_pos[u], e.best_pos) << "slot " << s;
      if (!e.split) continue;
      EXPECT_EQ(t.next_slot(e.left_id),
                plan.next_slot_of_tree[static_cast<std::size_t>(e.left_id)]);
      EXPECT_EQ(t.next_slot(e.right_id),
                plan.next_slot_of_tree[static_cast<std::size_t>(e.right_id)]);
      const auto so = st->seg.slot_offsets;
      kept += st->seg.offsets[static_cast<std::size_t>(so[u + 1])] -
              st->seg.offsets[static_cast<std::size_t>(so[u])];
    }
    EXPECT_EQ(t.kept, kept);
  }
};

TEST(DeviceDecision, GainEqualToGammaInvalidAndTiedWinnersMatchTheHost) {
  const GBDTParam p = make_param(2.5);
  // The root and nodes 1 and 2 split already; nodes 3..6 are active.
  Tree tree;
  (void)tree.split(0, 0, 1.f, false, 9.0);
  (void)tree.split(1, 1, 2.f, true, 8.0);
  (void)tree.split(2, 2, 3.f, false, 7.0);
  std::vector<ActiveNode> active;
  for (std::int32_t id = 3; id < 7; ++id) {
    active.push_back(ActiveNode{id, -1.5 * id, 2.0 * id + 0.25, 10 * id});
  }
  BestSplit invalid = make_split(active[1], 100.0, 3, -1.0, 2.0, 7);
  invalid.valid = false;
  const std::vector<BestSplit> best{
      make_split(active[0], 2.5, 1, -2.0, 3.0, 11),  // gain == gamma: leaf
      invalid,                                       // invalid: leaf
      // Tied gains: both split, children in slot order.
      make_split(active[2], std::nextafter(2.5, 3.0), 4, 0.5, 4.0, 20),
      make_split(active[3], std::nextafter(2.5, 3.0), 2, -7.0, 1.5, 33)};
  for (const bool leaves : {false, true}) {
    SCOPED_TRACE(leaves ? "children are leaves" : "children split on");
    Level level(p, tree, active, best, leaves, {2, 1, 3, 2}, {5, 9, 4, 6});
    decide_on_device(*level.st, leaves, best);
    level.expect_same(leaves);
    const SplitTables& t = level.st->split_tables;
    EXPECT_EQ(t.n_next, 4);
    EXPECT_EQ(t.kept, 3 * 4 + 2 * 6);
    if (!leaves) {
      // Slot 2's 3 segments go to next slots 0 and 1, slot 3's 2 to 2, 3.
      EXPECT_EQ(std::vector<std::int64_t>(t.cand_base.begin(),
                                          t.cand_base.end()),
                (std::vector<std::int64_t>{0, 3, 6, 8, 10}));
      EXPECT_EQ(t.n_candidates, 10);
    }
  }
}

TEST(DeviceDecision, AllLeafLevelEndsTheTree) {
  const GBDTParam p = make_param(0.0);
  Tree tree;
  (void)tree.split(0, 0, 1.f, false, 9.0);
  const std::vector<ActiveNode> active{ActiveNode{1, 3.0, 4.0, 12},
                                       ActiveNode{2, -3.0, 5.0, 13}};
  // A feature-masked slot's winner is the all-zero record the search
  // yields when every gain is masked; an invalid one keeps its fields.
  BestSplit invalid = make_split(active[1], 4.0, 1, -1.0, 2.0, 6);
  invalid.valid = false;
  const std::vector<BestSplit> best{BestSplit{}, invalid};
  Level level(p, tree, active, best, false, {1, 1}, {12, 13});
  decide_on_device(*level.st, false, best);
  level.expect_same(false);
  EXPECT_EQ(level.st->split_tables.n_next, 0);
  EXPECT_EQ(level.st->split_tables.kept, 0);
  EXPECT_TRUE(level.st->nodes[1].is_leaf());
  EXPECT_TRUE(level.st->nodes[2].is_leaf());
}

// The single-device decision assembles each slot's winner from the find
// step's outputs (SplitSearch) inside the kernel.  Slot 0's best segment
// (attribute 1) splits with its missing rows going left; slot 1's every
// gain is 0, as when the feature bag masks its attributes, so it is a leaf.
TEST(DeviceDecision, AssembledWinnersMatchTheHostOnTheSameWinners) {
  const GBDTParam p = make_param(0.0);
  Tree tree;
  (void)tree.split(0, 0, 1.f, false, 9.0);
  const std::vector<ActiveNode> active{ActiveNode{1, -6.0, 9.0, 8},
                                       ActiveNode{2, 2.0, 5.0, 5}};
  for (const bool leaves : {false, true}) {
    SCOPED_TRACE(leaves ? "children are leaves" : "children split on");
    const std::vector<GHPair> scan{{-1, 1}, {-2, 2}, {-3, 3},  // segment 0
                                   {-2.5, 1}, {-4, 2.5}, {-5, 3.5},
                                   {1, 1}, {1.5, 2}, {2, 3}, {2.5, 4}};
    const std::vector<GHPair> totals{{-3, 3}, {-5, 3.5}, {2.5, 4}};
    // The winners as the host decision sees them.
    BestSplit w;
    w.valid = true;
    w.gain = 2.0;
    w.attr = 1;
    w.split_value = 7.f;
    w.default_left = true;
    w.seg = 1;
    w.pos = 3;
    set_children(w, active[0], scan[3], 1, totals[1], 3);
    // Segments of 3, 3 and 4 elements: slot 0 owns two, slot 1 one.
    Level level(p, tree, active, {w, BestSplit{}}, leaves, {2, 1}, {3, 4});
    TrainState& st = *level.st;
    auto values = level.dev.to_device<float>(
        std::vector<float>{5.f, 4.f, 1.f, 7.f, 6.f, 2.f, 3.f, 3.f, 2.f, 1.f});
    SplitSearch& f = st.search;
    f.partial = st.arena.alloc<GHPair>(scan.size());
    f.seg_tot = st.arena.alloc<GHPair>(totals.size());
    std::copy(scan.begin(), scan.end(), f.partial.data());
    std::copy(totals.begin(), totals.end(), f.seg_tot.data());
    f.scan.partial = f.partial.span();
    f.w.val = st.arena.alloc<double>(3);
    f.w.idx = st.arena.alloc<std::int64_t>(3);
    f.w.dir = st.arena.alloc<std::uint8_t>(3);
    const double seg_gain[] = {1.5, 2.0, 0.0};
    const std::int64_t seg_pos[] = {1, 3, 6};
    const std::uint8_t seg_dir[] = {0, 1, 0};
    for (std::size_t k = 0; k < 3; ++k) {
      f.w.val[k] = seg_gain[k];
      f.w.idx[k] = seg_pos[k];
      f.w.dir[k] = seg_dir[k];
    }
    f.node_val = st.arena.alloc<double>(2);
    f.node_idx = st.arena.alloc<std::int64_t>(2);
    f.node_val[0] = 2.0;
    f.node_idx[0] = 1;
    f.node_val[1] = 0.0;  // every gain masked
    f.node_idx[1] = 2;
    f.seg_ids = st.seg.ids;
    f.seg_pos = st.seg.offsets;
    f.pos_value = values.span();
    f.n_attr = st.n_attr;

    decide_on_device(st, leaves);
    level.expect_same(leaves);
    EXPECT_EQ(st.split_tables.n_next, 2);
    EXPECT_EQ(st.nodes[1].attr, 1);
    EXPECT_TRUE(st.nodes[2].is_leaf());
  }
}

TEST(DeviceDecision, ShardedWinnersSplitOnlyTheirOwnersSegments) {
  const GBDTParam p = make_param(0.0);
  Tree tree;
  const std::vector<ActiveNode> active{ActiveNode{0, -4.0, 10.0, 10}};
  BestSplit w = make_split(active[0], 3.0, 5, -1.0, 4.0, 4);
  w.owner = 1;
  for (const int shard : {0, 1}) {
    Level level(p, tree, active, {w}, false, {2}, {10});
    decide_on_device(*level.st, false, std::span<const BestSplit>(&w, 1),
                     shard, /*n_shards=*/2);
    const SplitTables& t = level.st->split_tables;
    EXPECT_EQ(t.chosen_seg[0], shard == 1 ? w.seg : -1);
    EXPECT_EQ(t.best_pos[0], shard == 1 ? w.pos : -1);
    // Both children's rows are the owner's, on every shard.
    EXPECT_EQ(t.rows_of_owner, (std::vector<std::int64_t>{0, 10}));
    ASSERT_EQ(t.owner.size(), 3u);
    EXPECT_EQ(t.owner[0], -1);
    EXPECT_EQ(t.owner[1], 1);
    EXPECT_EQ(t.owner[2], 1);
    // The decision itself does not depend on the shard.
    EXPECT_EQ(level.st->nodes[0].left, 1);
    EXPECT_EQ(level.st->nodes[0].attr, 5);
  }
}

// ---- end to end: transfers per training ------------------------------------

/// PCI-e transfers and forest of one training under an obs session.
struct Trained {
  std::uint64_t transfers = 0;
  std::vector<Tree> trees;
};

/// Transfers in `span`'s subtree except the sharded path's peer legs, which
/// only its collective and node_sync spans make.
std::uint64_t pcie_transfers(const obs::Span& span) {
  if (span.name() == "allreduce_merge" || span.name() == "node_sync") {
    return 0;
  }
  std::uint64_t n = span.stats().transfers;
  for (const auto& c : span.children()) n += pcie_transfers(*c);
  return n;
}

enum class Path { kSparse, kRleDirect, kRleFallback, kFeatureSharded };

Trained train(Path path, const data::Dataset& ds, GBDTParam p) {
  obs::ObsSession session;
  session.activate();
  Trained run;
  if (path == Path::kFeatureSharded) {
    multigpu::MultiGpuOptions opts;
    opts.shard = multigpu::ShardMode::kFeature;
    run.trees = multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2,
                                          p, multigpu::Interconnect::pcie3(),
                                          opts)
                    .train(ds)
                    .trees;
  } else {
    p.use_rle = path != Path::kSparse;
    p.force_rle = p.use_rle;
    p.use_direct_rle_split = path != Path::kRleFallback;
    Device dev(DeviceConfig::titan_x_pascal());
    const auto report = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_EQ(report.used_rle, path != Path::kSparse);
    run.trees = report.trees;
  }
  session.deactivate();
  run.transfers = pcie_transfers(session.root());
  return run;
}

// Fewer than 256 elements: every segment's scan folds sequentially on the
// sharded layout too, so the sharded forest is bitwise the oracle's (its
// documented tie-level differences come from block carries).
TEST(DeviceDecision, ExactTrainingTransfersOncePerTreeAtAnyDepth) {
  data::SyntheticSpec spec;
  spec.n_instances = 60;
  spec.n_attributes = 4;
  spec.density = 1.0;
  spec.distinct_values = 6;
  spec.seed = 23;
  const auto ds = data::generate(spec);
  for (const Path path : {Path::kSparse, Path::kRleDirect, Path::kRleFallback,
                          Path::kFeatureSharded}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    std::vector<std::uint64_t> transfers;
    for (const int depth : {2, 6}) {
      for (const int trees : {3, 4}) {
        GBDTParam p = make_param(0.0);
        p.depth = depth;
        p.n_trees = trees;
        const Trained run = train(path, ds, p);
        transfers.push_back(run.transfers);
        const auto cpu = baseline::XgbExactTrainer(p).train(ds);
        ASSERT_EQ(run.trees.size(), cpu.trees.size());
        for (std::size_t t = 0; t < cpu.trees.size(); ++t) {
          std::ostringstream got, want;
          run.trees[t].serialize(got);
          cpu.trees[t].serialize(want);
          EXPECT_EQ(got.str(), want.str()) << "depth " << depth << " tree "
                                           << t;
        }
      }
    }
    // One transfer per extra tree, and none per extra level.
    EXPECT_EQ(transfers[1], transfers[0] + 1);
    EXPECT_EQ(transfers[2], transfers[0]);
    EXPECT_EQ(transfers[3], transfers[1]);
  }
}

}  // namespace
}  // namespace gbdt::detail
