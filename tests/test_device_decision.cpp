// The exact and histogram trainers decide every level on the device
// (decide_on_device in core/trainer_detail.h, decide_hist_level in
// core/trainer_hist.h).  Both decide kernels run the same per-slot rule as
// the host decide_level (testing/host_decision.h); these tests hold them to
// byte-identical trees, plans and next-level tables on hand-built winners,
// and check end to end that in-core training makes no PCI-e transfer per
// level: its transfers are the setup's plus one tree read-back per tree,
// at any depth.
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
#include "core/trainer_hist.h"
#include "data/synthetic.h"
#include "multigpu/multi_trainer.h"
#include "obs/trace.h"
#include "testing/host_decision.h"

namespace gbdt::detail {
namespace {

using gbdt::testing::decide_level;

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
  std::vector<BestSplit> best;
  std::vector<ActiveNode> next;  // the host decision's children

  Level(const GBDTParam& param, const Tree& tree,
        const std::vector<ActiveNode>& active,
        const std::vector<BestSplit>& best, bool children_are_leaves,
        const std::vector<std::int64_t>& segs,
        const std::vector<std::int64_t>& elems)
      : p(param), loss(make_loss(param.loss)), host(tree), best(best) {
    st = std::make_unique<TrainState>(dev, p, *loss);
    st->n_inst = 1000;
    st->n_attr = 16;
    alloc_device_tree(*st, st->n_inst);
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

    next = decide_level(host, active, best, p, children_are_leaves);
  }

  /// The host decision's next-level slot of child `id` (children are
  /// numbered after the level's slots).
  [[nodiscard]] std::int64_t next_slot(std::int64_t id) const {
    return id - (st->level_base + st->n_slots);
  }

  /// The host decision's record of slot s.
  [[nodiscard]] const TreeNode& host_slot(std::int64_t s) const {
    return host.node(static_cast<std::int32_t>(st->level_base + s));
  }

  /// Every device node record equals the host's: a fresh child carries
  /// its slot statistics until its level (or is a leaf at the depth limit).
  void expect_same_tree(bool children_are_leaves) const {
    for (std::int32_t i = 0; i < host.n_nodes(); ++i) {
      const TreeNode& got = st->nodes[static_cast<std::size_t>(i)];
      if (i >= st->level_base + st->n_slots) {
        const ActiveNode& c =
            next[static_cast<std::size_t>(next_slot(i))];
        EXPECT_EQ(c.tree_node, i);
        expect_same_node(got, child_node(c, children_are_leaves, p),
                         "child " + std::to_string(i));
      }
      expect_same_node(got, host.node(i), "node " + std::to_string(i));
    }
  }

  /// Holds the device decision to the host's: every node record, each
  /// slot's split command, the next-level slot statistics and the sizes.
  void expect_same(bool children_are_leaves) const {
    const SplitTables& t = st->split_tables;
    const auto n_next = static_cast<std::int64_t>(next.size());
    ASSERT_EQ(t.n_next, n_next);
    ASSERT_EQ(st->level_base + st->n_slots + n_next, host.n_nodes());
    expect_same_tree(children_are_leaves);
    std::int64_t kept = 0;
    for (std::int64_t s = 0; s < st->n_slots; ++s) {
      const auto u = static_cast<std::size_t>(s);
      const TreeNode& hn = host_slot(s);
      EXPECT_EQ(t.chosen_seg[u], hn.is_leaf() ? -1 : best[u].seg) << s;
      EXPECT_EQ(t.best_pos[u], hn.is_leaf() ? -1 : best[u].pos) << s;
      if (hn.is_leaf()) continue;
      EXPECT_EQ(t.next_slot(hn.left), next_slot(hn.left));
      EXPECT_EQ(t.next_slot(hn.right), next_slot(hn.right));
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

// ---- the histogram decision -------------------------------------------------

constexpr std::int64_t kAttrs = 3;
constexpr std::int64_t kBins = 4;
const hist::GradQuant kQuantG{1024.0, 1.0 / 1024.0};
const hist::GradQuant kQuantH{256.0, 1.0 / 256.0};

/// One slot's hand-built histogram winner.  attr < 0: no segment wins the
/// slot; bin < 0: its best segment has no valid cell.
struct HistRecord {
  hist::QGH node;  // the slot's quantized statistics
  std::int32_t attr = -1;
  std::int64_t bin = -1;
  double gain = 0.0;
  bool missing_left = false;
  hist::QGH prefix;   // the scan at the winning cell (the high side)
  hist::QGH present;  // the segment's present total
};

ActiveNode dequantized(std::int32_t id, const hist::QGH& q) {
  return ActiveNode{id, static_cast<double>(q.g) * kQuantG.inv,
                    static_cast<double>(q.h) * kQuantH.inv, q.cnt};
}

/// The winner as the host assembled it before the decision moved to the
/// device, with its children's quantized statistics: valid only for a
/// segment, a cell and a positive gain; missing rows going left add the
/// node's missing statistics to the high side.
BestSplit host_winner(const HistRecord& r, std::int64_t slot,
                      const std::vector<float>& cuts, hist::QGH& lq,
                      hist::QGH& rq) {
  BestSplit bs;
  if (r.attr < 0 || r.bin < 0 || !(r.gain > 0.0)) return bs;
  lq = r.prefix;
  if (r.missing_left) lq += r.node - r.present;
  rq = r.node - lq;
  bs.valid = true;
  bs.gain = r.gain;
  bs.attr = r.attr;
  bs.split_value = cuts[static_cast<std::size_t>(r.attr * kBins + r.bin)];
  bs.default_left = r.missing_left;
  bs.seg = slot * kAttrs + r.attr;
  bs.pos = r.bin;
  bs.left = dequantized(-1, lq);
  bs.right = dequantized(-1, rq);
  return bs;
}

/// One histogram level decided both ways: the host decide_level over the
/// host-assembled winners, and decide_hist_level over the find step's
/// outputs that hold the same records.
struct HistLevel {
  std::vector<float> cuts;
  std::vector<hist::QGH> lq, rq;  // per slot, the children's statistics
  std::unique_ptr<Level> level;
  HistTables tables;

  HistLevel(const GBDTParam& p, const Tree& tree, std::int32_t first_id,
            const std::vector<HistRecord>& recs, bool leaves,
            std::int64_t chunk)
      : lq(recs.size()), rq(recs.size()) {
    for (std::int64_t k = 0; k < kAttrs * kBins; ++k) {
      cuts.push_back(10.f - 0.5f * static_cast<float>(k));
    }
    std::vector<ActiveNode> active;
    std::vector<BestSplit> best;
    for (std::size_t s = 0; s < recs.size(); ++s) {
      active.push_back(
          dequantized(first_id + static_cast<std::int32_t>(s), recs[s].node));
      best.push_back(host_winner(recs[s], static_cast<std::int64_t>(s), cuts,
                                 lq[s], rq[s]));
    }
    const std::vector<std::int64_t> ones(recs.size(), 1);
    level = std::make_unique<Level>(p, tree, active, best, leaves, ones, ones);

    // The find step's outputs: slot s's segments are s * kAttrs + a, and
    // its winning segment's best cell holds the record's scan value.
    Device& dev = level->dev;
    const auto n = static_cast<std::int64_t>(recs.size());
    std::vector<double> node_val(recs.size(), 0.0);
    std::vector<std::int64_t> node_idx(recs.size(), -1);
    std::vector<std::int64_t> seg_idx(static_cast<std::size_t>(n * kAttrs),
                                      -1);
    std::vector<std::uint8_t> seg_dir(seg_idx.size(), 0);
    std::vector<hist::QGH> seg_tot(seg_idx.size());
    std::vector<hist::QGH> scan(seg_idx.size() * kBins);
    std::vector<std::int64_t> slotq;
    for (std::int64_t s = 0; s < n; ++s) {
      const HistRecord& r = recs[static_cast<std::size_t>(s)];
      slotq.insert(slotq.end(), {r.node.g, r.node.h, r.node.cnt});
      node_val[static_cast<std::size_t>(s)] = r.gain;
      if (r.attr < 0) continue;
      const std::int64_t seg = s * kAttrs + r.attr;
      const auto u = static_cast<std::size_t>(seg);
      node_idx[static_cast<std::size_t>(s)] = seg;
      seg_dir[u] = r.missing_left ? 1 : 0;
      seg_tot[u] = r.present;
      if (r.bin < 0) continue;
      seg_idx[u] = seg * kBins + r.bin;
      scan[static_cast<std::size_t>(seg * kBins + r.bin)] = r.prefix;
    }
    d_node_val = dev.to_device<double>(node_val);
    d_node_idx = dev.to_device<std::int64_t>(node_idx);
    d_seg_idx = dev.to_device<std::int64_t>(seg_idx);
    d_seg_dir = dev.to_device<std::uint8_t>(seg_dir);
    d_seg_tot = dev.to_device<hist::QGH>(seg_tot);
    d_scan = dev.to_device<hist::QGH>(scan);
    d_slotq = dev.to_device<std::int64_t>(slotq);
    d_cuts = dev.to_device<float>(cuts);
    HistSearch search{d_node_val.span(), d_node_idx.span(), d_seg_idx.span(),
                      d_seg_dir.span(),  {},                d_seg_tot.span(),
                      d_slotq.span(),    d_cuts.span(),     kAttrs,
                      kBins,             kQuantG,           kQuantH};
    search.scan.partial = d_scan.span();
    tables = decide_hist_level(*level->st, search, leaves, chunk);
  }

  /// Holds the device decision to the host's: every node record, the
  /// split bins and, unless the children are leaves, the next level's
  /// tables against a host-made build plan of the smaller children.
  void expect_same(bool leaves, std::int64_t chunk) const {
    const std::vector<ActiveNode>& next = level->next;
    const TrainState& st = *level->st;
    ASSERT_EQ(tables.n_slots,
              static_cast<std::int64_t>(next.size()));
    ASSERT_EQ(st.level_base + st.n_slots + tables.n_slots,
              level->host.n_nodes());
    level->expect_same_tree(leaves);
    ASSERT_EQ(tables.split_bin.size(), static_cast<std::size_t>(st.n_slots));
    // The build plan of the smaller children: ceil(rows / chunk) items per
    // accumulated slot, partial copies for slots of several items.
    std::vector<std::int64_t> slot, item{0}, part, multi;
    std::int64_t n_parts = 0;
    std::vector<std::int64_t> der_parent, der_sibling, der_derived, slotq;
    std::int64_t rows = 0;
    for (std::size_t s = 0; s < tables.split_bin.size(); ++s) {
      const TreeNode& hn = level->host_slot(static_cast<std::int64_t>(s));
      EXPECT_EQ(tables.split_bin[s], hn.is_leaf() ? -1 : level->best[s].pos)
          << "slot " << s;
      if (hn.is_leaf()) continue;
      const std::int64_t l = level->next_slot(hn.left);
      const std::int64_t small = lq[s].cnt <= rq[s].cnt ? l : l + 1;
      const std::int64_t n = std::min({lq[s].cnt, rq[s].cnt, st.n_inst});
      const std::int64_t items = std::max<std::int64_t>(1, (n + chunk - 1) /
                                                               chunk);
      part.push_back(items > 1 ? n_parts : -1);
      if (items > 1) {
        multi.push_back(static_cast<std::int64_t>(slot.size()));
        n_parts += items;
      }
      slot.push_back(small);
      item.push_back(item.back() + items);
      der_parent.push_back(static_cast<std::int64_t>(s));
      der_sibling.push_back(small);
      der_derived.push_back(small == l ? l + 1 : l);
      for (const hist::QGH& q : {lq[s], rq[s]}) {
        slotq.insert(slotq.end(), {q.g, q.h, q.cnt});
      }
      rows += lq[s].cnt + rq[s].cnt;
    }
    const auto cols = [](std::span<const std::int64_t> c) {
      return std::vector<std::int64_t>(c.begin(), c.end());
    };
    if (leaves) {
      EXPECT_TRUE(tables.build.slot.empty());
      EXPECT_TRUE(tables.der_derived.empty());
      EXPECT_TRUE(tables.slotq.empty());
      return;
    }
    EXPECT_EQ(cols(tables.build.slot), slot);
    EXPECT_EQ(cols(tables.build.item), item);
    EXPECT_EQ(cols(tables.build.part), part);
    EXPECT_EQ(cols(tables.build.multi), multi);
    EXPECT_EQ(tables.build.n_items, item.back());
    EXPECT_EQ(tables.build.n_parts, n_parts);
    EXPECT_EQ(tables.build.chunk, chunk);
    EXPECT_EQ(cols(tables.der_parent), der_parent);
    EXPECT_EQ(cols(tables.der_sibling), der_sibling);
    EXPECT_EQ(cols(tables.der_derived), der_derived);
    EXPECT_EQ(cols(tables.slotq), slotq);
    EXPECT_EQ(tables.n_rows, std::min(rows, st.n_inst));
    // The children's dequantized statistics are the host decision's.
    for (std::size_t k = 0; k < next.size(); ++k) {
      const ActiveNode c = dequantized(0, hist::QGH{slotq[3 * k],
                                                    slotq[3 * k + 1],
                                                    slotq[3 * k + 2]});
      EXPECT_EQ(bits(c.sum_g), bits(next[k].sum_g));
      EXPECT_EQ(bits(c.sum_h), bits(next[k].sum_h));
      EXPECT_EQ(c.count, next[k].count);
    }
  }

 private:
  device::DeviceBuffer<double> d_node_val;
  device::DeviceBuffer<std::int64_t> d_node_idx;
  device::DeviceBuffer<std::int64_t> d_seg_idx;
  device::DeviceBuffer<std::uint8_t> d_seg_dir;
  device::DeviceBuffer<hist::QGH> d_seg_tot;
  device::DeviceBuffer<hist::QGH> d_scan;
  device::DeviceBuffer<std::int64_t> d_slotq;
  device::DeviceBuffer<float> d_cuts;
};

/// A splitting record of `node` on `attr` at `bin` whose high side holds
/// `prefix` of the segment's `present` rows.
HistRecord hist_split(const hist::QGH& node, std::int32_t attr,
                      std::int64_t bin, double gain, bool missing_left,
                      const hist::QGH& prefix, const hist::QGH& present) {
  return HistRecord{node, attr, bin, gain, missing_left, prefix, present};
}

// Slots 0..5 of the level at nodes 7..12: gain == gamma (a leaf), no valid
// bin (a leaf), tied gains on two attributes (both split, children in slot
// order), a slot whose every gain the feature bag masked to 0 (a leaf),
// and a split whose missing rows go left.  Chunks of 40 rows give the
// larger pairs several build items, so the multi list and partial copies
// are exercised.
TEST(DeviceDecision, HistDecisionMatchesTheHostOnHandBuiltRecords) {
  const GBDTParam p = make_param(2.5);
  Tree tree;
  for (std::int32_t id = 0; id < 6; ++id) {
    (void)tree.split(id, id % 3, 1.f + static_cast<float>(id), id % 2 == 0,
                     9.0 - id);
  }
  const hist::QGH n0{-4096, 2560, 100};
  const hist::QGH n1{3072, 1280, 60};
  const hist::QGH n2{-2048, 5120, 120};
  const hist::QGH n3{1024, 3840, 90};
  const hist::QGH n4{512, 768, 30};
  const hist::QGH n5{-6144, 7680, 150};
  HistRecord no_bin = hist_split(n1, 2, 1, 9.0, false, {}, {});
  no_bin.bin = -1;
  HistRecord masked = hist_split(n4, 1, 2, 0.0, false, {100, 200, 10},
                                 {300, 400, 20});
  const std::vector<HistRecord> recs{
      hist_split(n0, 1, 2, 2.5, false, {-1024, 512, 30}, {-4096, 2560, 100}),
      no_bin,
      hist_split(n2, 0, 1, std::nextafter(2.5, 3.0), false,
                 {-1024, 2048, 70}, {-2048, 5120, 120}),
      hist_split(n3, 2, 3, std::nextafter(2.5, 3.0), true, {512, 1024, 20},
                 {768, 2816, 70}),
      masked,
      hist_split(n5, 1, 0, 4.0, true, {-2048, 1536, 25}, {-5120, 6400, 110})};
  for (const bool leaves : {false, true}) {
    SCOPED_TRACE(leaves ? "children are leaves" : "children split on");
    const HistLevel level(p, tree, 7, recs, leaves, /*chunk=*/40);
    level.expect_same(leaves, 40);
    EXPECT_EQ(level.tables.n_slots, 6);
    EXPECT_EQ(level.tables.build.multi.empty(), leaves)
        << "the larger pairs span several build items";
    for (const std::int32_t leaf : {7, 8, 11}) {
      EXPECT_TRUE(level.level->st->nodes[static_cast<std::size_t>(leaf)]
                      .is_leaf())
          << leaf;
    }
  }
}

TEST(DeviceDecision, HistAllLeafLevelWritesNoNextTables) {
  const GBDTParam p = make_param(0.0);
  const Tree tree;
  for (const bool leaves : {false, true}) {
    SCOPED_TRACE(leaves ? "children are leaves" : "children split on");
    HistRecord masked = hist_split({-512, 2048, 40}, 0, 1, 0.0, false,
                                   {-256, 1024, 20}, {-512, 2048, 40});
    const HistLevel level(p, tree, 0, {masked}, leaves, /*chunk=*/8);
    level.expect_same(leaves, 8);
    EXPECT_EQ(level.tables.n_slots, 0);
    EXPECT_EQ(level.tables.split_bin[0], -1);
    EXPECT_TRUE(level.level->st->nodes[0].is_leaf());
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

enum class Path {
  kSparse,
  kRleDirect,
  kRleFallback,
  kSharded,  // exact method on 2 round-robin attribute shards
  kHist,
  kHistRowSharded
};

Trained train(Path path, const data::Dataset& ds, GBDTParam p) {
  obs::ObsSession session;
  session.activate();
  Trained run;
  p.use_hist_trainer = path == Path::kHist || path == Path::kHistRowSharded;
  if (path == Path::kSharded || path == Path::kHistRowSharded) {
    run.trees = multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), 2, p)
                    .train(ds)
                    .trees;
  } else if (path == Path::kHist) {
    Device dev(DeviceConfig::titan_x_pascal());
    run.trees = GpuGbdtTrainer(dev, p).train(ds).trees;
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
                          Path::kSharded}) {
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

// The histogram method decides on the device too: single-device and
// 2-shard row-sharded training each make their setup transfers plus one
// tree read-back per tree (the shards' collectives ride peer links), and
// the two train the same forest bit for bit.
TEST(DeviceDecision, HistTrainingTransfersOncePerTreeAtAnyDepth) {
  data::SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 5;
  spec.density = 0.8;
  spec.distinct_values = 40;
  spec.seed = 29;
  const auto ds = data::generate(spec);
  std::vector<std::vector<Tree>> single;
  for (const Path path : {Path::kHist, Path::kHistRowSharded}) {
    SCOPED_TRACE(path == Path::kHist ? "single device" : "2 row shards");
    std::vector<std::uint64_t> transfers;
    std::size_t run = 0;
    for (const int depth : {2, 6}) {
      for (const int trees : {3, 4}) {
        GBDTParam p = make_param(0.0);
        p.depth = depth;
        p.n_trees = trees;
        p.n_bins = 16;
        const Trained got = train(path, ds, p);
        transfers.push_back(got.transfers);
        if (depth == 6) {
          int deepest = 0;
          for (const Tree& t : got.trees) {
            deepest = std::max(deepest, t.depth());
          }
          EXPECT_GT(deepest, 2) << "the depth-6 trees must grow past depth 2";
        }
        if (path == Path::kHist) {
          single.push_back(got.trees);
          continue;
        }
        const std::vector<Tree>& want = single[run++];
        ASSERT_EQ(got.trees.size(), want.size());
        for (std::size_t t = 0; t < want.size(); ++t) {
          std::ostringstream a, b;
          got.trees[t].serialize(a);
          want[t].serialize(b);
          EXPECT_EQ(a.str(), b.str()) << "depth " << depth << " tree " << t;
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
