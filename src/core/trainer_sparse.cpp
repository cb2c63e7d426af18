// Sparse-representation find-split and node-split phases (paper Section
// III-B): gather gradients into attribute order, segmented prefix sums,
// per-candidate gain with duplicate suppression and learned missing-value
// direction, SetKey segmented argmax, then the order-preserving histogram
// partition of the attribute lists.
#include <span>
#include <vector>

#include "core/trainer_detail.h"
#include "obs/trace.h"
#include "primitives/fused_split.h"
#include "primitives/partition.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt::detail {

using device::BlockCtx;
using device::Device;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

BestSplit SplitSearch::winner(BlockCtx& b, std::int64_t s,
                              const ActiveNode& node) const {
  BestSplit out;
  if (node_idx.empty()) return out;  // the level holds no elements
  const auto us = static_cast<std::size_t>(s);
  const std::int64_t seg = node_idx[us];
  b.reads(node_idx, s);
  b.mem_irregular(1);
  if (seg < 0) return out;
  const auto useg = static_cast<std::size_t>(seg);
  const std::int64_t pos = w.idx[useg];
  b.reads(w.idx, seg);
  b.mem_irregular(1);
  if (pos < 0) return out;
  const double gain = node_val[us];
  b.reads(node_val, s);
  b.mem_irregular(1);
  if (!(gain > 0.0)) return out;
  const auto upos = static_cast<std::size_t>(pos);
  out.valid = true;
  out.gain = gain;
  out.seg = seg;
  out.pos = pos;
  out.attr = static_cast<std::int32_t>(seg_ids[useg] % n_attr);
  out.default_left = w.dir[useg] != 0;
  out.split_value = pos_value[upos];
  // Element counts from positions: the identity for sparse elements, the
  // run starts for RLE runs.
  const auto elem = [this, &b](std::int64_t p) {
    if (pos_elem.empty()) return p;
    b.reads(pos_elem, p);
    b.mem_irregular(1);
    return pos_elem[static_cast<std::size_t>(p)];
  };
  const std::int64_t seg_lo = seg_pos[useg];
  const std::int64_t seg_hi = seg_pos[useg + 1];
  const std::int64_t elem_lo = elem(seg_lo);
  set_children(out, node, scan.at(pos, seg_lo), elem(pos + 1) - elem_lo,
               seg_tot[useg], elem(seg_hi) - elem_lo);
  b.reads(seg_ids, seg);
  b.reads(w.dir, seg);
  b.reads(pos_value, pos);
  b.reads(seg_pos, seg, 2);
  b.reads(seg_tot, seg);
  b.reads(scan.partial, pos);
  const bool carried = scan.carried(pos / prim::kBlockDim, seg_lo);
  if (carried) b.reads(scan.carries, pos / prim::kBlockDim);
  // id, direction, value, the segment's bounds and total, the scan value
  // and its block carry: one transaction per gathered field.
  b.mem_irregular(6 + (carried ? 1 : 0));
  return out;
}

void pick_node_winners(TrainState& st, const char* node_name) {
  SplitSearch& f = st.search;
  const auto n_slots = static_cast<std::size_t>(st.n_slots);
  f.node_val = st.arena.alloc<double>(n_slots);
  f.node_idx = st.arena.alloc<std::int64_t>(n_slots);
  // A slot's segments are its range of the compact list.
  obs::ScopedSpan span("setkey_argmax");
  prim::segmented_arg_max(st.dev, f.w.val, st.seg.slot_offsets, f.node_val,
                          f.node_idx, 1, node_name);
}

void assemble_winners(TrainState& st, std::span<BestSplit> out, int n_shards,
                      int shard) {
  const std::int64_t n_slots = st.n_slots;
  const std::int64_t base = st.level_base;
  const auto nodes = std::span<const TreeNode>(st.nodes.span());
  const SplitSearch& f = st.search;
  st.dev.launch("assemble_winners", device::grid_for(n_slots, kBlockDim),
                kBlockDim, [&](BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t s) {
                    if (s >= n_slots) return;
                    const auto id = static_cast<std::size_t>(base + s);
                    const TreeNode& tn = nodes[id];
                    BestSplit w = f.winner(
                        b, s,
                        ActiveNode{static_cast<std::int32_t>(id), tn.sum_g,
                                   tn.sum_h, tn.n_instances});
                    if (w.valid) {
                      w.attr = w.attr * n_shards + shard;
                      w.owner = shard;
                    }
                    out[static_cast<std::size_t>(s)] = w;
                  });
                  b.reads(nodes, base + b.block_idx() * kBlockDim,
                          elems_in_block(b, n_slots));
                  b.writes_tile(out, n_slots);
                  const auto m = elems_in_block(b, n_slots);
                  b.mem_irregular(m);  // the slots' node records
                  b.mem_coalesced(m * sizeof(BestSplit));
                });
}

void find_splits_sparse(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_seg = st.seg.size();
  const std::int64_t n_attr = st.n_attr;
  const double lambda = st.param.lambda;
  SplitSearch& f = st.search;
  f = SplitSearch{};
  if (n == 0) return;

  // Segment key per element (Customized SetKey / naive one-block-per-seg).
  // Keys stay materialized: they are cheap to write, the scan reads them,
  // and the apply phase reuses them.
  st.keys = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    obs::ScopedSpan span("set_key");
    prim::set_keys(dev, st.seg.offsets, st.keys, st.segs_per_block(n_seg, n));
  }

  // g/h in attribute order, then one fused segmented prefix sum (Figure 1).
  // The scan's first phase pulls each (g, h) pair straight from the
  // gradient pairs (no gathered array), emits the per-segment present totals
  // as a side product, and leaves the block carries for its readers to add
  // (no fixup pass).
  f.partial = st.arena.alloc<GHPair>(static_cast<std::size_t>(n));
  f.seg_tot = st.arena.alloc<GHPair>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("gain_prefix_sum");
    // With the dense layout (the xgbst-gpu baseline), the node-interleaved
    // gradient copies exist precisely to make this gather coalesced — that
    // is the lookup-speed advantage the paper observes for xgbst-gpu on
    // susy.  The sparse CSC layout pays truly random (g, h) fetches instead.
    const bool interleaved = st.param.dense_layout;
    auto inst = st.inst.span();
    auto gh = st.gh.span();
    f.scan = prim::fused_gather_scan_totals(
        dev, st.arena, st.keys, f.partial, f.seg_tot,
        [inst, gh, interleaved](BlockCtx& b, std::int64_t i) {
          const auto u = static_cast<std::size_t>(i);
          b.reads(inst, i);
          b.reads(gh, inst[u]);
          b.mem_coalesced(sizeof(std::int32_t));
          // One random pair fetch per element; a quarter of that when the
          // interleaved copies coalesce four neighbours.
          b.mem_irregular(interleaved ? (i % 4 == 0 ? 1 : 0) : 1);
          return gh[static_cast<std::size_t>(inst[u])];
        },
        "fused_gather_seg_scan");
  }

  // Gain of every candidate split point (paper Equation 2), evaluated inside
  // the per-segment argmax walk, which keeps only the winners.  Candidates
  // at duplicated values are suppressed so that the same split point cannot
  // carry two different gains; we keep the *last* occurrence, whose
  // inclusive prefix covers every instance with a value >= the split value
  // (this also makes the RLE path agree exactly).
  SegmentWinners& w = f.w;
  w.val = st.arena.alloc<double>(static_cast<std::size_t>(n_seg));
  w.idx = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  w.dir = st.arena.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("compute_gains");
    auto v = st.values.span();
    auto tot = f.seg_tot.span();
    auto ids = st.seg.ids;
    const auto stats = std::span<const TreeNode>(st.nodes.span());
    const std::int64_t base = st.level_base;
    const auto fm = st.feature_mask;
    prim::fused_gain_argmax(
        dev, st.seg.offsets, f.scan, w.val, w.idx, w.dir,
        st.segs_per_block(n_seg, n),
        [v, tot, ids, stats, base, fm, n_attr, lambda](
            BlockCtx& b, std::int64_t s, std::int64_t e, std::int64_t seg_lo,
            std::int64_t seg_hi, const GHPair& prefix) {
          const auto u = static_cast<std::size_t>(e);
          const std::int64_t id = ids[static_cast<std::size_t>(s)];
          b.reads(v, e);
          b.mem_coalesced(sizeof(float));  // v, streamed
          if (e == seg_lo) {
            // Segment-invariant loads: the walk fetches the segment's id and
            // total and the packed slot stats once and keeps them in
            // registers for the rest of the segment — this, not the
            // arithmetic, is what fusing the gains into the argmax walk saves
            // over a per-element pass.
            b.reads(ids, s);
            b.reads(tot, s);
            b.reads(stats, base + id / n_attr);
            if (!fm.empty()) b.reads(fm, id % n_attr);
            b.mem_coalesced(sizeof(std::int64_t));  // id, streamed
            b.mem_irregular(1);
          }
          // Attributes outside this tree's feature bag yield no splits
          // (mask, not compaction: the segment layout is untouched).
          if (!fm.empty() && fm[static_cast<std::size_t>(id % n_attr)] == 0) {
            return prim::GainDir{};
          }
          // Duplicate suppression (paper Section III-B step ii): a zero gain
          // loses to any positive candidate.
          if (e + 1 < seg_hi) {
            b.reads(v, e + 1);
            b.mem_coalesced(sizeof(float));
            if (v[u + 1] == v[u]) return prim::GainDir{};
          }
          const auto seg = static_cast<std::size_t>(s);
          const TreeNode& node =
              stats[static_cast<std::size_t>(base + id / n_attr)];
          b.flop(16);
          const CandidateGain c = missing_aware_gain(
              {prefix.g, prefix.h, e - seg_lo + 1},
              {tot[seg].g, tot[seg].h, seg_hi - seg_lo},
              {node.sum_g, node.sum_h, node.n_instances}, lambda);
          return prim::GainDir{c.gain,
                               static_cast<std::uint8_t>(c.default_left)};
        },
        "fused_gain_argmax");
  }

  pick_node_winners(st, "node_best_gain");
  f.seg_ids = st.seg.ids;
  f.seg_pos = st.seg.offsets;
  f.pos_value = st.values.span();
  f.n_attr = n_attr;
}

void apply_mark_sides_sparse(TrainState& st) {
  obs::ScopedSpan span("mark_sides");
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_attr = st.n_attr;

  assign_default_children(st);

  // Exact side for instances present on the winning attribute: the sorted
  // prefix up to the split position goes left (high values), the rest right.
  {
    auto k = st.keys.span();
    auto ids = st.seg.ids;
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    const SplitTables& t = st.split_tables;
    const auto slots = std::span<const TreeNode>(st.nodes.span())
                           .subspan(static_cast<std::size_t>(st.level_base),
                                    static_cast<std::size_t>(st.n_slots));
    dev.launch("assign_exact_side", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 std::uint64_t writes = 0;
                 std::uint64_t segs = 0;
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int64_t seg = k[u];
                   if (e == b.block_idx() * kBlockDim || k[u - 1] != seg) {
                     b.reads(ids, seg);
                     ++segs;  // one id load per segment of the tile
                   }
                   const auto slot = static_cast<std::size_t>(
                       ids[static_cast<std::size_t>(seg)] / n_attr);
                   if (t.chosen_seg[slot] != seg) return;
                   // Left child: the high side, the sorted prefix.
                   const std::int32_t left = slots[slot].left;
                   node_of[static_cast<std::size_t>(inst[u])] =
                       e <= t.best_pos[slot] ? left : left + 1;
                   // An instance appears once per attribute and only the
                   // winning attribute's segment writes, so these scattered
                   // stores are block-disjoint; the auditor verifies it.
                   b.writes(node_of, inst[u]);
                   ++writes;
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 b.reads(t.chosen_seg, 0,
                         static_cast<std::int64_t>(t.chosen_seg.size()));
                 b.reads(t.best_pos, 0,
                         static_cast<std::int64_t>(t.best_pos.size()));
                 b.reads(slots, 0, static_cast<std::int64_t>(slots.size()));
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 8);
                 b.mem_coalesced(segs * sizeof(std::int64_t));  // ids, in order
                 b.mem_irregular(writes + m / 8);
               });
  }
}

void apply_partition_sparse(TrainState& st) {
  obs::ScopedSpan span("partition");
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;

  // Partition ids: the element's candidate segment, its key shifted into
  // the next slot of its instance's node; -1 drops the elements of nodes
  // that became leaves.
  const std::int64_t n_parts = st.split_tables.n_candidates;
  auto part_ids = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    auto k = st.keys.span();
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    const SplitTables& t = st.split_tables;
    auto shift = t.cand_shift;
    auto p = part_ids.span();
    dev.launch("compute_part_ids", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int64_t slot =
                       t.next_slot(node_of[static_cast<std::size_t>(inst[u])]);
                   p[u] = slot < 0
                              ? -1
                              : static_cast<std::int32_t>(
                                    k[u] + shift[static_cast<std::size_t>(slot)]);
                   b.reads(node_of, inst[u]);
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 b.reads(shift, 0, static_cast<std::int64_t>(shift.size()));
                 b.writes_tile(p, n);
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 12);
                 b.mem_irregular(m);  // node_of[inst[e]]
               });
  }

  // Order-preserving histogram partition (paper Figures 2-3) whose replay
  // pass moves each kept element's value and instance id straight to its
  // destination, and which lists the non-empty candidates as the next
  // level's segment table.
  const auto pplan = prim::plan_partition(
      n, n_parts, prim::kPartitionCounterBudget,
      st.param.use_custom_idxcomp_workload);
  const std::int64_t new_n = st.split_tables.kept;
  prim::PartitionCounters counters(dev, pplan, &st.arena);
  NextSegments next = begin_next_segments(st, /*keep_candidates=*/false);
  auto new_values = st.arena.alloc<float>(static_cast<std::size_t>(new_n));
  auto new_inst = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(new_n));
  {
    auto v = st.values.span();
    auto inst = st.inst.span();
    auto nv = new_values.span();
    auto ni = new_inst.span();
    prim::histogram_partition_emit(
        dev, part_ids.span(), n_parts, next.list, pplan, counters,
        [v, inst, nv, ni](BlockCtx& b, std::int64_t e, std::int64_t dst) {
          if (dst < 0) return;
          const auto u = static_cast<std::size_t>(e);
          const auto d = static_cast<std::size_t>(dst);
          nv[d] = v[u];
          ni[d] = inst[u];
          // Destinations are unique by construction of the order-preserving
          // partition; the auditor verifies it.
          b.reads(v, e);
          b.reads(inst, e);
          b.writes(nv, dst);
          b.writes(ni, dst);
          b.mem_coalesced(sizeof(float) + sizeof(std::int32_t));
          b.mem_irregular(e % 4 == 0 ? 1 : 0);  // scatter fronts
        },
        next.namer(st));
  }
  st.split_tables = {};

  st.seg = finish_next_segments(next);
  testing::maybe_inject_partition_fault(st.seg.offsets, new_values.span());
  st.values = std::move(new_values);
  st.inst = std::move(new_inst);
  st.n_elems = new_n;
  st.keys.free();

  testing::check_sparse_layout(st, next.n_slots, "apply_partition_sparse");
}

void apply_splits_sparse(TrainState& st, bool children_are_leaves) {
  apply_mark_sides_sparse(st);
  if (children_are_leaves) {
    release_working_layout(st);
  } else {
    apply_partition_sparse(st);
  }
}

}  // namespace gbdt::detail
