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

std::vector<std::size_t> pick_winners(
    TrainState& st, const SegmentWinners& w, const char* node_name,
    std::vector<BestSplit>& out) {
  const std::int64_t n_attr = st.n_attr;
  auto best_node_val = st.arena.alloc<double>(st.active.size());
  auto best_node_idx = st.arena.alloc<std::int64_t>(st.active.size());
  {
    // A slot's segments are its range of the compact list.
    obs::ScopedSpan span("setkey_argmax");
    prim::segmented_arg_max(st.dev, w.val, st.seg.slot_offsets, best_node_val,
                            best_node_idx, 1, node_name);
  }

  // Host glue over the simulated device (one entry per active node).
  std::vector<std::size_t> won;
  for (std::size_t s = 0; s < st.active.size(); ++s) {
    const std::int64_t seg = best_node_idx[s];
    if (seg < 0) continue;
    const std::int64_t pos = w.idx[static_cast<std::size_t>(seg)];
    if (pos < 0) continue;
    const double gain = best_node_val[s];
    if (!(gain > 0.0)) continue;
    BestSplit& b = out[s];
    b.valid = true;
    b.gain = gain;
    b.seg = seg;
    b.pos = pos;
    b.attr = static_cast<std::int32_t>(
        st.seg.ids[static_cast<std::size_t>(seg)] % n_attr);
    b.default_left = w.dir[static_cast<std::size_t>(seg)] != 0;
    won.push_back(s);
  }
  return won;
}

std::vector<BestSplit> find_splits_sparse(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_seg = st.seg.size();
  const std::int64_t n_attr = st.n_attr;
  const double lambda = st.param.lambda;
  std::vector<BestSplit> out(st.active.size());
  if (n == 0) return out;

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
  auto ghl = st.arena.alloc<GHPair>(static_cast<std::size_t>(n));
  auto seg_tot = st.arena.alloc<GHPair>(static_cast<std::size_t>(n_seg));
  prim::CarriedScan<GHPair> scan;
  {
    obs::ScopedSpan span("gain_prefix_sum");
    // With the dense layout (the xgbst-gpu baseline), the node-interleaved
    // gradient copies exist precisely to make this gather coalesced — that
    // is the lookup-speed advantage the paper observes for xgbst-gpu on
    // susy.  The sparse CSC layout pays truly random (g, h) fetches instead.
    const bool interleaved = st.param.dense_layout;
    auto inst = st.inst.span();
    auto gh = st.gh.span();
    scan = prim::fused_gather_scan_totals(
        dev, st.arena, st.keys, ghl, seg_tot,
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

  auto slot_stats = upload_slot_tables(st);

  // Gain of every candidate split point (paper Equation 2), evaluated inside
  // the per-segment argmax walk, which keeps only the winners.  Candidates
  // at duplicated values are suppressed so that the same split point cannot
  // carry two different gains; we keep the *last* occurrence, whose
  // inclusive prefix covers every instance with a value >= the split value
  // (this also makes the RLE path agree exactly).
  SegmentWinners w;
  w.val = st.arena.alloc<double>(static_cast<std::size_t>(n_seg));
  w.idx = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  w.dir = st.arena.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("compute_gains");
    auto v = st.values.span();
    auto tot = seg_tot.span();
    auto ids = st.seg.ids;
    auto stats = slot_stats.span();
    const auto fm = st.feature_mask;
    prim::fused_gain_argmax(
        dev, st.seg.offsets, scan, w.val, w.idx, w.dir,
        st.segs_per_block(n_seg, n),
        [v, tot, ids, stats, fm, n_attr, lambda](
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
            b.reads(stats, id / n_attr);
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
          const SlotStat& node = stats[static_cast<std::size_t>(id / n_attr)];
          b.flop(16);
          const CandidateGain c = missing_aware_gain(
              {prefix.g, prefix.h, e - seg_lo + 1},
              {tot[seg].g, tot[seg].h, seg_hi - seg_lo},
              node, lambda);
          return prim::GainDir{c.gain,
                               static_cast<std::uint8_t>(c.default_left)};
        },
        "fused_gain_argmax");
  }

  for (const std::size_t s : pick_winners(st, w, "node_best_gain", out)) {
    BestSplit& b = out[s];
    const auto useg = static_cast<std::size_t>(b.seg);
    const auto upos = static_cast<std::size_t>(b.pos);
    b.split_value = st.values[upos];
    const std::int64_t seg_lo = st.seg.offsets[useg];
    set_children(b, st.active[s], scan.at(b.pos, seg_lo), b.pos - seg_lo + 1,
                 seg_tot[useg], st.seg.offsets[useg + 1] - seg_lo);
  }
  return out;
}

void apply_mark_sides_sparse(TrainState& st, const LevelPlan& plan,
                             std::span<const std::int32_t> owner_of_node) {
  obs::ScopedSpan span("mark_sides");
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_attr = st.n_attr;

  // The split step's one upload: default children, split commands, the
  // partition's next-slot map and (sharded) the node owners.
  st.split_tables =
      upload_split_tables(st, plan, /*child_slots=*/false, owner_of_node);
  assign_default_children(st);

  // Exact side for instances present on the winning attribute: the sorted
  // prefix up to the split position goes left (high values), the rest right.
  {
    auto k = st.keys.span();
    auto ids = st.seg.ids;
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    const SplitTables& t = st.split_tables;
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
                   node_of[static_cast<std::size_t>(inst[u])] =
                       static_cast<std::int32_t>(e <= t.best_pos[slot]
                                                     ? t.left_id[slot]
                                                     : t.right_id[slot]);
                   // An instance appears once per attribute and only the
                   // winning attribute's segment writes, so these scattered
                   // stores are block-disjoint; the auditor verifies it.
                   b.writes(node_of, inst[u]);
                   ++writes;
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 for (const auto col : {t.chosen_seg, t.best_pos, t.left_id,
                                        t.right_id}) {
                   b.reads(col, 0, static_cast<std::int64_t>(col.size()));
                 }
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 8);
                 b.mem_coalesced(segs * sizeof(std::int64_t));  // ids, in order
                 b.mem_irregular(writes + m / 8);
               });
  }
}

void apply_partition_sparse(TrainState& st, const LevelPlan& plan) {
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
    auto ns = st.split_tables.next_slot;
    auto shift = st.split_tables.cand_shift;
    auto p = part_ids.span();
    dev.launch("compute_part_ids", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int64_t slot =
                       ns[static_cast<std::size_t>(node_of[static_cast<std::size_t>(inst[u])])];
                   p[u] = slot < 0
                              ? -1
                              : static_cast<std::int32_t>(
                                    k[u] + shift[static_cast<std::size_t>(slot)]);
                   b.reads(node_of, inst[u]);
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 b.reads(ns, 0, static_cast<std::int64_t>(ns.size()));
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
  const std::int64_t new_n = kept_elements(st, plan);
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

  st.values = std::move(new_values);
  st.inst = std::move(new_inst);
  st.seg = finish_next_segments(next);
  st.n_elems = new_n;
  st.keys.free();

  testing::maybe_inject_partition_fault(st);
  testing::check_sparse_layout(st, next.n_slots, "apply_partition_sparse");
}

void apply_splits_sparse(TrainState& st, const LevelPlan& plan) {
  apply_mark_sides_sparse(st, plan);
  if (plan.children_are_leaves) {
    release_working_layout(st);
  } else {
    apply_partition_sparse(st, plan);
  }
}

}  // namespace gbdt::detail
