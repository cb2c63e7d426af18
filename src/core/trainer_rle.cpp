// RLE-path find-split and node-split phases (paper Section III-C).
//
// Candidate split points are RLE elements (runs), not individual attribute
// values: the per-run aggregated derivatives g-breve / h-breve (Figure 5)
// feed the same segmented-scan + gain machinery, the duplicated-split-point
// problem disappears by construction, and nodes are split either by the
// Directly-Split-RLE technique (Figure 7: pre-allocate two children per run,
// compact zero-length runs by prefix sum) or by the decompress - partition -
// recompress fallback (Figure 6).
#include <span>
#include <vector>

#include "core/trainer_detail.h"
#include "obs/trace.h"
#include "primitives/fused_split.h"
#include "primitives/partition.h"
#include "primitives/scan.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "rle/rle.h"
#include "testing/invariants.h"

namespace gbdt::detail {

using device::BlockCtx;
using device::Device;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

void find_splits_rle(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n_runs = st.n_runs;
  const std::int64_t n_seg = st.seg.size();
  const std::int64_t n_attr = st.n_attr;
  const double lambda = st.param.lambda;
  SplitSearch& f = st.search;
  f = SplitSearch{};
  if (n_runs == 0) return;

  st.run_keys = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n_runs));
  {
    obs::ScopedSpan span("set_key");
    prim::set_keys(dev, st.run_seg_offsets, st.run_keys,
                   st.segs_per_block(n_seg, n_runs));
  }

  // Per-run aggregated derivatives (paper Figure 5: the gradients of all
  // instances sharing the run's attribute value are added) + segmented
  // prefix sum + present totals.  The aggregation runs inside the scan's
  // first phase (no per-run array), the totals come out as a scan side
  // product, and the block carries are left for their readers to add (no
  // fixup pass).
  f.partial = st.arena.alloc<GHPair>(static_cast<std::size_t>(n_runs));
  f.seg_tot = st.arena.alloc<GHPair>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan prefix_span("gain_prefix_sum");
    auto starts = st.run_starts.span();
    auto inst = st.inst.span();
    auto gh = st.gh.span();
    f.scan = prim::fused_gather_scan_totals(
        dev, st.arena, st.run_keys, f.partial, f.seg_tot,
        [starts, inst, gh](BlockCtx& b, std::int64_t r) {
          const auto u = static_cast<std::size_t>(r);
          GHPair sum;
          b.reads(starts, r, 2);
          b.reads(inst, starts[u], starts[u + 1] - starts[u]);
          std::uint64_t len = 0;
          for (std::int64_t e = starts[u]; e < starts[u + 1]; ++e) {
            const std::int32_t x = inst[static_cast<std::size_t>(e)];
            b.reads(gh, x);
            sum += gh[static_cast<std::size_t>(x)];
            ++len;
          }
          b.work(len);
          b.mem_coalesced(len * 4 + 16);  // inst stream + run starts
          b.mem_irregular(len);           // (g, h) pair gathers
          return sum;
        },
        "fused_rle_aggregate_seg_scan");
  }

  // Gain per run, evaluated inside the per-segment argmax walk, which keeps
  // only the winners: no duplicate suppression needed — adjacent runs inside
  // a segment always carry distinct values.
  SegmentWinners& w = f.w;
  w.val = st.arena.alloc<double>(static_cast<std::size_t>(n_seg));
  w.idx = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  w.dir = st.arena.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("compute_gains");
    auto starts = st.run_starts.span();
    auto tot = f.seg_tot.span();
    auto ids = st.seg.ids;
    const auto stats = std::span<const TreeNode>(st.nodes.span());
    const std::int64_t base = st.level_base;
    const auto fm = st.feature_mask;
    prim::fused_gain_argmax(
        dev, st.run_seg_offsets, f.scan, w.val, w.idx, w.dir,
        st.segs_per_block(n_seg, n_runs),
        [starts, tot, ids, stats, base, fm, n_attr, lambda](
            BlockCtx& b, std::int64_t s, std::int64_t r, std::int64_t run_lo,
            std::int64_t run_hi, const GHPair& prefix) {
          const auto u = static_cast<std::size_t>(r);
          const auto seg = static_cast<std::size_t>(s);
          const std::int64_t id = ids[seg];
          b.reads(starts, r + 1);
          b.mem_coalesced(sizeof(std::int64_t));  // next-run start, streamed
          b.flop(16);
          if (r == run_lo) {
            // Segment-invariant loads: the id, totals, packed slot stats,
            // and the segment's element bounds are fetched once per segment
            // and held in registers across the walk.
            b.reads(ids, s);
            b.reads(tot, s);
            b.reads(stats, base + id / n_attr);
            b.reads(starts, run_lo);
            b.reads(starts, run_hi);
            if (!fm.empty()) b.reads(fm, id % n_attr);
            b.mem_coalesced(16 + sizeof(std::int64_t));
            b.mem_irregular(1);
          }
          // Attributes outside this tree's feature bag yield no splits
          // (mask, not compaction: the run layout is untouched).
          if (!fm.empty() && fm[static_cast<std::size_t>(id % n_attr)] == 0) {
            return prim::GainDir{};
          }
          const std::int64_t elem_lo =
              starts[static_cast<std::size_t>(run_lo)];
          const std::int64_t elem_hi =
              starts[static_cast<std::size_t>(run_hi)];
          const TreeNode& node =
              stats[static_cast<std::size_t>(base + id / n_attr)];
          const CandidateGain c = missing_aware_gain(
              {prefix.g, prefix.h, starts[u + 1] - elem_lo},
              {tot[seg].g, tot[seg].h, elem_hi - elem_lo},
              {node.sum_g, node.sum_h, node.n_instances}, lambda);
          return prim::GainDir{c.gain,
                               static_cast<std::uint8_t>(c.default_left)};
        },
        "fused_rle_gain_argmax");
  }

  pick_node_winners(st, "rle_node_best_gain");
  f.seg_ids = st.seg.ids;
  f.seg_pos = st.run_seg_offsets.span();
  f.pos_elem = st.run_starts.span();
  f.pos_value = st.run_values.span();
  f.n_attr = n_attr;
}

namespace {

/// Exact side assignment through the runs of the winning segments: the
/// sorted prefix of runs up to the split position goes left.
void assign_exact_side_rle(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n_runs = st.n_runs;
  const std::int64_t n_attr = st.n_attr;
  const SplitTables& t = st.split_tables;
  {
    auto k = st.run_keys.span();
    auto ids = st.seg.ids;
    auto starts = st.run_starts.span();
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    const auto slots = std::span<const TreeNode>(st.nodes.span())
                           .subspan(static_cast<std::size_t>(st.level_base),
                                    static_cast<std::size_t>(st.n_slots));
    dev.launch("rle_assign_exact_side", device::grid_for(n_runs, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 std::uint64_t writes = 0;
                 std::uint64_t segs = 0;
                 b.for_each_thread([&](std::int64_t r) {
                   if (r >= n_runs) return;
                   const auto u = static_cast<std::size_t>(r);
                   const std::int64_t seg = k[u];
                   if (r == b.block_idx() * kBlockDim || k[u - 1] != seg) {
                     b.reads(ids, seg);
                     ++segs;  // one id load per segment of the tile
                   }
                   const auto slot = static_cast<std::size_t>(
                       ids[static_cast<std::size_t>(seg)] / n_attr);
                   if (t.chosen_seg[slot] != seg) return;
                   // Left child: the high side, the sorted prefix of runs.
                   const std::int32_t left = slots[slot].left;
                   const std::int32_t target =
                       r <= t.best_pos[slot] ? left : left + 1;
                   b.reads(inst, starts[u], starts[u + 1] - starts[u]);
                   for (std::int64_t e = starts[u]; e < starts[u + 1]; ++e) {
                     node_of[static_cast<std::size_t>(
                         inst[static_cast<std::size_t>(e)])] = target;
                     // An instance appears in exactly one run of the chosen
                     // segment and nodes own disjoint instance sets, so the
                     // scattered stores are block-disjoint; the auditor
                     // verifies it.
                     b.writes(node_of, inst[static_cast<std::size_t>(e)]);
                     ++writes;
                   }
                 });
                 b.reads_tile(k, n_runs);
                 b.reads_tile(starts, n_runs + 1);
                 b.reads(t.chosen_seg, 0,
                         static_cast<std::int64_t>(t.chosen_seg.size()));
                 b.reads(t.best_pos, 0,
                         static_cast<std::int64_t>(t.best_pos.size()));
                 b.reads(slots, 0, static_cast<std::int64_t>(slots.size()));
                 b.work(writes);
                 b.mem_coalesced(elems_in_block(b, n_runs) * 24 + writes * 4 +
                                 segs * sizeof(std::int64_t));  // ids
                 b.mem_irregular(writes);
               });
  }
}

/// Element-domain result of one RLE partition.
struct RlePartition {
  NextSegments next;  // the listed next-level segment table
  // Directly-Split-RLE: each old run's left/right child lengths.
  device::ArenaBuffer<std::int64_t> len_l;
  device::ArenaBuffer<std::int64_t> len_r;
  // Decompress fallback: each old element's destination (-1 = dropped).
  device::ArenaBuffer<std::int64_t> scatter;
};

/// Per-element partition ids and the order-preserving partition of the
/// (uncompressed) instance ids; st.inst is replaced.  Must run after the
/// exact-side assignment.  Directly-Split-RLE's partition moves the instance
/// ids itself, and its part-id pass also counts each run's left/right child
/// lengths (paper Figure 7 middle row): the counting must see the *old*
/// element domain, and fusing it here avoids a second irregular sweep over
/// the instance ids.  The decompress fallback keeps the scatter index, which
/// also moves the values it decompresses next.  Both list the non-empty
/// candidates as the next level's segment table (part.next).
RlePartition partition_instances_rle(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n_runs = st.n_runs;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_attr = st.n_attr;
  const bool direct = st.param.use_direct_rle_split;
  RlePartition out;
  if (direct) {
    out.len_l = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_runs));
    out.len_r = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_runs));
  }

  // Partition ids in the element domain: the run's candidate segment in its
  // element's next slot.
  const std::int64_t n_parts = st.split_tables.n_candidates;
  auto part_ids = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    auto k = st.run_keys.span();
    auto ids = st.seg.ids;
    auto starts = st.run_starts.span();
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    const SplitTables& t = st.split_tables;
    auto shift = t.cand_shift;
    auto p = part_ids.span();
    const auto slots = std::span<const TreeNode>(st.nodes.span())
                           .subspan(static_cast<std::size_t>(st.level_base),
                                    static_cast<std::size_t>(st.n_slots));
    auto ll = out.len_l.span();
    auto lr = out.len_r.span();
    dev.launch("rle_compute_part_ids", device::grid_for(n_runs, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 std::uint64_t touched = 0;
                 b.for_each_thread([&](std::int64_t r) {
                   if (r >= n_runs) return;
                   const auto u = static_cast<std::size_t>(r);
                   std::int64_t cl = 0, cr = 0;
                   // Directly-Split-RLE: the next slot of the run's left
                   // child (its right child's is one more), or -1.
                   std::int64_t left_slot = -1;
                   if (direct) {
                     b.reads(ids, k[u]);
                     const auto old_slot = static_cast<std::size_t>(
                         ids[static_cast<std::size_t>(k[u])] / n_attr);
                     b.reads(slots, static_cast<std::int64_t>(old_slot));
                     left_slot = slots[old_slot].is_leaf()
                                     ? -1
                                     : t.next_slot(slots[old_slot].left);
                   }
                   b.reads(inst, starts[u], starts[u + 1] - starts[u]);
                   b.writes(p, starts[u], starts[u + 1] - starts[u]);
                   for (std::int64_t e = starts[u]; e < starts[u + 1]; ++e) {
                     const auto eu = static_cast<std::size_t>(e);
                     b.reads(node_of, inst[eu]);
                     const std::int64_t ns = t.next_slot(
                         node_of[static_cast<std::size_t>(inst[eu])]);
                     p[eu] = ns < 0
                                 ? -1
                                 : static_cast<std::int32_t>(
                                       k[u] + shift[static_cast<std::size_t>(ns)]);
                     if (left_slot >= 0) {
                       cl += ns == left_slot;
                       cr += ns == left_slot + 1;
                     }
                     ++touched;
                   }
                   if (direct) {
                     ll[u] = cl;
                     lr[u] = cr;
                     b.writes(ll, r);
                     b.writes(lr, r);
                   }
                 });
                 b.reads_tile(k, n_runs);
                 b.reads_tile(starts, n_runs + 1);
                 b.reads(shift, 0, static_cast<std::int64_t>(shift.size()));
                 b.work(touched);
                 // The run's segment id rides with its key (the runs of one
                 // segment are adjacent, so the id loads coalesce).
                 b.mem_coalesced(touched * 8 +
                                 elems_in_block(b, n_runs) *
                                     (direct ? 32 : 24));
                 b.mem_irregular(touched);
               });
  }

  const auto pplan = prim::plan_partition(
      n, n_parts, prim::kPartitionCounterBudget,
      st.param.use_custom_idxcomp_workload);
  prim::PartitionCounters counters(dev, pplan, &st.arena);
  out.next = begin_next_segments(st, /*keep_candidates=*/direct);
  if (direct) {
    const std::int64_t new_n = st.split_tables.kept;
    auto new_inst =
        st.arena.alloc<std::int32_t>(static_cast<std::size_t>(new_n));
    auto inst = st.inst.span();
    auto ni = new_inst.span();
    prim::histogram_partition_emit(
        dev, part_ids.span(), n_parts, out.next.list, pplan, counters,
        [inst, ni](BlockCtx& b, std::int64_t e, std::int64_t dst) {
          if (dst < 0) return;
          ni[static_cast<std::size_t>(dst)] = inst[static_cast<std::size_t>(e)];
          // Destinations are unique by construction of the order-preserving
          // partition; the auditor verifies it.
          b.reads(inst, e);
          b.writes(ni, dst);
          b.mem_coalesced(sizeof(std::int32_t));
          b.mem_irregular(e % 4 == 0 ? 1 : 0);  // scatter fronts
        },
        out.next.namer(st));
    st.inst = std::move(new_inst);
    st.n_elems = new_n;
    return out;
  }

  out.scatter = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  {
    auto sc = out.scatter.span();
    prim::histogram_partition_emit(
        dev, part_ids.span(), n_parts, out.next.list, pplan, counters,
        [sc](BlockCtx& b, std::int64_t e, std::int64_t dst) {
          sc[static_cast<std::size_t>(e)] = dst;
          b.writes(sc, e);
          b.mem_coalesced(sizeof(std::int64_t));
        },
        out.next.namer(st));
  }
  const std::int64_t new_n =
      out.next.list.offsets[static_cast<std::size_t>(out.next.list.size)];
  auto new_inst = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(new_n));
  {
    auto inst = st.inst.span();
    auto sc = out.scatter.span();
    auto ni = new_inst.span();
    dev.launch("rle_scatter_inst", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   if (sc[u] >= 0) {
                     ni[static_cast<std::size_t>(sc[u])] = inst[u];
                     // Scatter targets are unique by construction of the
                     // order-preserving partition; the auditor verifies it.
                     b.writes(ni, sc[u]);
                   }
                 });
                 b.reads_tile(inst, n);
                 b.reads_tile(sc, n);
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 12);
                 b.mem_irregular(m / 4 + 1);
               });
  }
  st.inst = std::move(new_inst);
  st.n_elems = new_n;
  return out;
}

/// Directly-Split-RLE (paper Figure 7): every run of a splitting node
/// pre-allocates a left and a right child run with the precomputed child
/// lengths; zero-length runs are removed by prefix-sum compaction.  Each
/// child segment's candidate runs are its parent segment's runs, so a run's
/// two candidate positions follow from O(slots) shifts (st.split_tables).
void direct_split_runs(TrainState& st, RlePartition& part) {
  auto& dev = st.dev;
  const std::int64_t n_runs = st.n_runs;
  const std::int64_t n_attr = st.n_attr;
  const SplitTables& t = st.split_tables;
  const std::int64_t total_cand = t.n_candidate_runs;
  const auto& len_l = part.len_l;
  const auto& len_r = part.len_r;

  // Pre-allocate the two child runs of every run (Figure 7 middle row): a
  // length, a keep flag and a value per candidate.  The candidates are
  // exactly both children's copies of each splitting slot's runs
  // (decide_on_device sizes them so), so every position is written.
  auto cand_len =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(total_cand));
  auto cand_val = st.arena.alloc<float>(static_cast<std::size_t>(total_cand));
  auto keep =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(total_cand));
  {
    auto k = st.run_keys.span();
    auto ids = st.seg.ids;
    auto rv = st.run_values.span();
    const auto slots = std::span<const TreeNode>(st.nodes.span())
                           .subspan(static_cast<std::size_t>(st.level_base),
                                    static_cast<std::size_t>(st.n_slots));
    auto shift = t.run_shift;
    auto ll = len_l.span();
    auto lr = len_r.span();
    auto cl = cand_len.span();
    auto cv = cand_val.span();
    auto f = keep.span();
    dev.launch("rle_emit_candidates", device::grid_for(n_runs, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t r) {
                   if (r >= n_runs) return;
                   const auto u = static_cast<std::size_t>(r);
                   b.reads(ids, k[u]);
                   const auto slot = static_cast<std::size_t>(
                       ids[static_cast<std::size_t>(k[u])] / n_attr);
                   b.reads(slots, static_cast<std::int64_t>(slot));
                   if (slots[slot].is_leaf()) return;  // leaf: runs dropped
                   const std::int64_t ls = t.next_slot(slots[slot].left);
                   const auto lpos = static_cast<std::size_t>(
                       r + shift[static_cast<std::size_t>(ls)]);
                   const auto rpos = static_cast<std::size_t>(
                       r + shift[static_cast<std::size_t>(ls + 1)]);
                   cl[lpos] = ll[u];
                   f[lpos] = ll[u] > 0 ? 1 : 0;
                   cv[lpos] = rv[u];
                   cl[rpos] = lr[u];
                   f[rpos] = lr[u] > 0 ? 1 : 0;
                   cv[rpos] = rv[u];
                   // Each run owns one candidate position in each child
                   // slot, so the scattered candidate writes are
                   // block-disjoint; the auditor verifies it.
                   for (const auto pos : {lpos, rpos}) {
                     b.writes(cl, static_cast<std::int64_t>(pos));
                     b.writes(f, static_cast<std::int64_t>(pos));
                     b.writes(cv, static_cast<std::int64_t>(pos));
                   }
                 });
                 b.reads_tile(k, n_runs);
                 b.reads_tile(rv, n_runs);
                 b.reads_tile(ll, n_runs);
                 b.reads_tile(lr, n_runs);
                 b.reads(shift, 0, static_cast<std::int64_t>(shift.size()));
                 const auto m = elems_in_block(b, n_runs);
                 // The run's fields and segment id, and the two keep flags,
                 // which follow their lengths' stores.
                 b.mem_coalesced(m * (44 + 2 * sizeof(std::int64_t)));
                 b.mem_irregular(m * 2);  // the two candidate writes
               });
  }

  // Remove zero-length runs with a prefix sum (Figure 7 bottom row).
  auto new_idx =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(total_cand));
  prim::exclusive_scan(dev, keep, new_idx, "rle_compact_scan", &st.arena);
  const std::int64_t n_new_runs =
      total_cand == 0
          ? 0
          : new_idx[static_cast<std::size_t>(total_cand - 1)] +
                keep[static_cast<std::size_t>(total_cand - 1)];

  auto new_val = st.arena.alloc<float>(static_cast<std::size_t>(n_new_runs));
  auto new_len =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_new_runs));
  {
    auto cl = cand_len.span();
    auto cv = cand_val.span();
    auto f = keep.span();
    auto ni = new_idx.span();
    auto nv = new_val.span();
    auto nl = new_len.span();
    dev.launch("rle_compact_runs", device::grid_for(total_cand, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t c) {
                   if (c >= total_cand) return;
                   const auto u = static_cast<std::size_t>(c);
                   if (f[u] != 0) {
                     const auto dst = static_cast<std::size_t>(ni[u]);
                     nv[dst] = cv[u];
                     nl[dst] = cl[u];
                     // Compaction indices are a strictly increasing scan of
                     // the flags, so each destination has one writer; the
                     // auditor verifies it.
                     b.writes(nv, ni[u]);
                     b.writes(nl, ni[u]);
                   }
                 });
                 b.reads_tile(cl, total_cand);
                 b.reads_tile(cv, total_cand);
                 b.reads_tile(f, total_cand);
                 b.reads_tile(ni, total_cand);
                 b.mem_coalesced(elems_in_block(b, total_cand) * 40);
               });
  }

  // New run starts: exclusive scan of the surviving lengths, then the end.
  auto new_starts =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_new_runs) + 1);
  if (n_new_runs > 0) {
    auto body = new_starts.span().first(static_cast<std::size_t>(n_new_runs));
    prim::exclusive_scan(dev, new_len, body, "rle_new_starts_scan", &st.arena);
    new_starts[static_cast<std::size_t>(n_new_runs)] =
        new_starts[static_cast<std::size_t>(n_new_runs - 1)] +
        new_len[static_cast<std::size_t>(n_new_runs - 1)];
  } else {
    new_starts[0] = 0;
  }

  // New segment offsets in the run domain, one per listed segment: its
  // first candidate run is its parent segment's first run, shifted into the
  // segment's next slot.
  const std::int64_t n_new_seg = part.next.list.size;
  auto new_seg_off =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_new_seg) + 1);
  {
    auto cand = part.next.cand;
    auto nid = part.next.ids;
    auto cshift = t.cand_shift;
    auto rshift = t.run_shift;
    auto roff = st.run_seg_offsets.span();
    auto ni = new_idx.span();
    auto so = new_seg_off.span();
    dev.launch("rle_new_seg_offsets", device::grid_for(n_new_seg + 1, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t s) {
                   if (s > n_new_seg) return;
                   const auto u = static_cast<std::size_t>(s);
                   if (s == n_new_seg) {
                     so[u] = n_new_runs;
                   } else {
                     const auto ns = static_cast<std::size_t>(nid[u] / n_attr);
                     const std::int64_t parent = cand[u] - cshift[ns];
                     const std::int64_t base =
                         roff[static_cast<std::size_t>(parent)] + rshift[ns];
                     b.reads(cand, s);
                     b.reads(nid, s);
                     b.reads(cshift, static_cast<std::int64_t>(ns));
                     b.reads(rshift, static_cast<std::int64_t>(ns));
                     b.reads(roff, parent);
                     b.reads(ni, base);
                     so[u] = ni[static_cast<std::size_t>(base)];
                   }
                   b.writes(so, s);
                 });
                 // Listed segments and their parents both ascend, so the
                 // per-segment columns stream; the scan value at each
                 // segment's first candidate run is a gather.
                 const auto m = elems_in_block(b, n_new_seg + 1);
                 b.mem_coalesced(m * 32);
                 b.mem_irregular(m);
               });
  }

  st.run_values = std::move(new_val);
  st.run_starts = std::move(new_starts);
  st.run_seg_offsets = std::move(new_seg_off);
  st.n_runs = n_new_runs;
}

/// Decompress -> partition -> recompress fallback (paper Figure 6).  The
/// repeated (de)compression every level is the cost Directly-Split-RLE
/// avoids; Figure 9 quantifies the difference.
void decompress_split_runs(TrainState& st, RlePartition& part,
                           std::int64_t old_n_elems) {
  auto& dev = st.dev;
  const auto& scatter = part.scatter;
  const std::int64_t n_runs = st.n_runs;

  // Decompress the runs into the (old) element domain.
  auto old_values =
      st.arena.alloc<float>(static_cast<std::size_t>(old_n_elems));
  {
    auto rv = st.run_values.span();
    auto rs = st.run_starts.span();
    auto o = old_values.span();
    dev.launch("rle_split_decompress", device::grid_for(n_runs, kBlockDim),
               kBlockDim, [&](BlockCtx& b) {
                 std::uint64_t written = 0;
                 b.for_each_thread([&](std::int64_t r) {
                   if (r >= n_runs) return;
                   const auto u = static_cast<std::size_t>(r);
                   for (std::int64_t e = rs[u]; e < rs[u + 1]; ++e) {
                     o[static_cast<std::size_t>(e)] = rv[u];
                   }
                   b.writes(o, rs[u], rs[u + 1] - rs[u]);
                   written += static_cast<std::uint64_t>(rs[u + 1] - rs[u]);
                 });
                 b.reads_tile(rv, n_runs);
                 b.reads_tile(rs, n_runs + 1);
                 b.work(written);
                 b.mem_coalesced(written * 4 + elems_in_block(b, n_runs) * 20);
               });
  }

  // Partition the decompressed values with the scatter already computed for
  // the instance ids (same element order).
  const std::int64_t new_n = st.n_elems;  // updated by partition_instances_rle
  auto new_values = st.arena.alloc<float>(static_cast<std::size_t>(new_n));
  {
    auto v = old_values.span();
    auto sc = scatter.span();
    auto nv = new_values.span();
    dev.launch("rle_split_scatter_values",
               device::grid_for(old_n_elems, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= old_n_elems) return;
                   const auto u = static_cast<std::size_t>(e);
                   if (sc[u] >= 0) {
                     nv[static_cast<std::size_t>(sc[u])] = v[u];
                     // Scatter targets are unique by construction of the
                     // order-preserving partition; the auditor verifies it.
                     b.writes(nv, sc[u]);
                   }
                 });
                 b.reads_tile(v, old_n_elems);
                 b.reads_tile(sc, old_n_elems);
                 const auto m = elems_in_block(b, old_n_elems);
                 b.mem_coalesced(m * 12);
                 b.mem_irregular(m / 4 + 1);
               });
  }

  // Recompress per listed segment.  The compressor's outputs are freshly
  // sized device buffers; the arena adopts them so next level's checkouts
  // reuse the storage instead of growing the device heap.
  const auto& list = part.next.list;
  auto compressed = rle::compress(
      dev, new_values.span(),
      list.offsets.first(static_cast<std::size_t>(list.size) + 1), &st.arena);
  st.n_runs = compressed.n_runs;
  st.run_values = st.arena.adopt(std::move(compressed.values));
  st.run_starts = st.arena.adopt(std::move(compressed.starts));
  st.run_seg_offsets = st.arena.adopt(std::move(compressed.seg_offsets));
}

}  // namespace

void apply_splits_rle(TrainState& st, bool children_are_leaves) {
  const std::int64_t old_n_elems = st.n_elems;
  const bool direct = st.param.use_direct_rle_split;

  // The default and exact sides of the decided level.
  assign_default_children(st);
  {
    obs::ScopedSpan span("mark_sides");
    assign_exact_side_rle(st);
  }
  if (children_are_leaves) {
    release_working_layout(st);
    return;
  }

  RlePartition part;
  {
    obs::ScopedSpan span("partition");
    part = partition_instances_rle(st);
  }
  if (direct) {
    obs::ScopedSpan span("rle_direct_split");
    direct_split_runs(st, part);
  } else {
    obs::ScopedSpan span("rle_decompress_split");
    decompress_split_runs(st, part, old_n_elems);
  }
  st.seg = finish_next_segments(part.next);
  st.run_keys.free();
  st.split_tables = {};

  testing::check_rle_layout(st, part.next.n_slots, "apply_splits_rle");
}

}  // namespace gbdt::detail
