// Order-preserving multiway partition (paper Section III-B, Figures 2-3).
//
// Given a partition id per element, computes for every element its scatter
// destination such that the output is grouped by partition and the original
// relative order *within* each partition is preserved, and hands each
// (element, destination) pair to a caller-supplied emitter that moves the
// data or records the destination.  This is what
// lets GPU-GBDT keep every attribute's value list sorted inside the child
// nodes without re-sorting: elements only ever move to positions computed
// from per-thread, per-partition counters.
//
// Memory management follows the paper: each logical thread owns one counter
// per partition, so counter memory = #threads x #partitions x 8 B.  The
// "Customized IdxComp Workload" formula sizes the per-thread workload so the
// counters fit a fixed budget; the naive scheme (workload fixed at 16) blows
// the budget for large (#values x #nodes) and must fall back to multiple
// passes over the data — the slowdown Figure 9 measures.
//
// The trainers' partitions have far more possible parts than non-empty ones
// (a child of every (node, attribute) segment), so their form reports the
// non-empty parts as a list (PartList) instead of one offset per part.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/scan.h"
#include "primitives/transform.h"

namespace gbdt::prim {

struct PartitionPlan {
  std::int64_t n_threads = 1;
  std::int64_t workload = 1;       // elements per logical thread
  std::int64_t parts_per_pass = 1; // < n_parts when counters exceed budget
  int passes = 1;
  std::size_t counter_bytes = 0;
};

/// Byte budget for the order-preserving partition counters: the paper's
/// "maximum allowed memory size", 2^30 bytes.  The trainers and the
/// autotuner's partition pricing all plan against it.
inline constexpr std::size_t kPartitionCounterBudget = std::size_t{1} << 30;

/// Sizes the partition counters.  customized == true applies the paper's
/// workload formula; false uses the fixed workload of 16 elements per thread
/// from prior work, falling back to multi-pass when the counters do not fit.
[[nodiscard]] PartitionPlan plan_partition(std::int64_t n_elements,
                                           std::int64_t n_parts,
                                           std::size_t max_counter_bytes,
                                           bool customized);

/// Parts one block lists: each of its kBlockDim threads walks 16 consecutive
/// parts of a block-wide scan.  Longer part ranges list tile by tile.
inline constexpr std::int64_t kListBlockParts = 16 * kBlockDim;

/// The non-empty parts of a partition in ascending part order: the compact
/// form of its part offsets.
///  - offsets needs n_parts + 1 entries of capacity; on return offsets[i] is
///    the first output index of the i-th non-empty part and offsets[size]
///    the number of kept elements;
///  - marks are ascending part ids ending with n_parts; on return
///    mark_ranks[j] is the number of non-empty parts below marks[j], so the
///    last mark's rank is `size`.
/// Each listed part is also handed to a caller-supplied `name(b, i, p)`
/// (list index i, part id p), which writes whatever per-part columns the
/// caller keeps and declares its own footprint and traffic.
struct PartList {
  std::span<std::int64_t> offsets;
  std::span<const std::int64_t> marks;
  std::span<std::int64_t> mark_ranks;
  std::int64_t size = 0;
};

/// Counter/base matrices of one partition call: pooled when the caller has
/// an arena (the trainers' per-level loops), otherwise one-shot device
/// allocations.  The listing form of histogram_partition_emit takes them
/// from its caller, who checks them out before its own per-level buffers:
/// the matrices are the level's largest blocks, and checked out first they
/// get the previous level's matrices back from the arena's best fit
/// instead of losing them to a small table.
class PartitionCounters {
 public:
  PartitionCounters(device::Device& dev, const PartitionPlan& plan,
                    device::WorkspaceArena* arena);

  /// Phase 1 of the pass over partitions [p_lo, p_hi): per-(thread,
  /// partition) occurrence counts, partition-major, scanned into each cell's
  /// first output index within the pass.
  void count_pass(device::Device& dev, std::span<const std::int32_t> ids,
                  const PartitionPlan& plan, std::int64_t p_lo,
                  std::int64_t p_hi);

  /// Records the pass's part_offsets (past the `placed_before` elements of
  /// earlier passes) and, when `tile_counts` is non-empty (a single pass),
  /// the number of non-empty parts in each tile of kBlockDim parts for a
  /// later listing.
  void record_offsets(device::Device& dev,
                      std::span<std::int64_t> part_offsets,
                      std::span<std::int64_t> tile_counts,
                      const PartitionPlan& plan, std::int64_t p_lo,
                      std::int64_t p_hi, std::int64_t placed_before);

  /// First output index of part p of the current single pass, for p in
  /// [0, pass_parts]: start(pass_parts) is the pass's element count.  Reads
  /// the scanned bases, so it must run before the replay consumes them.
  [[nodiscard]] std::int64_t start(device::BlockCtx& b,
                                   const PartitionPlan& plan,
                                   std::int64_t pass_parts,
                                   std::int64_t p) const;

  /// Scanned bases of the current pass, consumed by the replay pass.
  [[nodiscard]] std::span<std::int64_t> bases() { return base_; }

  /// The arena the matrices came from (null: one-shot allocations).
  [[nodiscard]] device::WorkspaceArena* arena() const { return arena_; }

 private:
  device::DeviceBuffer<std::int64_t> owned_counters_;
  device::DeviceBuffer<std::int64_t> owned_bases_;
  device::ArenaBuffer<std::int64_t> pooled_counters_;
  device::ArenaBuffer<std::int64_t> pooled_bases_;
  device::WorkspaceArena* arena_;
  std::span<std::int64_t> cnt_;
  std::span<std::int64_t> base_;
};

namespace partition_detail {

/// The one-block listing: walks parts [0, n_parts] in order, where
/// `start(b, p)` is part p's first output index (start(n_parts) the kept
/// count) and declares its own reads.
template <typename StartFn, typename NameFn>
void list_in_one_block(device::Device& dev, std::int64_t n_parts,
                       PartList& list, StartFn&& start, NameFn&& name) {
  auto offs = list.offsets;
  auto marks = list.marks;
  auto ranks = list.mark_ranks;
  const auto n_marks = static_cast<std::int64_t>(marks.size());
  dev.launch("part_list", 1, kBlockDim, [&](device::BlockCtx& b) {
    std::int64_t listed = 0;
    std::int64_t j = 0;
    std::int64_t next = start(b, 0);
    for (std::int64_t p = 0;; ++p) {
      while (j < n_marks && marks[static_cast<std::size_t>(j)] == p) {
        ranks[static_cast<std::size_t>(j++)] = listed;
      }
      if (p == n_parts) break;
      const std::int64_t lo = next;
      next = start(b, p + 1);
      if (next > lo) {
        offs[static_cast<std::size_t>(listed)] = lo;
        name(b, listed, p);
        ++listed;
      }
    }
    offs[static_cast<std::size_t>(listed)] = next;
    b.reads(marks, 0, n_marks);
    b.writes(ranks, 0, n_marks);
    b.writes(offs, 0, listed + 1);
    const auto walked = static_cast<std::uint64_t>(n_parts + n_marks);
    b.work(walked);
    b.mem_coalesced(walked * 2 * sizeof(std::int64_t) +
                    static_cast<std::uint64_t>(listed) *
                        sizeof(std::int64_t));
  });
}

/// The multi-block listing from full offsets (n_parts + 1), in tiles of
/// kBlockDim parts: each tile's count of non-empty parts (filled here unless
/// the pass that wrote the offsets already `counted` them into
/// `tile_counts`, one per tile of the n_parts parts), then a write pass in
/// which every tile ranks its own parts from the count of the tiles before
/// it (scanned in one block first when there are more than kBlockDim
/// tiles).
template <typename NameFn>
void list_in_tiles(device::Device& dev, std::span<const std::int64_t> offs,
                   std::span<std::int64_t> tile_counts, bool counted,
                   PartList& list, NameFn&& name) {
  const auto n = static_cast<std::int64_t>(offs.size()) - 1;
  const std::int64_t tiles = device::grid_for(n, kBlockDim);
  const std::int64_t write_tiles = device::grid_for(n + 1, kBlockDim);
  const auto counts = tile_counts.first(static_cast<std::size_t>(tiles));
  const auto bases = tile_counts.subspan(static_cast<std::size_t>(tiles),
                                         static_cast<std::size_t>(write_tiles));
  const auto nonempty = [offs](std::int64_t p) {
    return offs[static_cast<std::size_t>(p + 1)] >
           offs[static_cast<std::size_t>(p)];
  };
  if (!counted) {
    dev.launch("part_list_count", tiles, kBlockDim, [&](device::BlockCtx& b) {
      const std::int64_t lo = b.block_idx() * kBlockDim;
      const std::int64_t hi = std::min<std::int64_t>(lo + kBlockDim, n);
      std::int64_t c = 0;
      for (std::int64_t p = lo; p < hi; ++p) c += nonempty(p) ? 1 : 0;
      counts[static_cast<std::size_t>(b.block_idx())] = c;
      b.reads(offs, lo, hi - lo + 1);
      b.writes(counts, b.block_idx());
      b.work(static_cast<std::uint64_t>(hi - lo));
      b.mem_coalesced(static_cast<std::uint64_t>(hi - lo + 1) *
                      sizeof(std::int64_t));
    });
  }
  // Up to one tile of counts, every write block adds up the counts before
  // its own (one coalesced read); beyond that one block scans them first.
  const bool scanned = tiles > kBlockDim;
  if (scanned) {
    dev.launch("part_list_scan", 1, kBlockDim, [&](device::BlockCtx& b) {
      std::int64_t acc = 0;
      for (std::int64_t g = 0; g < write_tiles; ++g) {
        bases[static_cast<std::size_t>(g)] = acc;
        if (g < tiles) acc += counts[static_cast<std::size_t>(g)];
      }
      b.reads(counts, 0, tiles);
      b.writes(bases, 0, write_tiles);
      b.work(static_cast<std::uint64_t>(write_tiles));
      b.mem_coalesced(static_cast<std::uint64_t>(tiles + write_tiles) *
                      sizeof(std::int64_t));
    });
  }
  auto out = list.offsets;
  auto marks = list.marks;
  auto ranks = list.mark_ranks;
  dev.launch("part_list_write", write_tiles, kBlockDim,
             [&](device::BlockCtx& b) {
               const std::int64_t lo = b.block_idx() * kBlockDim;
               const std::int64_t hi =
                   std::min<std::int64_t>(lo + kBlockDim, n + 1);
               const std::int64_t g = b.block_idx();
               std::int64_t r = 0;
               if (scanned) {
                 r = bases[static_cast<std::size_t>(g)];
                 b.reads(bases, g);
               } else {
                 const std::int64_t before = std::min(g, tiles);
                 for (std::int64_t h = 0; h < before; ++h) {
                   r += counts[static_cast<std::size_t>(h)];
                 }
                 b.reads(counts, 0, before);
                 b.mem_coalesced(static_cast<std::uint64_t>(before) *
                                 sizeof(std::int64_t));
               }
               std::uint64_t listed = 0;
               // The marks of the tile (a small table that stays cached).
               auto j = static_cast<std::size_t>(
                   std::lower_bound(marks.begin(), marks.end(), lo) -
                   marks.begin());
               for (std::int64_t p = lo; p < hi; ++p) {
                 for (; j < marks.size() && marks[j] == p; ++j) {
                   ranks[j] = r;
                   b.writes(ranks, static_cast<std::int64_t>(j));
                 }
                 if (p == n) {
                   out[static_cast<std::size_t>(r)] =
                       offs[static_cast<std::size_t>(n)];
                   b.writes(out, r);
                 } else if (nonempty(p)) {
                   out[static_cast<std::size_t>(r)] =
                       offs[static_cast<std::size_t>(p)];
                   b.writes(out, r);
                   name(b, r, p);
                   ++r;
                   ++listed;
                 }
               }
               b.reads(offs, lo, std::min(hi + 1, n + 1) - lo);
               b.reads(marks, 0, static_cast<std::int64_t>(marks.size()));
               const auto m = static_cast<std::uint64_t>(hi - lo);
               b.work(m + std::bit_width(marks.size()));
               b.mem_coalesced(m * sizeof(std::int64_t) +
                               listed * sizeof(std::int64_t));
             });
  list.size = ranks[ranks.size() - 1];
}

/// Scratch of list_in_tiles for n parts: the tile counts, then their bases.
[[nodiscard]] inline std::size_t tile_scratch(std::int64_t n) {
  return static_cast<std::size_t>(device::grid_for(n, kBlockDim) +
                                  device::grid_for(n + 1, kBlockDim));
}

}  // namespace partition_detail

/// Lists the non-empty parts of full part offsets (n_parts + 1 entries): in
/// one block when they fit, else tile by tile.
template <typename NameFn>
void list_nonempty_parts(device::Device& dev,
                         std::span<const std::int64_t> part_offsets,
                         PartList& list, device::WorkspaceArena* arena,
                         NameFn&& name) {
  const auto n_parts = static_cast<std::int64_t>(part_offsets.size()) - 1;
  auto offs = part_offsets;
  if (n_parts <= kListBlockParts) {
    partition_detail::list_in_one_block(
        dev, n_parts, list,
        [offs](device::BlockCtx& b, std::int64_t p) {
          b.reads(offs, p);
          return offs[static_cast<std::size_t>(p)];
        },
        name);
    list.size = list.mark_ranks[list.mark_ranks.size() - 1];
    return;
  }
  device::ArenaBuffer<std::int64_t> pooled;
  device::DeviceBuffer<std::int64_t> owned;
  const std::size_t scratch = partition_detail::tile_scratch(n_parts);
  if (arena != nullptr) {
    pooled = arena->alloc<std::int64_t>(scratch);
  } else {
    owned = dev.alloc<std::int64_t>(scratch);
  }
  partition_detail::list_in_tiles(
      dev, offs, arena != nullptr ? pooled.span() : owned.span(),
      /*counted=*/false, list, name);
}

/// Order-preserving partition that moves the data itself.
///  - part_ids[i] in [0, n_parts) selects the target partition; -1 drops the
///    element.
///  - part_offsets must have n_parts + 1 entries; on return part_offsets[p]
///    is the first output index of partition p and part_offsets[n_parts] the
///    number of kept elements.
/// The replay pass hands every element to `emit(b, i, dst)`: dst is element
/// i's output index, or -1 (once) when the element is dropped.  The emitter
/// writes whatever lists the caller partitions and declares its own audit
/// footprint and per-element traffic, the way fused_split.h's load functors
/// do; the kernel itself charges only the id scan and the counter cells.
namespace partition_detail {

/// The passes of one partition: the count pass, then `record(pass, p_lo,
/// p_hi, placed_before)` while the scanned bases are live, then the replay.
/// Returns the number of kept elements.
template <typename RecordFn, typename EmitFn>
std::int64_t run_passes(device::Device& dev,
                        std::span<const std::int32_t> ids,
                        std::int64_t n_parts, const PartitionPlan& plan,
                        PartitionCounters& counters, RecordFn&& record,
                        EmitFn&& emit) {
  const auto n = static_cast<std::int64_t>(ids.size());
  const std::int64_t threads = plan.n_threads;
  const std::int64_t work = plan.workload;
  const std::int64_t grid = device::grid_for(threads, kBlockDim);
  auto base = counters.bases();

  std::int64_t placed_before = 0;  // outputs written by earlier passes
  for (int pass = 0; pass < plan.passes; ++pass) {
    const std::int64_t p_lo =
        static_cast<std::int64_t>(pass) * plan.parts_per_pass;
    const std::int64_t p_hi = std::min(p_lo + plan.parts_per_pass, n_parts);
    const std::int64_t pass_parts = p_hi - p_lo;
    counters.count_pass(dev, ids, plan, p_lo, p_hi);
    record(pass, p_lo, p_hi, placed_before);

    // Phase 2: replay and emit.  Each (thread, partition) base cell is owned
    // by exactly one logical thread, so the increments are race-free.
    dev.launch("partition_scatter", grid, kBlockDim, [&](device::BlockCtx& b) {
      std::uint64_t scanned = 0;
      std::uint64_t placed = 0;
      b.for_each_thread([&](std::int64_t t) {
        if (t >= threads) return;
        const std::int64_t lo = t * work;
        const std::int64_t hi = std::min(lo + work, n);
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::int32_t p = ids[static_cast<std::size_t>(i)];
          if (p >= p_lo && p < p_hi) {
            auto& cell =
                base[static_cast<std::size_t>((p - p_lo) * threads + t)];
            emit(b, i, placed_before + cell++);
            ++placed;
          } else if (pass == 0 && p < 0) {
            emit(b, i, std::int64_t{-1});  // dropped
          }
        }
        scanned +=
            static_cast<std::uint64_t>(std::max<std::int64_t>(0, hi - lo));
      });
      const std::int64_t t_lo = b.block_idx() * b.block_dim();
      const std::int64_t t_hi =
          std::min<std::int64_t>(t_lo + b.block_dim(), threads);
      if (t_hi > t_lo) {
        const std::int64_t e_lo = std::min(t_lo * work, n);
        const std::int64_t e_hi = std::min(t_hi * work, n);
        b.reads(ids, e_lo, e_hi - e_lo);
        for (std::int64_t p = 0; p < pass_parts; ++p) {
          b.reads(base, p * threads + t_lo, t_hi - t_lo);
          b.writes(base, p * threads + t_lo, t_hi - t_lo);
        }
      }
      b.work(scanned);
      b.mem_coalesced(scanned * sizeof(std::int32_t));
      b.mem_irregular(placed / 2 + 1);  // base cell read-modify-write
    });

    // Elements placed in this pass = scan total of the last pass counters.
    const auto last = static_cast<std::size_t>(pass_parts * threads - 1);
    placed_before += base[last];  // base[last] was incremented past its count
  }
  return placed_before;
}

}  // namespace partition_detail

/// Order-preserving partition that moves the data itself.
///  - part_ids[i] in [0, n_parts) selects the target partition; -1 drops the
///    element.
///  - part_offsets must have n_parts + 1 entries; on return part_offsets[p]
///    is the first output index of partition p and part_offsets[n_parts] the
///    number of kept elements.
/// The replay pass hands every element to `emit(b, i, dst)`: dst is element
/// i's output index, or -1 (once) when the element is dropped.  The emitter
/// writes whatever lists the caller partitions and declares its own audit
/// footprint and per-element traffic, the way fused_split.h's load functors
/// do; the kernel itself charges only the id scan and the counter cells.
template <typename EmitFn>
void histogram_partition_emit(device::Device& dev,
                              std::span<const std::int32_t> part_ids,
                              std::int64_t n_parts,
                              std::span<std::int64_t> part_offsets,
                              const PartitionPlan& plan,
                              device::WorkspaceArena* arena, EmitFn&& emit) {
  assert(static_cast<std::int64_t>(part_offsets.size()) == n_parts + 1);
  if (part_ids.empty()) {
    fill(dev, part_offsets, std::int64_t{0});
    return;
  }
  PartitionCounters counters(dev, plan, arena);
  const std::int64_t kept = partition_detail::run_passes(
      dev, part_ids, n_parts, plan, counters,
      [&](int, std::int64_t p_lo, std::int64_t p_hi,
          std::int64_t placed_before) {
        counters.record_offsets(dev, part_offsets, {}, plan, p_lo, p_hi,
                                placed_before);
      },
      emit);
  part_offsets[static_cast<std::size_t>(n_parts)] = kept;
}

/// The same partition, reporting its offsets as the list of non-empty parts
/// (PartList) instead of one offset per part, each listed part handed to
/// `name`, with counters the caller checked out for `plan`.  A single-pass
/// partition whose parts fit one block lists them in the launch that would
/// otherwise record the part offsets; otherwise the offsets pass also counts
/// the non-empty parts of each tile, and a write pass lists them.
template <typename EmitFn, typename NameFn>
void histogram_partition_emit(device::Device& dev,
                              std::span<const std::int32_t> part_ids,
                              std::int64_t n_parts, PartList& list,
                              const PartitionPlan& plan,
                              PartitionCounters& counters, EmitFn&& emit,
                              NameFn&& name) {
  device::WorkspaceArena* arena = counters.arena();
  assert(static_cast<std::int64_t>(list.offsets.size()) >= n_parts + 1);
  assert(!list.marks.empty() && list.marks.back() == n_parts);
  const auto n = static_cast<std::int64_t>(part_ids.size());
  if (n == 0 || n_parts == 0) {
    // Nothing is kept: every element is dropped, and no part is listed.
    if (n > 0) {
      dev.launch("partition_drop", device::grid_for(n, kBlockDim), kBlockDim,
                 [&](device::BlockCtx& b) {
                   b.for_each_thread([&](std::int64_t i) {
                     if (i < n) emit(b, i, std::int64_t{-1});
                   });
                   b.reads_tile(part_ids, n);
                   b.mem_coalesced(elems_in_block(b, n) * sizeof(std::int32_t));
                 });
    }
    partition_detail::list_in_one_block(
        dev, n_parts, list,
        [](device::BlockCtx&, std::int64_t) { return std::int64_t{0}; },
        name);
    list.size = 0;
    return;
  }
  if (plan.passes == 1 && n_parts <= kListBlockParts) {
    partition_detail::run_passes(
        dev, part_ids, n_parts, plan, counters,
        [&](int, std::int64_t, std::int64_t, std::int64_t) {
          partition_detail::list_in_one_block(
              dev, n_parts, list,
              [&](device::BlockCtx& b, std::int64_t p) {
                return counters.start(b, plan, n_parts, p);
              },
              name);
        },
        emit);
    list.size = list.mark_ranks[list.mark_ranks.size() - 1];
    return;
  }
  // The offsets pass records every part's offset; a single pass also counts
  // each tile's non-empty parts on the way, so listing them takes a scan of
  // the counts and the write pass.
  device::DeviceBuffer<std::int64_t> owned;
  device::ArenaBuffer<std::int64_t> pooled;
  const auto n_offs = static_cast<std::size_t>(n_parts) + 1;
  const std::size_t scratch = n_offs + partition_detail::tile_scratch(n_parts);
  if (arena != nullptr) {
    pooled = arena->alloc<std::int64_t>(scratch);
  } else {
    owned = dev.alloc<std::int64_t>(scratch);
  }
  const std::span<std::int64_t> all =
      arena != nullptr ? pooled.span() : owned.span();
  const auto offs = all.first(n_offs);
  const auto tile_counts = all.subspan(n_offs);
  const bool counted = plan.passes == 1;
  offs[static_cast<std::size_t>(n_parts)] = partition_detail::run_passes(
      dev, part_ids, n_parts, plan, counters,
      [&](int, std::int64_t p_lo, std::int64_t p_hi,
          std::int64_t placed_before) {
        counters.record_offsets(
            dev, offs, counted ? tile_counts : std::span<std::int64_t>{},
            plan, p_lo, p_hi, placed_before);
      },
      emit);
  partition_detail::list_in_tiles(dev, offs, tile_counts, counted, list,
                                  name);
}

}  // namespace gbdt::prim
