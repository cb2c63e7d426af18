// Order-preserving multiway partition (paper Section III-B, Figures 2-3).
//
// Given a partition id per element, computes for every element its scatter
// destination such that the output is grouped by partition and the original
// relative order *within* each partition is preserved, and hands each
// (element, destination) pair to a caller-supplied emitter that moves the
// data (or, in the index-only form, records the destination).  This is what
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
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "device/device_context.h"
#include "device/workspace_arena.h"
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

namespace partition_detail {

/// Counter/base matrices of one partition call: pooled when the caller has
/// an arena (the trainers' per-level loops), otherwise one-shot device
/// allocations.
class Counters {
 public:
  Counters(device::Device& dev, const PartitionPlan& plan,
           device::WorkspaceArena* arena);

  /// Phase 1 of the pass over partitions [p_lo, p_hi): per-(thread,
  /// partition) occurrence counts, partition-major, scanned into each cell's
  /// first output index past the `placed_before` elements of earlier passes;
  /// records the pass's part_offsets.
  void count_pass(device::Device& dev, std::span<const std::int32_t> ids,
                  std::span<std::int64_t> part_offsets,
                  const PartitionPlan& plan, std::int64_t p_lo,
                  std::int64_t p_hi, std::int64_t placed_before);

  /// Scanned bases of the current pass, consumed by the replay pass.
  [[nodiscard]] std::span<std::int64_t> bases() { return base_; }

 private:
  device::DeviceBuffer<std::int64_t> owned_counters_;
  device::DeviceBuffer<std::int64_t> owned_bases_;
  device::ArenaBuffer<std::int64_t> pooled_counters_;
  device::ArenaBuffer<std::int64_t> pooled_bases_;
  device::WorkspaceArena* arena_;
  std::span<std::int64_t> cnt_;
  std::span<std::int64_t> base_;
};

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
  const auto n = static_cast<std::int64_t>(part_ids.size());
  assert(static_cast<std::int64_t>(part_offsets.size()) == n_parts + 1);
  if (n == 0) {
    fill(dev, part_offsets, std::int64_t{0});
    return;
  }

  const std::int64_t threads = plan.n_threads;
  const std::int64_t work = plan.workload;
  const std::int64_t grid = device::grid_for(threads, kBlockDim);
  partition_detail::Counters counters(dev, plan, arena);
  auto ids = part_ids;
  auto base = counters.bases();

  std::int64_t placed_before = 0;  // outputs written by earlier passes
  for (int pass = 0; pass < plan.passes; ++pass) {
    const std::int64_t p_lo =
        static_cast<std::int64_t>(pass) * plan.parts_per_pass;
    const std::int64_t p_hi = std::min(p_lo + plan.parts_per_pass, n_parts);
    const std::int64_t pass_parts = p_hi - p_lo;
    counters.count_pass(dev, ids, part_offsets, plan, p_lo, p_hi,
                        placed_before);

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

  part_offsets[static_cast<std::size_t>(n_parts)] = placed_before;
}

/// The index-only partition: the emitter writes each element's destination
/// to scatter_out (-1 for dropped elements), for callers that move several
/// arrays with one scatter (the RLE decompress fallback, tests, benches).
/// Spans accept both owned (DeviceBuffer) and pooled (ArenaBuffer) storage.
void histogram_partition(device::Device& dev,
                         std::span<const std::int32_t> part_ids,
                         std::int64_t n_parts,
                         std::span<std::int64_t> scatter_out,
                         std::span<std::int64_t> part_offsets,
                         const PartitionPlan& plan,
                         device::WorkspaceArena* arena = nullptr);

}  // namespace gbdt::prim
