#include "primitives/partition.h"

#include <algorithm>
#include <cassert>

#include "primitives/scan.h"
#include "primitives/transform.h"

namespace gbdt::prim {

namespace {
constexpr std::int64_t kNaiveWorkload = 16;  // prior work's fixed b
constexpr std::int64_t kCounterSize = sizeof(std::int64_t);
}  // namespace

PartitionPlan plan_partition(std::int64_t n_elements, std::int64_t n_parts,
                             std::size_t max_counter_bytes, bool customized) {
  PartitionPlan plan;
  if (n_elements <= 0 || n_parts <= 0) return plan;
  const auto budget = static_cast<std::int64_t>(max_counter_bytes);

  if (customized) {
    // Paper formula: bound #threads so #threads * #parts counters fit the
    // budget, then spread the elements over those threads.  The effective
    // budget is additionally capped at the data size itself — building (and
    // scanning) a counter matrix bigger than the data being partitioned
    // can never pay off, which is the intent of "allocate more workload to
    // a thread when the number of partitions is large".
    const std::int64_t data_cap = std::max<std::int64_t>(
        std::int64_t{1} << 16, n_elements * kCounterSize);
    const std::int64_t eff_budget = std::min(budget, data_cap);
    const std::int64_t max_threads =
        std::max<std::int64_t>(1, eff_budget / (n_parts * kCounterSize));
    plan.n_threads = std::clamp<std::int64_t>(
        (n_elements + kNaiveWorkload - 1) / kNaiveWorkload, 1, max_threads);
  } else {
    // Naive scheme from prior work: fixed workload of 16 elements per
    // thread, regardless of how many counters that implies.  The full
    // counter matrix (#threads x #parts) can exceed device memory by orders
    // of magnitude ("runs out of GPU memory for large datasets"); to keep
    // the ablation runnable we bound the matrix by a generous 8 B/element
    // cap and amortise the overflow into at most 2 re-reads of the data,
    // shrinking the thread count as a last resort — every deviation from
    // b = 16 costs extra passes first.
    plan.n_threads = (n_elements + kNaiveWorkload - 1) / kNaiveWorkload;
    const std::int64_t eff = std::min<std::int64_t>(
        budget,
        std::max<std::int64_t>(std::int64_t{1} << 20, 8 * n_elements));
    plan.n_threads =
        std::min(plan.n_threads, std::max<std::int64_t>(1, eff / kCounterSize));
    plan.parts_per_pass = std::clamp<std::int64_t>(
        eff / (plan.n_threads * kCounterSize), 1, n_parts);
    plan.passes = static_cast<int>((n_parts + plan.parts_per_pass - 1) /
                                   plan.parts_per_pass);
    if (plan.passes > 2) {
      plan.parts_per_pass = (n_parts + 1) / 2;
      plan.n_threads = std::max<std::int64_t>(
          1, eff / (plan.parts_per_pass * kCounterSize));
      plan.passes = static_cast<int>((n_parts + plan.parts_per_pass - 1) /
                                     plan.parts_per_pass);
    }
    plan.workload = (n_elements + plan.n_threads - 1) / plan.n_threads;
    plan.counter_bytes = static_cast<std::size_t>(plan.n_threads) *
                         static_cast<std::size_t>(plan.parts_per_pass) *
                         kCounterSize;
    return plan;
  }

  // Feasibility: the counter matrix must fit the budget.  First make a single
  // partition's counter column fit (shrinking the thread count if necessary),
  // then chunk the partitions into passes.  The customized plan lands in a
  // single pass whenever one is possible.
  plan.n_threads =
      std::min(plan.n_threads, std::max<std::int64_t>(1, budget / kCounterSize));
  plan.workload = (n_elements + plan.n_threads - 1) / plan.n_threads;
  plan.parts_per_pass = std::clamp<std::int64_t>(
      budget / (plan.n_threads * kCounterSize), 1, n_parts);
  plan.passes = static_cast<int>((n_parts + plan.parts_per_pass - 1) /
                                 plan.parts_per_pass);
  plan.counter_bytes = static_cast<std::size_t>(plan.n_threads) *
                       static_cast<std::size_t>(plan.parts_per_pass) *
                       kCounterSize;
  return plan;
}

PartitionCounters::PartitionCounters(device::Device& dev,
                                     const PartitionPlan& plan,
                                     device::WorkspaceArena* arena)
    : arena_(arena) {
  const std::size_t matrix = static_cast<std::size_t>(plan.parts_per_pass) *
                             static_cast<std::size_t>(plan.n_threads);
  if (arena != nullptr) {
    pooled_counters_ = arena->alloc<std::int64_t>(matrix);
    pooled_bases_ = arena->alloc<std::int64_t>(matrix);
    cnt_ = pooled_counters_.span();
    base_ = pooled_bases_.span();
  } else {
    owned_counters_ = dev.alloc<std::int64_t>(matrix);
    owned_bases_ = dev.alloc<std::int64_t>(matrix);
    cnt_ = owned_counters_.span();
    base_ = owned_bases_.span();
  }
}

void PartitionCounters::count_pass(device::Device& dev,
                          std::span<const std::int32_t> ids,
                          const PartitionPlan& plan, std::int64_t p_lo,
                          std::int64_t p_hi) {
  const auto n = static_cast<std::int64_t>(ids.size());
  const std::int64_t threads = plan.n_threads;
  const std::int64_t work = plan.workload;
  const std::int64_t pass_parts = p_hi - p_lo;
  const std::int64_t grid = device::grid_for(threads, kBlockDim);
  auto cnt = cnt_;

  // Partition-major counters, so a flat exclusive scan yields
  // order-preserving global bases.
  dev.launch("partition_count", grid, kBlockDim, [&](device::BlockCtx& b) {
    std::uint64_t scanned = 0;
    b.for_each_thread([&](std::int64_t t) {
      if (t >= threads) return;
      const std::int64_t lo = t * work;
      const std::int64_t hi = std::min(lo + work, n);
      for (std::int64_t p = 0; p < pass_parts; ++p) {
        cnt[static_cast<std::size_t>(p * threads + t)] = 0;
      }
      for (std::int64_t i = lo; i < hi; ++i) {
        const std::int32_t p = ids[static_cast<std::size_t>(i)];
        if (p >= p_lo && p < p_hi) {
          ++cnt[static_cast<std::size_t>((p - p_lo) * threads + t)];
        }
      }
      scanned += static_cast<std::uint64_t>(std::max<std::int64_t>(0, hi - lo));
    });
    // Block footprint: threads [t_lo, t_hi) own elements [t_lo*work,
    // t_hi*work) and, per partition, one contiguous counter slice.
    const std::int64_t t_lo = b.block_idx() * b.block_dim();
    const std::int64_t t_hi =
        std::min<std::int64_t>(t_lo + b.block_dim(), threads);
    if (t_hi > t_lo) {
      const std::int64_t e_lo = std::min(t_lo * work, n);
      const std::int64_t e_hi = std::min(t_hi * work, n);
      b.reads(ids, e_lo, e_hi - e_lo);
      for (std::int64_t p = 0; p < pass_parts; ++p) {
        b.writes(cnt, p * threads + t_lo, t_hi - t_lo);
      }
    }
    b.work(scanned);
    b.mem_coalesced(scanned * sizeof(std::int32_t));
    // Counter updates are strided (partition-major matrix).
    b.mem_irregular(scanned / 4 + 1);
  });

  exclusive_scan(dev, cnt, base_, "partition_scan", arena_);
}

std::int64_t PartitionCounters::start(device::BlockCtx& b,
                                      const PartitionPlan& plan,
                                      std::int64_t pass_parts,
                                      std::int64_t p) const {
  const std::int64_t threads = plan.n_threads;
  if (p < pass_parts) {
    b.reads(base_, p * threads);
    return base_[static_cast<std::size_t>(p * threads)];
  }
  // The pass total: the last cell's base plus its count.
  const std::int64_t last = pass_parts * threads - 1;
  b.reads(base_, last);
  b.reads(cnt_, last);
  return base_[static_cast<std::size_t>(last)] +
         cnt_[static_cast<std::size_t>(last)];
}

void PartitionCounters::record_offsets(device::Device& dev,
                                       std::span<std::int64_t> part_offsets,
                                       std::span<std::int64_t> tile_counts,
                                       const PartitionPlan& plan,
                                       std::int64_t p_lo, std::int64_t p_hi,
                                       std::int64_t placed_before) {
  const std::int64_t pass_parts = p_hi - p_lo;
  const bool counting = !tile_counts.empty();
  auto offs = part_offsets;
  // Record the start offset of each partition of this pass (and, for a
  // listing, how many of the block's partitions are non-empty) before the
  // replay pass consumes the bases.
  dev.launch("partition_offsets", device::grid_for(pass_parts, kBlockDim),
             kBlockDim, [&](device::BlockCtx& b) {
               std::int64_t nonempty = 0;
               b.for_each_thread([&](std::int64_t p) {
                 if (p >= pass_parts) return;
                 const std::int64_t lo = start(b, plan, pass_parts, p);
                 offs[static_cast<std::size_t>(p_lo + p)] = placed_before + lo;
                 b.writes(offs, p_lo + p);
                 if (counting && start(b, plan, pass_parts, p + 1) > lo) {
                   ++nonempty;
                 }
               });
               const auto m = elems_in_block(b, pass_parts);
               if (counting) {
                 tile_counts[static_cast<std::size_t>(b.block_idx())] =
                     nonempty;
                 b.writes(tile_counts, b.block_idx());
                 b.mem_coalesced(m * 8 + sizeof(std::int64_t));
               }
               b.mem_coalesced(m * 16);
             });
}

}  // namespace gbdt::prim
