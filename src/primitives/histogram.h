// Histogram-method primitives (quantized feature bins + per-node gradient
// histograms), the device side of the trainer in core/trainer_hist.cpp.
//
// Production GPU GBDT systems (XGBoost-GPU, LightGBM, ThunderGBM) reach large
// scale by quantizing each attribute into <= n_bins quantile buckets up front
// and accumulating per-(node, attribute) gradient histograms instead of
// scanning sorted value lists.  This header holds the shared pieces:
//
//  * BinCuts / build_cuts — host-side quantile binning (one implementation,
//    so the device trainer's bin-index matrix can be verified against
//    BinCuts::bin_of directly);
//  * QGH — the histogram cell: gradient/hessian sums quantized to int64
//    fixed point plus an instance count.  Integer addition is exact and
//    associative, which is what makes the histogram-subtraction trick
//    (child = parent - sibling) *bitwise* identical to direct accumulation
//    regardless of the block decomposition — with double cells the
//    subtraction would drift in the last ulp and the trainer could not be
//    deterministic;
//  * the `hist_`-labelled kernels: privatized build (per-block histogram
//    tiles, the simulator's stand-in for CUDA shared-memory privatization —
//    see the merge note below), deterministic merge, and the subtraction
//    kernel.  gbdt_lint enforces the `hist_` label prefix for every launch
//    in this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/transform.h"

namespace gbdt::hist {

// ---- host-side quantile binning --------------------------------------------

/// Quantile bin edges of one attribute: bin_low[b] is the smallest value of
/// bin b, bins ordered by value descending (bin 0 = highest values) to match
/// the library's split convention (x >= split_value -> left).
struct BinCuts {
  std::vector<float> bin_low;

  [[nodiscard]] int bin_of(float v) const {
    // First bin whose low edge is <= v (bin_low is descending).
    const auto it = std::lower_bound(bin_low.begin(), bin_low.end(), v,
                                     [](float low, float x) { return low > x; });
    return it == bin_low.end() ? static_cast<int>(bin_low.size()) - 1
                               : static_cast<int>(it - bin_low.begin());
  }
};

/// Greedy quantile cuts over the column's values (any order), at most n_bins
/// buckets, boundaries only between distinct values.
///
/// Degenerate inputs are handled explicitly: a column with d <= n_bins
/// distinct values gets exactly one bin per distinct value, and when the
/// greedy chunking would swallow every value into a single bin (one dominant
/// run), a boundary is forced before the final run — so with n_bins >= 2 any
/// column with at least two distinct values always has at least one usable
/// split boundary.  All-equal columns legitimately produce a single bin (no
/// split exists), as does an explicit n_bins == 1 request.
inline BinCuts build_cuts(std::vector<float> values, int n_bins) {
  BinCuts cuts;
  if (values.empty()) {
    cuts.bin_low.push_back(0.f);
    return cuts;
  }
  std::sort(values.rbegin(), values.rend());  // descending
  std::size_t distinct = 1;
  for (std::size_t k = 1; k < values.size(); ++k) {
    if (values[k] != values[k - 1]) ++distinct;
  }
  const auto want = static_cast<std::size_t>(std::max(1, n_bins));
  if (distinct <= want) {
    // One bin per distinct value: each run's last element is its low edge.
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (k + 1 == values.size() || values[k + 1] != values[k]) {
        cuts.bin_low.push_back(values[k]);
      }
    }
    return cuts;
  }
  // Ceiling division: at most n_bins chunks (run extension below only makes
  // chunks bigger, never more numerous).
  const std::size_t per_bin = (values.size() + want - 1) / want;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t j = std::min(values.size(), i + per_bin);
    // Extend to the end of the run of equal values (a value never straddles
    // two bins).
    while (j < values.size() && values[j] == values[j - 1]) ++j;
    cuts.bin_low.push_back(values[j - 1]);
    i = j;
  }
  if (want > 1 && cuts.bin_low.size() == 1) {
    // A dominant run swallowed the whole column: cut before the final
    // (minimum-value) run so the boundary separates distinct values.
    // (With n_bins == 1 a single bin is the requested result, not a
    // degeneracy, so no boundary is forced.)
    std::size_t r = values.size() - 1;
    while (r > 0 && values[r - 1] == values[r]) --r;
    cuts.bin_low[0] = values[r - 1];
    cuts.bin_low.push_back(values.back());
  }
  return cuts;
}

// ---- fixed-point gradient quantization -------------------------------------

/// One histogram cell: fixed-point gradient/hessian sums and the instance
/// count.  Also the element type of the fused find-split scan over bins
/// (default ctor + operator+= + operator== are what
/// prim::fused_gather_scan_totals requires).
struct QGH {
  std::int64_t g = 0;
  std::int64_t h = 0;
  std::int64_t cnt = 0;

  QGH& operator+=(const QGH& o) {
    g += o.g;
    h += o.h;
    cnt += o.cnt;
    return *this;
  }
  friend QGH operator+(QGH a, const QGH& b) { return a += b; }
  friend QGH operator-(QGH a, const QGH& b) {
    a.g -= b.g;
    a.h -= b.h;
    a.cnt -= b.cnt;
    return a;
  }
  friend bool operator==(const QGH&, const QGH&) = default;
};

inline constexpr int kQuantBits = 40;

/// Per-tree fixed-point scaling: q = llround(v * scale), v ~= q * inv.
struct GradQuant {
  double scale = 1.0;
  double inv = 1.0;
};

/// Scale mapping max |v| to 2^bits, with bits <= kQuantBits lowered until
/// n_inst * 2^bits < 2^62 so no per-node int64 sum can overflow.  Powers of
/// two keep scale * inv == 1 exactly, so dequantization is drift-free.
[[nodiscard]] inline GradQuant make_grad_quant(double max_abs,
                                               std::int64_t n_inst) {
  GradQuant q;
  if (!(max_abs > 0.0) || !std::isfinite(max_abs)) return q;
  int bits = kQuantBits;
  while (bits > 1 && static_cast<double>(n_inst) * std::ldexp(1.0, bits) >=
                         std::ldexp(1.0, 62)) {
    --bits;
  }
  q.scale = std::ldexp(1.0, bits) / max_abs;
  q.inv = max_abs * std::ldexp(1.0, -bits);
  return q;
}

// ---- device kernels --------------------------------------------------------

/// Number of privatized histogram copies for the build kernel: enough blocks
/// to keep every SM busy twice over, but bounded so the partial grid stays
/// small relative to the entry stream (a real GPU would privatize per thread
/// block in shared memory; the bound models the same residency limit).
[[nodiscard]] inline std::int64_t partial_block_count(
    const device::Device& dev, std::int64_t n_inst) {
  const std::int64_t grid = device::grid_for(n_inst, prim::kBlockDim);
  return std::min<std::int64_t>(
      grid, 2 * static_cast<std::int64_t>(dev.config().num_sms));
}

/// Accumulates per-(slot, attribute, bin) gradient histograms over the
/// quantized entry stream.
///
/// Each of the `partial_block_count` blocks walks a contiguous instance
/// chunk and accumulates into its *private* histogram copy (the
/// shared-memory tile: block-disjoint writes, no atomics — the win over the
/// atomic-per-entry CPU-baseline kernel), then a merge kernel folds the
/// copies in ascending block order.  With int64 cells the merge order cannot
/// change the result, so the build is bit-deterministic by construction.
///
/// `accum_of_node[tree_node]` selects the accumulation slot (-1 = skip the
/// instance), `dest_slot_of_accum[a]` the destination row of `out`; `out`
/// must hold max(dest)+1 rows of n_attr * n_bins cells, and only the
/// destination rows are written.
inline void build_histograms(device::Device& dev,
                             device::WorkspaceArena& arena,
                             std::span<const std::int64_t> row_offsets,
                             std::span<const std::int32_t> entry_attr,
                             std::span<const std::uint16_t> entry_bin,
                             std::span<const std::int64_t> qg,
                             std::span<const std::int64_t> qh,
                             std::span<const std::int32_t> node_of,
                             std::span<const std::int32_t> accum_of_node,
                             std::span<const std::int32_t> dest_slot_of_accum,
                             std::int64_t n_attr, std::int64_t n_bins,
                             std::span<QGH> out) {
  const auto n_inst = static_cast<std::int64_t>(node_of.size());
  const auto n_accum = static_cast<std::int64_t>(dest_slot_of_accum.size());
  const std::int64_t cells_per_slot = n_attr * n_bins;
  const std::int64_t cells = n_accum * cells_per_slot;
  if (cells == 0) return;

  const std::int64_t n_blocks = partial_block_count(dev, n_inst);
  const std::int64_t chunk = (std::max<std::int64_t>(n_inst, 1) + n_blocks - 1) / n_blocks;
  auto partials =
      arena.alloc<QGH>(static_cast<std::size_t>(n_blocks * cells));
  prim::fill(dev, partials, QGH{});
  auto part = partials.span();

  dev.launch("hist_build", n_blocks, prim::kBlockDim,
             [&](device::BlockCtx& b) {
               const std::int64_t lo = b.block_idx() * chunk;
               const std::int64_t hi = std::min(lo + chunk, n_inst);
               const std::int64_t base = b.block_idx() * cells;
               std::uint64_t touched = 0;
               for (std::int64_t i = lo; i < hi; ++i) {
                 const auto u = static_cast<std::size_t>(i);
                 const std::int32_t accum =
                     accum_of_node[static_cast<std::size_t>(node_of[u])];
                 if (accum < 0) continue;
                 const QGH gh{qg[u], qh[u], 1};
                 const std::int64_t slot_base =
                     base + static_cast<std::int64_t>(accum) * cells_per_slot;
                 for (std::int64_t e = row_offsets[u]; e < row_offsets[u + 1];
                      ++e) {
                   const auto eu = static_cast<std::size_t>(e);
                   const auto cell = static_cast<std::size_t>(
                       slot_base + entry_attr[eu] * n_bins + entry_bin[eu]);
                   part[cell] += gh;
                   ++touched;
                 }
               }
               if (hi > lo) {
                 b.reads(row_offsets, lo, hi - lo + 1);
                 b.reads(qg, lo, hi - lo);
                 b.reads(qh, lo, hi - lo);
                 b.reads(node_of, lo, hi - lo);
                 b.reads(accum_of_node, 0,
                         static_cast<std::int64_t>(accum_of_node.size()));
                 const std::int64_t e_lo = row_offsets[static_cast<std::size_t>(lo)];
                 const std::int64_t e_hi = row_offsets[static_cast<std::size_t>(hi)];
                 b.reads(entry_attr, e_lo, e_hi - e_lo);
                 b.reads(entry_bin, e_lo, e_hi - e_lo);
               }
               b.reads(part, base, cells);
               b.writes(part, base, cells);
               b.work(touched + static_cast<std::uint64_t>(
                                    hi > lo ? hi - lo : 0));
               // Entry stream + per-instance state, streamed; the privatized
               // histogram updates hit the block's own tile (shared memory,
               // not counted), which is flushed to the partial grid once.
               b.mem_coalesced(
                   touched * (sizeof(std::int32_t) + sizeof(std::uint16_t)) +
                   static_cast<std::uint64_t>(hi > lo ? hi - lo : 0) * 28 +
                   static_cast<std::uint64_t>(cells) * sizeof(QGH));
             });

  // Deterministic merge: one thread per cell sums the private copies in
  // ascending block order and scatters the total to its destination row.
  const std::int64_t grid = device::grid_for(cells, prim::kBlockDim);
  dev.launch("hist_merge", grid, prim::kBlockDim, [&](device::BlockCtx& b) {
    b.for_each_thread([&](std::int64_t c) {
      if (c >= cells) return;
      QGH sum{};
      for (std::int64_t blk = 0; blk < n_blocks; ++blk) {
        sum += part[static_cast<std::size_t>(blk * cells + c)];
      }
      const std::int64_t accum = c / cells_per_slot;
      const std::int64_t dc =
          static_cast<std::int64_t>(
              dest_slot_of_accum[static_cast<std::size_t>(accum)]) *
              cells_per_slot +
          c % cells_per_slot;
      out[static_cast<std::size_t>(dc)] = sum;
      // Destination rows are distinct per accumulation slot, so the
      // scattered stores stay block-disjoint; the auditor verifies it.
      b.writes(out, dc);
    });
    for (std::int64_t blk = 0; blk < n_blocks; ++blk) {
      const std::int64_t t_lo = std::min(b.block_idx() * b.block_dim(), cells);
      const std::int64_t t_n =
          std::min<std::int64_t>(b.block_dim(), cells - t_lo);
      b.reads(part, blk * cells + t_lo, t_n);
    }
    b.reads(dest_slot_of_accum, 0, n_accum);
    const auto m = prim::elems_in_block(b, cells);
    b.work(m * static_cast<std::uint64_t>(n_blocks));
    b.mem_coalesced(m * (static_cast<std::uint64_t>(n_blocks) + 1) *
                    sizeof(QGH));
  });
}

/// Histogram-subtraction trick: for each derived slot k,
///   cur[derived[k]] = parent[parent_slot[k]] - cur[sibling_slot[k]]
/// cell-wise.  Exact in int64, so the derived histogram is bitwise identical
/// to accumulating the derived child directly (the property
/// tests/test_hist_device.cpp asserts).  `parent` is the previous level's
/// histogram buffer; `cur` holds the accumulated siblings and receives the
/// derived rows.
inline void subtract_histograms(device::Device& dev,
                                std::span<const QGH> parent,
                                std::span<QGH> cur,
                                std::span<const std::int32_t> parent_slot,
                                std::span<const std::int32_t> sibling_slot,
                                std::span<const std::int32_t> derived_slot,
                                std::int64_t cells_per_slot) {
  const auto n_derived = static_cast<std::int64_t>(derived_slot.size());
  const std::int64_t n = n_derived * cells_per_slot;
  if (n == 0) return;
  const std::int64_t grid = device::grid_for(n, prim::kBlockDim);
  dev.launch("hist_subtract", grid, prim::kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t idx) {
                 if (idx >= n) return;
                 const std::int64_t k = idx / cells_per_slot;
                 const std::int64_t rest = idx % cells_per_slot;
                 const auto ku = static_cast<std::size_t>(k);
                 const std::int64_t p =
                     static_cast<std::int64_t>(parent_slot[ku]) *
                         cells_per_slot +
                     rest;
                 const std::int64_t s =
                     static_cast<std::int64_t>(sibling_slot[ku]) *
                         cells_per_slot +
                     rest;
                 const std::int64_t d =
                     static_cast<std::int64_t>(derived_slot[ku]) *
                         cells_per_slot +
                     rest;
                 cur[static_cast<std::size_t>(d)] =
                     parent[static_cast<std::size_t>(p)] -
                     cur[static_cast<std::size_t>(s)];
                 b.reads(parent, p);
                 b.reads(cur, s);
                 // Derived rows are distinct from each other and from every
                 // sibling row, so the writes stay block-disjoint.
                 b.writes(cur, d);
               });
               b.reads(parent_slot, 0, n_derived);
               b.reads(sibling_slot, 0, n_derived);
               b.reads(derived_slot, 0, n_derived);
               const auto m = prim::elems_in_block(b, n);
               b.work(m);
               b.mem_coalesced(m * 3 * sizeof(QGH));
             });
}

/// Per-slot split command for the position-update kernel, packed into one
/// record so the per-level upload is a single transfer.  attr < 0 marks a
/// slot that does not split this level.
struct HistSplitCmd {
  std::int32_t attr = -1;
  std::int32_t bin = -1;  // last bin on the left (high-value) side
  std::int32_t left_id = -1;
  std::int32_t right_id = -1;
  std::uint8_t default_left = 0;
};

/// Moves every instance of a splitting node to its child: binary-search the
/// instance's CSR row for the split attribute; present instances compare
/// their bin index against the split bin, absent ones follow the default
/// direction.  Mirrors the exact trainer's instance->node map contract, so
/// SmartGD and check_leaf_map work unchanged on the histogram path.
inline void update_positions(device::Device& dev,
                             std::span<const std::int64_t> row_offsets,
                             std::span<const std::int32_t> entry_attr,
                             std::span<const std::uint16_t> entry_bin,
                             std::span<const std::int32_t> slot_of_node,
                             std::span<const HistSplitCmd> cmds,
                             std::span<std::int32_t> node_of) {
  const auto n_inst = static_cast<std::int64_t>(node_of.size());
  dev.launch(
      "hist_update_positions", device::grid_for(n_inst, prim::kBlockDim),
      prim::kBlockDim, [&](device::BlockCtx& b) {
        std::uint64_t probes = 0;
        b.for_each_thread([&](std::int64_t i) {
          if (i >= n_inst) return;
          const auto u = static_cast<std::size_t>(i);
          const std::int32_t slot =
              slot_of_node[static_cast<std::size_t>(node_of[u])];
          if (slot < 0) return;
          const auto su = static_cast<std::size_t>(slot);
          if (cmds[su].attr < 0) return;
          // Binary search the row for the split attribute.
          const std::int32_t want = cmds[su].attr;
          std::int64_t lo = row_offsets[u], hi = row_offsets[u + 1];
          int found_bin = -1;
          while (lo < hi) {
            const std::int64_t mid = (lo + hi) / 2;
            const auto mu = static_cast<std::size_t>(mid);
            if (entry_attr[mu] < want) {
              lo = mid + 1;
            } else if (entry_attr[mu] > want) {
              hi = mid;
            } else {
              found_bin = entry_bin[mu];
              break;
            }
            ++probes;
          }
          const bool go_left = found_bin >= 0 ? found_bin <= cmds[su].bin
                                              : cmds[su].default_left != 0;
          node_of[u] = go_left ? cmds[su].left_id : cmds[su].right_id;
        });
        b.reads_tile(row_offsets, n_inst + 1);
        b.reads_tile(node_of, n_inst);
        b.writes_tile(node_of, n_inst);
        b.reads(slot_of_node, 0,
                static_cast<std::int64_t>(slot_of_node.size()));
        b.reads(cmds, 0, static_cast<std::int64_t>(cmds.size()));
        b.work(probes + prim::elems_in_block(b, n_inst));
        b.mem_irregular(probes);
        b.mem_coalesced(prim::elems_in_block(b, n_inst) * 12);
      });
}

}  // namespace gbdt::hist
