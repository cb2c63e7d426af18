// Segmented device primitives: SetKey, segmented prefix sum, segmented
// argmax reduction.
//
// Segments are contiguous element ranges described by an offsets array of
// n_seg + 1 entries (CSR convention).  In GBDT training one segment is "the
// sorted value list of attribute a inside tree node v", so the segment count
// is (#attributes x #nodes) and grows exponentially with tree depth — which
// is why the paper's Customized SetKey formula (segments handled per thread
// block adapt to the segment count) matters: with one block per segment the
// per-block scheduling overhead dominates for high-dimensional datasets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "device/device_context.h"
#include "primitives/transform.h"

namespace gbdt::prim {

/// The paper's Customized SetKey formula (Section III-B):
///   segs_per_block = 1 + #segments / (#SM * C),  C = 1000.
[[nodiscard]] inline std::int64_t auto_segs_per_block(std::int64_t n_segments,
                                                      int num_sms,
                                                      std::int64_t c = 1000) {
  return 1 + n_segments / (static_cast<std::int64_t>(num_sms) * c);
}

/// Segments per block of every SetKey-style grid (set_keys and the
/// per-segment argmax walks):
///   max(1 + S / (#SM * C), ceil(S / ceil(N / kBlockDim)))
/// for S segments over N elements (elements, RLE runs or histogram bins).
/// The second term bounds the grid by the element count: however short the
/// segments, no more blocks launch than a one-thread-per-element kernel
/// would, so block scheduling never costs more than the elements do.  The
/// paper's term governs once N > #SM * C * kBlockDim (about 7.2 M elements
/// on the Titan X preset), the scale the paper measured; below it, deep
/// levels of short segments would otherwise launch ~1 block per element.
[[nodiscard]] inline std::int64_t segs_per_block(std::int64_t n_segments,
                                                 std::int64_t n_elems,
                                                 int num_sms,
                                                 std::int64_t c = 1000) {
  const std::int64_t paper = auto_segs_per_block(n_segments, num_sms, c);
  const std::int64_t elem_blocks = (n_elems + kBlockDim - 1) / kBlockDim;
  if (elem_blocks <= 0) return paper;
  return std::max(paper, (n_segments + elem_blocks - 1) / elem_blocks);
}

/// Writes keys[e] = segment index of element e, with each block handling
/// `segs_per_block` consecutive segments.  segs_per_block == 1 is the naive
/// one-block-per-segment scheme the paper improves on.
template <typename OffBuf, typename KeyBuf>
void set_keys(device::Device& dev, const OffBuf& offsets, KeyBuf& keys,
              std::int64_t segs_per_block) {
  const std::int64_t n_seg = static_cast<std::int64_t>(offsets.size()) - 1;
  if (n_seg <= 0) return;
  segs_per_block = std::max<std::int64_t>(1, segs_per_block);
  const std::int64_t grid = (n_seg + segs_per_block - 1) / segs_per_block;
  auto off = as_span(offsets);
  auto k = as_span(keys);
  dev.launch("set_keys", grid, kBlockDim, [&](device::BlockCtx& b) {
    const std::int64_t s_lo = b.block_idx() * segs_per_block;
    const std::int64_t s_hi = std::min(s_lo + segs_per_block, n_seg);
    std::uint64_t written = 0;
    for (std::int64_t s = s_lo; s < s_hi; ++s) {
      const std::int64_t lo = off[static_cast<std::size_t>(s)];
      const std::int64_t hi = off[static_cast<std::size_t>(s + 1)];
      for (std::int64_t e = lo; e < hi; ++e) {
        k[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(s);
      }
      written += static_cast<std::uint64_t>(hi - lo);
    }
    if (s_hi > s_lo) {
      // Consecutive segments give each block one contiguous element range.
      b.reads(off, s_lo, s_hi - s_lo + 1);
      b.writes(k, off[static_cast<std::size_t>(s_lo)],
               off[static_cast<std::size_t>(s_hi)] -
                   off[static_cast<std::size_t>(s_lo)]);
    }
    b.work(written);
    b.mem_coalesced(written * sizeof(std::int32_t) +
                    static_cast<std::uint64_t>(s_hi - s_lo) * sizeof(std::int64_t));
  });
}

/// Inclusive prefix sum restarting wherever the key changes.  Keys must be
/// non-decreasing (they are segment ids).  Three-phase blocked algorithm with
/// cross-block carry propagation, so big segments still count as parallel
/// streaming work.
template <typename ValBuf, typename KeyBuf, typename OutBuf>
void segmented_inclusive_scan_by_key(device::Device& dev, const ValBuf& values,
                                     const KeyBuf& keys, OutBuf& out,
                                     std::string_view name = "seg_scan") {
  using T = buffer_element_t<OutBuf>;
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  if (n == 0) return;
  const std::int64_t grid = device::grid_for(n, kBlockDim);
  auto v = as_span(values);
  auto k = as_span(keys);
  auto o = as_span(out);

  // Per-block carry metadata.
  auto run_sums = dev.alloc<T>(static_cast<std::size_t>(grid));   // sum of trailing run
  auto carries = dev.alloc<T>(static_cast<std::size_t>(grid));    // incoming carry
  auto rs = run_sums.span();
  auto cr = carries.span();

  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    const std::int64_t lo = b.block_idx() * b.block_dim();
    const std::int64_t hi = std::min<std::int64_t>(lo + b.block_dim(), n);
    T acc{};
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (i > lo && k[u] != k[u - 1]) acc = T{};
      acc += v[u];
      o[u] = acc;
    }
    rs[static_cast<std::size_t>(b.block_idx())] = acc;
    b.reads(v, lo, hi - lo);
    b.reads(k, lo, hi - lo);
    b.writes(o, lo, hi - lo);
    b.writes(rs, b.block_idx());
    const std::uint64_t m = elems_in_block(b, n);
    b.work(m);
    b.mem_coalesced(m * (2 * sizeof(T) + sizeof(std::int32_t)) + sizeof(T));
  });

  dev.launch("seg_scan_carries", 1, kBlockDim, [&](device::BlockCtx& b) {
    // Sequential walk over blocks: a block receives a carry when its first
    // key equals the previous block's last key; the carry keeps flowing while
    // blocks are covered by a single segment.
    T carry{};
    for (std::int64_t g = 0; g < grid; ++g) {
      const std::int64_t lo = g * kBlockDim;
      const std::int64_t hi = std::min<std::int64_t>(lo + kBlockDim, n);
      const bool joins_prev =
          g > 0 && k[static_cast<std::size_t>(lo)] ==
                       k[static_cast<std::size_t>(lo - 1)];
      const T incoming = joins_prev ? carry : T{};
      cr[static_cast<std::size_t>(g)] = incoming;
      const bool single_key = k[static_cast<std::size_t>(lo)] ==
                              k[static_cast<std::size_t>(hi - 1)];
      carry = rs[static_cast<std::size_t>(g)] + (single_key ? incoming : T{});
    }
    b.reads(k, 0, n);
    b.reads(rs, 0, grid);
    b.writes(cr, 0, grid);
    b.work(static_cast<std::uint64_t>(grid));
    b.mem_coalesced(static_cast<std::uint64_t>(grid) *
                    (2 * sizeof(T) + 2 * sizeof(std::int32_t)));
  });

  dev.launch("seg_scan_fixup", grid, kBlockDim, [&](device::BlockCtx& b) {
    const T incoming = cr[static_cast<std::size_t>(b.block_idx())];
    if (incoming == T{}) return;  // nothing to add (also skips most blocks)
    const std::int64_t lo = b.block_idx() * b.block_dim();
    const std::int64_t hi = std::min<std::int64_t>(lo + b.block_dim(), n);
    const std::int32_t lead = k[static_cast<std::size_t>(lo)];
    std::uint64_t touched = 0;
    for (std::int64_t i = lo; i < hi && k[static_cast<std::size_t>(i)] == lead;
         ++i) {
      o[static_cast<std::size_t>(i)] += incoming;
      ++touched;
    }
    b.reads(cr, b.block_idx());
    b.reads(k, lo, hi - lo);
    b.reads(o, lo, static_cast<std::int64_t>(touched));
    b.writes(o, lo, static_cast<std::int64_t>(touched));
    b.work(touched);
    b.mem_coalesced(touched * 2 * sizeof(T));
  });
}

/// Best (maximum) value and its element index for each segment; ties resolve
/// to the lowest index.  Each block processes `segs_per_block` consecutive
/// segments (the SetKey-style workload assignment for reductions).
template <typename ValBuf, typename OffBuf, typename BestValBuf,
          typename BestIdxBuf>
void segmented_arg_max(device::Device& dev, const ValBuf& values,
                       const OffBuf& offsets, BestValBuf& best_values,
                       BestIdxBuf& best_indices, std::int64_t segs_per_block,
                       std::string_view name = "seg_arg_max") {
  using T = buffer_element_t<BestValBuf>;
  const std::int64_t n_seg = static_cast<std::int64_t>(offsets.size()) - 1;
  if (n_seg <= 0) return;
  segs_per_block = std::max<std::int64_t>(1, segs_per_block);
  const std::int64_t grid = (n_seg + segs_per_block - 1) / segs_per_block;
  auto v = as_span(values);
  auto off = as_span(offsets);
  auto bv = as_span(best_values);
  auto bi = as_span(best_indices);
  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    const std::int64_t s_lo = b.block_idx() * segs_per_block;
    const std::int64_t s_hi = std::min(s_lo + segs_per_block, n_seg);
    std::uint64_t scanned = 0;
    for (std::int64_t s = s_lo; s < s_hi; ++s) {
      const std::int64_t lo = off[static_cast<std::size_t>(s)];
      const std::int64_t hi = off[static_cast<std::size_t>(s + 1)];
      T best{};
      std::int64_t best_i = -1;
      for (std::int64_t e = lo; e < hi; ++e) {
        const T val = v[static_cast<std::size_t>(e)];
        if (best_i < 0 || val > best) {
          best = val;
          best_i = e;
        }
      }
      bv[static_cast<std::size_t>(s)] = best;
      bi[static_cast<std::size_t>(s)] = best_i;
      scanned += static_cast<std::uint64_t>(hi - lo);
    }
    if (s_hi > s_lo) {
      b.reads(off, s_lo, s_hi - s_lo + 1);
      b.reads(v, off[static_cast<std::size_t>(s_lo)],
              off[static_cast<std::size_t>(s_hi)] -
                  off[static_cast<std::size_t>(s_lo)]);
      b.writes(bv, s_lo, s_hi - s_lo);
      b.writes(bi, s_lo, s_hi - s_lo);
    }
    b.work(scanned);
    b.mem_coalesced(scanned * sizeof(T) +
                    static_cast<std::uint64_t>(s_hi - s_lo) *
                        (sizeof(T) + 2 * sizeof(std::int64_t)));
  });
}

}  // namespace gbdt::prim
