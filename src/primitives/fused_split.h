// Fused find-split primitives (paper Sec. III-B hot loop).
//
// Find-split is one fixed sequence per level: gather each element's
// gradient pair, run a segmented prefix sum over the attribute lists, take
// per-segment present totals, compute every candidate's gain, then the
// SetKey per-segment argmax.  Written as separate kernels that is 5-6 full
// passes over every attribute list, with a gathered (g,h) array, full
// per-element gain and direction arrays, and two more reads of the scan
// output.  The two primitives below run the whole sequence in two passes:
//
//  * fused_gather_scan_totals — the segmented scan's per-block phase pulls
//    each element straight from the gradient pairs via a caller-supplied
//    load functor, so no gathered array exists; per-segment present totals
//    are emitted as a side product (interior segment ends directly from
//    phase 1, each block's leading-run end finalised in the carry pass).
//    No fixup pass runs either: the result is a CarriedScan, whose readers
//    add each block's incoming carry on read.
//  * fused_gain_argmax — gain computation, duplicate-split suppression and
//    the per-segment argmax run in one offsets-driven kernel that keeps a
//    running block-local best (gain, index, direction) and writes only the
//    per-segment winners.
//
// Both stay bit-identical to the separate-kernel sequence they replace
// (segmented_inclusive_scan_by_key with its seg_scan_fixup pass, then
// segmented_arg_max), which test_fused_split holds them to element for
// element: the scan keeps the exact per-block sequential association order
// and the exact carry/fixup addition order (`run + carry`), CarriedScan::at
// adds the carry exactly where, and in the order, the fixup would have,
// totals equal the post-fixup scan value of each segment's last element,
// and the argmax applies segmented_arg_max's `best_i < 0 || gain > best`
// lowest-index tie-break over the same ascending element order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/transform.h"

namespace gbdt::prim {

/// One gain evaluation: the candidate's gain and split direction
/// (1 = missing values go left, 0 = right).
struct GainDir {
  double gain = 0.0;
  std::uint8_t dir = 0;
};

/// A segmented inclusive scan read with carry on read.  `partial` holds the
/// per-block scan (kBlockDim-element blocks); `carries[g]` is block g's
/// incoming carry, which segmented_inclusive_scan_by_key's seg_scan_fixup
/// pass adds to the block's leading run.  at() applies that addition when
/// the value is read, under the fixup's own `incoming == T{}` skip and in
/// its `o[i] += incoming` order, so it returns the fixed-up value bit for
/// bit without a pass that re-reads and rewrites the scan.  Empty
/// `carries`: `partial` is already final (a plain array handed to
/// fused_gain_argmax, as the primitive's tests and benches do).
template <typename T>
struct CarriedScan {
  std::span<const T> partial;
  device::ArenaBuffer<T> carries;

  /// Whether block g's leading run belongs to the segment starting at
  /// seg_lo, i.e. whether the fixup would add block g's carry to that
  /// segment's elements in block g.
  [[nodiscard]] bool carried(std::int64_t g, std::int64_t seg_lo) const {
    return !carries.empty() && seg_lo <= g * kBlockDim;
  }

  /// The carry the fixup adds to the segment's elements in block g, or null
  /// where it adds nothing (the `incoming == T{}` skip included).
  [[nodiscard]] const T* carry(std::int64_t g, std::int64_t seg_lo) const {
    if (!carried(g, seg_lo)) return nullptr;
    const T& incoming = carries[static_cast<std::size_t>(g)];
    return incoming == T{} ? nullptr : &incoming;
  }

  /// Scan value of element i, which belongs to the segment starting at
  /// seg_lo.
  [[nodiscard]] T at(std::int64_t i, std::int64_t seg_lo) const {
    T v = partial[static_cast<std::size_t>(i)];
    if (const T* c = carry(i / kBlockDim, seg_lo)) v += *c;
    return v;
  }
};

/// Fused gradient gather + segmented inclusive scan + per-segment totals.
///
/// `load(b, i)` returns element i's value, declaring its own audit reads and
/// accounting its own memory traffic (the gather half of the fusion).  Keys
/// must be non-decreasing segment ids, as in segmented_inclusive_scan_by_key.
/// On return, `out` holds the per-block scan of the loaded values, and the
/// returned CarriedScan (which views `out`, so `out` must outlive it) reads
/// the segmented inclusive scan; `totals[s]` holds the segment-s sum for
/// every non-empty segment (empty segments are left untouched — callers must
/// not read them, which the trainers' winner-validity checks guarantee).
///
/// Per-block scratch (trailing-run sums, carries, pending leading-run ends)
/// is checked out of the arena, so steady-state levels allocate nothing.
template <typename KeyBuf, typename OutBuf, typename TotBuf, typename LoadFn>
[[nodiscard]] CarriedScan<buffer_element_t<OutBuf>> fused_gather_scan_totals(
    device::Device& dev, device::WorkspaceArena& arena, const KeyBuf& keys,
    OutBuf& out, TotBuf& totals, LoadFn&& load, std::string_view name) {
  using T = buffer_element_t<OutBuf>;
  const std::int64_t n = static_cast<std::int64_t>(out.size());
  if (n == 0) return {};
  const std::int64_t grid = device::grid_for(n, kBlockDim);
  auto run_sums = arena.alloc<T>(static_cast<std::size_t>(grid));
  auto carries = arena.alloc<T>(static_cast<std::size_t>(grid));
  auto pending_seg = arena.alloc<std::int32_t>(static_cast<std::size_t>(grid));
  auto pending_val = arena.alloc<T>(static_cast<std::size_t>(grid));
  auto k = as_span(keys);
  auto o = as_span(out);
  auto tot = as_span(totals);
  auto rs = run_sums.span();
  auto cr = carries.span();
  auto ps = pending_seg.span();
  auto pv = pending_val.span();

  // Phase 1: per-block sequential scan over gathered values.  A segment end
  // inside the block after at least one key change is final (no carry can
  // reach it), so its total is written here; the end of the block's leading
  // run is deferred to the carry pass, which knows the incoming carry.
  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    const std::int64_t lo = b.block_idx() * b.block_dim();
    const std::int64_t hi = std::min<std::int64_t>(lo + b.block_dim(), n);
    T acc{};
    bool interior = false;  // saw a key change inside this block
    std::uint64_t totals_written = 0;
    ps[static_cast<std::size_t>(b.block_idx())] = -1;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (i > lo && k[u] != k[u - 1]) {
        acc = T{};
        interior = true;
      }
      acc += load(b, i);
      o[u] = acc;
      const bool seg_ends =
          i + 1 == n || k[static_cast<std::size_t>(i + 1)] != k[u];
      if (seg_ends) {
        if (interior) {
          tot[static_cast<std::size_t>(k[u])] = acc;
          b.writes(tot, k[u]);
          ++totals_written;
        } else {
          ps[static_cast<std::size_t>(b.block_idx())] = k[u];
          pv[static_cast<std::size_t>(b.block_idx())] = acc;
        }
      }
    }
    rs[static_cast<std::size_t>(b.block_idx())] = acc;
    // The key peek at i + 1 can cross the tile boundary by one element.
    b.reads(k, lo, std::min<std::int64_t>(hi + 1, n) - lo);
    b.writes(o, lo, hi - lo);
    b.writes(rs, b.block_idx());
    b.writes(ps, b.block_idx());
    b.writes(pv, b.block_idx());
    const std::uint64_t m = elems_in_block(b, n);
    b.work(m);
    b.mem_coalesced(m * (sizeof(T) + sizeof(std::int32_t)) + 3 * sizeof(T));
    b.mem_irregular(totals_written);  // scattered segment-total stores
  });

  // Carry pass: the sequential block walk of seg_scan_fixup's carry
  // propagation, plus the segment totals — each block's deferred leading-run
  // end becomes final once its incoming carry is known.
  dev.launch("fused_scan_carries", 1, kBlockDim, [&](device::BlockCtx& b) {
    T carry{};
    std::uint64_t totals_written = 0;
    for (std::int64_t g = 0; g < grid; ++g) {
      const std::int64_t lo = g * kBlockDim;
      const std::int64_t hi = std::min<std::int64_t>(lo + kBlockDim, n);
      const bool joins_prev =
          g > 0 && k[static_cast<std::size_t>(lo)] ==
                       k[static_cast<std::size_t>(lo - 1)];
      const T incoming = joins_prev ? carry : T{};
      cr[static_cast<std::size_t>(g)] = incoming;
      const std::int32_t pend = ps[static_cast<std::size_t>(g)];
      if (pend >= 0) {
        // Same addition order as CarriedScan::at (and seg_scan_fixup).
        T t = pv[static_cast<std::size_t>(g)];
        t += incoming;
        tot[static_cast<std::size_t>(pend)] = t;
        b.writes(tot, pend);
        ++totals_written;
      }
      const bool single_key = k[static_cast<std::size_t>(lo)] ==
                              k[static_cast<std::size_t>(hi - 1)];
      carry = rs[static_cast<std::size_t>(g)] + (single_key ? incoming : T{});
    }
    b.reads(k, 0, n);
    b.reads(rs, 0, grid);
    b.reads(ps, 0, grid);
    b.reads(pv, 0, grid);
    b.writes(cr, 0, grid);
    b.work(static_cast<std::uint64_t>(grid));
    b.mem_coalesced(static_cast<std::uint64_t>(grid) *
                    (3 * sizeof(T) + 2 * sizeof(std::int32_t)));
    b.mem_irregular(totals_written);
  });

  return CarriedScan<T>{std::span<const T>(as_span(out)), std::move(carries)};
}

/// Fused gain computation + duplicate suppression + per-segment argmax.
///
/// `eval(b, s, e, seg_lo, seg_hi, prefix)` returns element e's candidate
/// GainDir, where `prefix` is element e's value of `scan` (CarriedScan::at,
/// read and accounted here); eval declares its other audit reads and
/// accounts their traffic (suppressed duplicates return gain 0.0 so they
/// lose to any positive candidate).  Each block walks `segs_per_block`
/// consecutive segments in ascending element order keeping a running best
/// with segmented_arg_max's lowest-index tie-break, then writes only the
/// per-segment winner (value, element index, direction); empty segments
/// get (0.0, -1, 0) like segmented_arg_max.
template <typename T, typename OffBuf, typename BestValBuf,
          typename BestIdxBuf, typename BestDirBuf, typename EvalFn>
void fused_gain_argmax(device::Device& dev, const OffBuf& seg_offsets,
                       const CarriedScan<T>& scan, BestValBuf& best_values,
                       BestIdxBuf& best_indices, BestDirBuf& best_dirs,
                       std::int64_t segs_per_block, EvalFn&& eval,
                       std::string_view name) {
  const std::int64_t n_seg = static_cast<std::int64_t>(seg_offsets.size()) - 1;
  if (n_seg <= 0) return;
  segs_per_block = std::max<std::int64_t>(1, segs_per_block);
  const std::int64_t grid = (n_seg + segs_per_block - 1) / segs_per_block;
  auto off = as_span(seg_offsets);
  auto bv = as_span(best_values);
  auto bi = as_span(best_indices);
  auto bd = as_span(best_dirs);
  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    const std::int64_t s_lo = b.block_idx() * segs_per_block;
    const std::int64_t s_hi = std::min(s_lo + segs_per_block, n_seg);
    std::uint64_t scanned = 0;
    for (std::int64_t s = s_lo; s < s_hi; ++s) {
      const std::int64_t lo = off[static_cast<std::size_t>(s)];
      const std::int64_t hi = off[static_cast<std::size_t>(s + 1)];
      double best = 0.0;
      std::int64_t best_i = -1;
      std::uint8_t best_d = 0;
      if (hi > lo) {
        b.reads(scan.partial, lo, hi - lo);
        b.mem_coalesced(static_cast<std::uint64_t>(hi - lo) * sizeof(T));
      }
      // Walk the segment one scan block at a time: the carry on read is
      // fixed per block (loaded once, at the block's first element).
      for (std::int64_t e = lo; e < hi;) {
        const std::int64_t g = e / kBlockDim;
        const std::int64_t chunk_hi = std::min(hi, (g + 1) * kBlockDim);
        if (scan.carried(g, lo)) {
          b.reads(scan.carries.span(), g);
          b.mem_coalesced(sizeof(T));
        }
        const T* c = scan.carry(g, lo);
        for (; e < chunk_hi; ++e) {
          T prefix = scan.partial[static_cast<std::size_t>(e)];
          if (c != nullptr) prefix += *c;
          const GainDir gd = eval(b, s, e, lo, hi, prefix);
          if (best_i < 0 || gd.gain > best) {
            best = gd.gain;
            best_i = e;
            best_d = gd.dir;
          }
        }
      }
      bv[static_cast<std::size_t>(s)] = best;
      bi[static_cast<std::size_t>(s)] = best_i;
      bd[static_cast<std::size_t>(s)] = best_d;
      scanned += static_cast<std::uint64_t>(hi - lo);
    }
    if (s_hi > s_lo) {
      b.reads(off, s_lo, s_hi - s_lo + 1);
      b.writes(bv, s_lo, s_hi - s_lo);
      b.writes(bi, s_lo, s_hi - s_lo);
      b.writes(bd, s_lo, s_hi - s_lo);
    }
    b.work(scanned);
    b.mem_coalesced(static_cast<std::uint64_t>(s_hi - s_lo) *
                    (sizeof(double) + 2 * sizeof(std::int64_t) + 2));
  });
}

}  // namespace gbdt::prim
