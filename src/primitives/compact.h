// Stream compaction: keep the flagged elements of an array, preserving order
// (Thrust copy_if analog), built from exclusive scan + scatter.  The
// trainers do not call it: Directly-Split-RLE (paper Section III-C, Figure
// 7) fuses its flags into the candidate pass and compacts the runs' values
// and lengths in one kernel of its own (core/trainer_rle.cpp).
#pragma once

#include <cstdint>
#include <string_view>

#include "device/device_context.h"
#include "primitives/scan.h"
#include "primitives/transform.h"

namespace gbdt::prim {

/// Compacts `in` into `out` keeping elements whose flag is non-zero; returns
/// the number of kept elements.  `out` must be at least in.size() long (use
/// DeviceBuffer::shrink afterwards to return the slack).
template <typename T>
[[nodiscard]] std::int64_t compact(device::Device& dev,
                                   const device::DeviceBuffer<T>& in,
                                   const device::DeviceBuffer<std::uint8_t>& flags,
                                   device::DeviceBuffer<T>& out,
                                   std::string_view name = "compact") {
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  if (n == 0) return 0;
  auto positions = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
  {
    auto flag_wide = dev.alloc<std::int64_t>(static_cast<std::size_t>(n));
    auto f = flags.span();
    auto fw = flag_wide.span();
    dev.launch("compact_widen", device::grid_for(n, kBlockDim), kBlockDim,
               [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t i) {
                   if (i < n) {
                     const auto u = static_cast<std::size_t>(i);
                     fw[u] = f[u] != 0 ? 1 : 0;
                   }
                 });
                 b.reads_tile(f, n);
                 b.writes_tile(fw, n);
                 b.mem_coalesced(elems_in_block(b, n) * (1 + 8));
               });
    exclusive_scan(dev, flag_wide, positions, "compact_scan");
  }

  std::int64_t kept = 0;
  auto src = in.span();
  auto f = flags.span();
  auto pos = positions.span();
  auto dst = out.span();
  dev.launch(name, device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) {
                   const auto u = static_cast<std::size_t>(i);
                   if (f[u] != 0) {
                     dst[static_cast<std::size_t>(pos[u])] = src[u];
                     b.writes(dst, pos[u]);
                   }
                 }
               });
               b.reads_tile(src, n);
               b.reads_tile(f, n);
               b.reads_tile(pos, n);
               // Writes land densely in order, so they coalesce.
               b.mem_coalesced(elems_in_block(b, n) * (sizeof(T) + 9) +
                               elems_in_block(b, n) * sizeof(T));
             });
  // Kept count = scan total (last position + last flag).
  kept = pos[static_cast<std::size_t>(n - 1)] +
         (f[static_cast<std::size_t>(n - 1)] != 0 ? 1 : 0);
  return kept;
}

}  // namespace gbdt::prim
