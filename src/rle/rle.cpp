#include "rle/rle.h"

#include <algorithm>

#include "primitives/scan.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"

namespace gbdt::rle {

using prim::kBlockDim;

namespace {

/// Dual-storage scratch: pooled when an arena is available, owned otherwise.
template <typename T>
struct Scratch {
  device::DeviceBuffer<T> owned;
  device::ArenaBuffer<T> pooled;
  bool from_arena = false;

  Scratch(device::Device& dev, device::WorkspaceArena* arena, std::size_t n)
      : from_arena(arena != nullptr) {
    if (from_arena) {
      pooled = arena->alloc<T>(n);
    } else {
      owned = dev.alloc<T>(n);
    }
  }
  [[nodiscard]] std::span<T> span() {
    return from_arena ? pooled.span() : owned.span();
  }
};

}  // namespace

DeviceRle compress(device::Device& dev, std::span<const float> values,
                   std::span<const std::int64_t> elem_seg_offsets,
                   device::WorkspaceArena* arena) {
  DeviceRle out;
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  const std::int64_t n_seg =
      static_cast<std::int64_t>(elem_seg_offsets.size()) - 1;
  out.n_elements = n;
  if (n == 0) {
    out.values = dev.alloc<float>(0);
    out.starts = dev.alloc<std::int64_t>(1);
    out.seg_offsets = dev.alloc<std::int64_t>(
        static_cast<std::size_t>(std::max<std::int64_t>(n_seg, 0)) + 1);
    prim::fill(dev, out.seg_offsets, std::int64_t{0});
    return out;
  }

  // Segment key per element, so run heads are forced at segment starts.
  Scratch<std::int32_t> keys(dev, arena, static_cast<std::size_t>(n));
  auto keys_span = keys.span();
  prim::set_keys(dev, elem_seg_offsets, keys_span,
                 prim::segs_per_block(n_seg, n, dev.config().num_sms));

  // Head flags -> run index per element (exclusive scan).
  Scratch<std::int64_t> head(dev, arena, static_cast<std::size_t>(n));
  {
    auto v = values;
    auto k = keys.span();
    auto h = head.span();
    dev.launch("rle_flag_heads", device::grid_for(n, kBlockDim), kBlockDim,
               [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t i) {
                   if (i >= n) return;
                   const auto u = static_cast<std::size_t>(i);
                   h[u] = (i == 0 || v[u] != v[u - 1] || k[u] != k[u - 1]) ? 1 : 0;
                 });
                 b.reads_tile(v, n);
                 b.reads_tile(k, n);
                 b.writes_tile(h, n);
                 b.mem_coalesced(prim::elems_in_block(b, n) * 16);
               });
  }
  Scratch<std::int64_t> run_idx(dev, arena, static_cast<std::size_t>(n));
  auto head_span = head.span();
  auto run_idx_span = run_idx.span();
  prim::exclusive_scan(dev, head_span, run_idx_span, "rle_head_scan", arena);
  out.n_runs = run_idx_span[static_cast<std::size_t>(n - 1)] +
               head_span[static_cast<std::size_t>(n - 1)];

  // Scatter run values and element-domain starts.
  out.values = dev.alloc<float>(static_cast<std::size_t>(out.n_runs));
  out.starts = dev.alloc<std::int64_t>(static_cast<std::size_t>(out.n_runs) + 1);
  {
    auto v = values;
    auto h = head.span();
    auto r = run_idx.span();
    auto rv = out.values.span();
    auto rs = out.starts.span();
    dev.launch("rle_emit_runs", device::grid_for(n, kBlockDim), kBlockDim,
               [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t i) {
                   if (i >= n) return;
                   const auto u = static_cast<std::size_t>(i);
                   if (h[u] != 0) {
                     const auto dst = static_cast<std::size_t>(r[u]);
                     rv[dst] = v[u];
                     rs[dst] = i;
                     b.writes(rv, r[u]);
                     b.writes(rs, r[u]);
                   }
                 });
                 b.reads_tile(v, n);
                 b.reads_tile(h, n);
                 b.reads_tile(r, n);
                 const auto m = prim::elems_in_block(b, n);
                 b.mem_coalesced(m * 20);
                 b.mem_irregular(m / 4 + 1);  // head-density-dependent writes
               });
    out.starts[static_cast<std::size_t>(out.n_runs)] = n;
  }

  // Segment offsets in the run domain: the element at a segment start is
  // always a run head, so its run index is the segment's first run.
  out.seg_offsets =
      dev.alloc<std::int64_t>(static_cast<std::size_t>(n_seg) + 1);
  {
    auto eoff = elem_seg_offsets;
    auto r = run_idx.span();
    auto soff = out.seg_offsets.span();
    const std::int64_t runs = out.n_runs;
    dev.launch("rle_seg_offsets", device::grid_for(n_seg + 1, kBlockDim),
               kBlockDim, [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t s) {
                   if (s > n_seg) return;
                   const auto e = eoff[static_cast<std::size_t>(s)];
                   soff[static_cast<std::size_t>(s)] =
                       e >= n ? runs : r[static_cast<std::size_t>(e)];
                   if (e < n) b.reads(r, e);
                   b.writes(soff, s);
                 });
                 b.reads_tile(eoff, n_seg + 1);
                 const auto m = prim::elems_in_block(b, n_seg + 1);
                 b.mem_coalesced(m * 16);
                 b.mem_irregular(m);  // offset-directed lookups
               });
  }
  return out;
}

void decompress(device::Device& dev, const DeviceRle& rle,
                device::DeviceBuffer<float>& out) {
  const std::int64_t n_runs = rle.n_runs;
  if (n_runs == 0) return;
  auto rv = rle.values.span();
  auto rs = rle.starts.span();
  auto o = out.span();
  dev.launch("rle_decompress", device::grid_for(n_runs, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               std::uint64_t written = 0;
               b.for_each_thread([&](std::int64_t r) {
                 if (r >= n_runs) return;
                 const auto u = static_cast<std::size_t>(r);
                 const float v = rv[u];
                 for (std::int64_t e = rs[u]; e < rs[u + 1]; ++e) {
                   o[static_cast<std::size_t>(e)] = v;
                 }
                 b.writes(o, rs[u], rs[u + 1] - rs[u]);
                 written += static_cast<std::uint64_t>(rs[u + 1] - rs[u]);
               });
               b.reads_tile(rv, n_runs);
               b.reads_tile(rs, n_runs + 1);
               b.work(written);
               b.mem_coalesced(written * sizeof(float) +
                               prim::elems_in_block(b, n_runs) * 20);
             });
}

}  // namespace gbdt::rle
