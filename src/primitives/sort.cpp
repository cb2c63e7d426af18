#include "primitives/sort.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "primitives/scan.h"
#include "primitives/transform.h"

namespace gbdt::prim {

namespace {
constexpr int kRadixBits = 8;
constexpr int kRadix = 1 << kRadixBits;
}  // namespace

void radix_sort_pairs(device::Device& dev,
                      device::DeviceBuffer<std::uint64_t>& keys,
                      device::DeviceBuffer<std::uint32_t>& values,
                      int key_bits) {
  assert(key_bits % kRadixBits == 0 && key_bits <= 64);
  const std::int64_t n = static_cast<std::int64_t>(keys.size());
  assert(values.size() == keys.size());
  if (n <= 1) return;

  const std::int64_t tiles = device::grid_for(n, kBlockDim);
  auto tmp_keys = dev.alloc<std::uint64_t>(static_cast<std::size_t>(n));
  auto tmp_vals = dev.alloc<std::uint32_t>(static_cast<std::size_t>(n));
  // Digit-major (digit, tile) count matrix so the flat exclusive scan yields
  // stable global scatter bases.
  auto counts =
      dev.alloc<std::int64_t>(static_cast<std::size_t>(tiles) * kRadix);
  auto bases =
      dev.alloc<std::int64_t>(static_cast<std::size_t>(tiles) * kRadix);

  auto* src_k = &keys;
  auto* src_v = &values;
  auto* dst_k = &tmp_keys;
  auto* dst_v = &tmp_vals;

  for (int shift = 0; shift < key_bits; shift += kRadixBits) {
    auto sk = src_k->span();
    auto sv = src_v->span();
    auto dk = dst_k->span();
    auto dv = dst_v->span();
    auto cnt = counts.span();
    auto base = bases.span();

    dev.launch("radix_hist", tiles, kBlockDim, [&](device::BlockCtx& b) {
      std::array<std::int64_t, kRadix> local{};
      const std::int64_t lo = b.block_idx() * b.block_dim();
      const std::int64_t hi = std::min<std::int64_t>(lo + b.block_dim(), n);
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto digit = static_cast<std::uint32_t>(
            (sk[static_cast<std::size_t>(i)] >> shift) & (kRadix - 1));
        ++local[digit];
      }
      for (int d = 0; d < kRadix; ++d) {
        cnt[static_cast<std::size_t>(d) * tiles +
            static_cast<std::size_t>(b.block_idx())] = local[d];
        b.writes(cnt, static_cast<std::int64_t>(d) * tiles + b.block_idx());
      }
      b.reads(sk, lo, hi - lo);
      const std::uint64_t m = elems_in_block(b, n);
      b.work(m + kRadix);
      b.mem_coalesced(m * sizeof(std::uint64_t) +
                      kRadix * sizeof(std::int64_t));
    });

    exclusive_scan(dev, counts, bases, "radix_scan");

    dev.launch("radix_scatter", tiles, kBlockDim, [&](device::BlockCtx& b) {
      std::array<std::int64_t, kRadix> cursor;
      const auto tile = static_cast<std::size_t>(b.block_idx());
      for (int d = 0; d < kRadix; ++d) {
        cursor[d] = base[static_cast<std::size_t>(d) * tiles + tile];
        b.reads(base, static_cast<std::int64_t>(d) * tiles + b.block_idx());
      }
      const std::int64_t lo = b.block_idx() * b.block_dim();
      const std::int64_t hi = std::min<std::int64_t>(lo + b.block_dim(), n);
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<std::size_t>(i);
        const auto digit = static_cast<std::uint32_t>(
            (sk[u] >> shift) & (kRadix - 1));
        const auto pos = static_cast<std::size_t>(cursor[digit]++);
        dk[pos] = sk[u];
        dv[pos] = sv[u];
        // The per-digit cursor slices are disjoint across tiles by
        // construction of the scanned bases; the auditor verifies it.
        b.writes(dk, static_cast<std::int64_t>(pos));
        b.writes(dv, static_cast<std::int64_t>(pos));
      }
      b.reads(sk, lo, hi - lo);
      b.reads(sv, lo, hi - lo);
      const std::uint64_t m = elems_in_block(b, n);
      b.work(m + kRadix);
      b.mem_coalesced(m * (sizeof(std::uint64_t) + sizeof(std::uint32_t)) +
                      kRadix * sizeof(std::int64_t));
      // Scattered writes hit kRadix moving fronts; roughly 1 transaction per
      // 4 elements coalesces within a front.
      b.mem_irregular(m / 4 + 1);
    });

    std::swap(src_k, dst_k);
    std::swap(src_v, dst_v);
  }

  // After an odd number of passes the result lives in the temporaries; move
  // it back with a device-side copy kernel.
  if (src_k != &keys) {
    auto sk = src_k->span();
    auto sv = src_v->span();
    auto dk = keys.span();
    auto dv = values.span();
    dev.launch("radix_copy_back", tiles, kBlockDim, [&](device::BlockCtx& b) {
      b.for_each_thread([&](std::int64_t i) {
        if (i < n) {
          const auto u = static_cast<std::size_t>(i);
          dk[u] = sk[u];
          dv[u] = sv[u];
        }
      });
      b.reads_tile(sk, n);
      b.reads_tile(sv, n);
      b.writes_tile(dk, n);
      b.writes_tile(dv, n);
      b.mem_coalesced(elems_in_block(b, n) * 2 *
                      (sizeof(std::uint64_t) + sizeof(std::uint32_t)));
    });
  }
}


}  // namespace gbdt::prim
