// Device reductions: sum, max, and argmax, via the standard two-level GPU
// scheme (per-block partial reduction, then a single-block final pass).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "device/device_context.h"
#include "primitives/transform.h"

namespace gbdt::prim {

/// The final pass of a reduction that keeps its total on the host only.
struct NoStore {
  template <typename Acc>
  void operator()(device::BlockCtx& /*b*/, const Acc& /*total*/) const {}
};

/// combine() of map(in[i]) over all elements, from `init`: per-block
/// partials in ascending element order, then one single-block pass over the
/// partials in block order.  One pass serves reductions of several fields
/// (a (g, h) pair's sums or abs-maxima) at once.  The final pass also hands
/// the total to `store(b, total)`, which may write it to device memory
/// (declaring and charging its own write).
template <typename Acc, typename T, typename Map, typename Combine,
          typename Store = NoStore>
[[nodiscard]] Acc map_reduce(device::Device& dev,
                             const device::DeviceBuffer<T>& in, Acc init,
                             Map&& map, Combine&& combine,
                             std::string_view name, Store&& store = {}) {
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  if (n == 0) return init;
  const std::int64_t grid = device::grid_for(n, kBlockDim);
  auto partials = dev.alloc<Acc>(static_cast<std::size_t>(grid));
  auto src = in.span();
  auto part = partials.span();
  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    Acc acc = init;
    b.for_each_thread([&](std::int64_t i) {
      if (i < n) acc = combine(acc, map(src[static_cast<std::size_t>(i)]));
    });
    part[static_cast<std::size_t>(b.block_idx())] = acc;
    b.reads_tile(src, n);
    b.writes(part, b.block_idx());
    b.mem_coalesced(elems_in_block(b, n) * sizeof(T) + sizeof(Acc));
  });
  Acc total = init;
  // block-disjoint: single-block final pass, so the captured accumulator is
  // written by exactly one block.
  dev.launch("reduce_final", 1, kBlockDim, [&](device::BlockCtx& b) {
    for (std::int64_t i = 0; i < grid; ++i) {
      total = combine(total, part[static_cast<std::size_t>(i)]);
    }
    b.reads(part, 0, grid);
    b.work(static_cast<std::uint64_t>(grid));
    b.mem_coalesced(static_cast<std::uint64_t>(grid) * sizeof(Acc));
    store(b, total);
  });
  return total;
}

/// Sum of all elements.  Accumulates in Acc (use double for float inputs so
/// the result does not depend on the block decomposition at float precision).
/// `store` as in map_reduce.
template <typename T, typename Acc = T, typename Store = NoStore>
[[nodiscard]] Acc reduce_sum(device::Device& dev,
                             const device::DeviceBuffer<T>& in,
                             std::string_view name = "reduce_sum",
                             Store&& store = {}) {
  return map_reduce(
      dev, in, Acc{}, [](const T& x) { return static_cast<Acc>(x); },
      [](Acc a, const Acc& x) { return a += x; }, name,
      std::forward<Store>(store));
}

/// Result of an argmax reduction.
template <typename T>
struct ArgMax {
  T value{};
  std::int64_t index = -1;  // -1 when the input is empty
};

/// Position and value of the maximum element; ties resolve to the lowest
/// index so results are independent of the block decomposition.
template <typename T>
[[nodiscard]] ArgMax<T> arg_max(device::Device& dev,
                                const device::DeviceBuffer<T>& in,
                                std::string_view name = "arg_max") {
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  ArgMax<T> result;
  if (n == 0) return result;
  const std::int64_t grid = device::grid_for(n, kBlockDim);
  auto vals = dev.alloc<T>(static_cast<std::size_t>(grid));
  auto idxs = dev.alloc<std::int64_t>(static_cast<std::size_t>(grid));
  auto src = in.span();
  auto pv = vals.span();
  auto pi = idxs.span();
  dev.launch(name, grid, kBlockDim, [&](device::BlockCtx& b) {
    T best{};
    std::int64_t best_i = -1;
    b.for_each_thread([&](std::int64_t i) {
      if (i < n) {
        const T v = src[static_cast<std::size_t>(i)];
        if (best_i < 0 || v > best) {
          best = v;
          best_i = i;
        }
      }
    });
    pv[static_cast<std::size_t>(b.block_idx())] = best;
    pi[static_cast<std::size_t>(b.block_idx())] = best_i;
    b.reads_tile(src, n);
    b.writes(pv, b.block_idx());
    b.writes(pi, b.block_idx());
    b.mem_coalesced(elems_in_block(b, n) * sizeof(T) + sizeof(T) + 8);
  });
  // block-disjoint: single-block final pass, so the captured result struct is
  // written by exactly one block.
  dev.launch("arg_max_final", 1, kBlockDim, [&](device::BlockCtx& b) {
    for (std::int64_t g = 0; g < grid; ++g) {
      const auto u = static_cast<std::size_t>(g);
      if (pi[u] >= 0 && (result.index < 0 || pv[u] > result.value)) {
        result.value = pv[u];
        result.index = pi[u];
      }
    }
    b.reads(pv, 0, grid);
    b.reads(pi, 0, grid);
    b.work(static_cast<std::uint64_t>(grid));
    b.mem_coalesced(static_cast<std::uint64_t>(grid) * (sizeof(T) + 8));
  });
  return result;
}

}  // namespace gbdt::prim
