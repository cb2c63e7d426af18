// Element-wise device primitives: fill, iota, transform, gather, scatter.
//
// Each primitive launches one simulated kernel with a 256-thread block
// decomposition and counts its memory traffic: sequential streams are
// coalesced, index-directed accesses (gather/scatter) are irregular.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "device/device_context.h"

namespace gbdt::prim {

inline constexpr int kBlockDim = 256;

/// Normalises "anything with .span()" (DeviceBuffer, ArenaBuffer) or a plain
/// span to a std::span, so primitives work on pooled and owned storage alike.
template <typename T>
[[nodiscard]] inline std::span<T> as_span(std::span<T> s) {
  return s;
}
template <typename B>
[[nodiscard]] inline auto as_span(B& b) {
  return b.span();
}

/// Element type a buffer-like argument yields through as_span.
template <typename B>
using buffer_element_t =
    typename decltype(as_span(std::declval<B&>()))::element_type;

/// Number of in-range elements covered by block b of an n-element kernel.
[[nodiscard]] inline std::uint64_t elems_in_block(const device::BlockCtx& b,
                                                  std::int64_t n) {
  const std::int64_t lo = b.block_idx() * b.block_dim();
  const std::int64_t hi = lo + b.block_dim();
  if (lo >= n) return 0;
  return static_cast<std::uint64_t>((hi < n ? hi : n) - lo);
}

/// out[i] = value for all i.
template <typename OutBuf, typename T>
void fill(device::Device& dev, OutBuf& out, T value) {
  const std::int64_t n = static_cast<std::int64_t>(out.size());
  auto o = as_span(out);
  dev.launch("fill", device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) o[static_cast<std::size_t>(i)] = value;
               });
               b.writes_tile(o, n);
               b.mem_coalesced(elems_in_block(b, n) *
                               sizeof(buffer_element_t<OutBuf>));
             });
}

/// out[i] = start + i.
template <typename OutBuf, typename T = buffer_element_t<OutBuf>>
void iota(device::Device& dev, OutBuf& out, T start = T{}) {
  const std::int64_t n = static_cast<std::int64_t>(out.size());
  auto o = as_span(out);
  dev.launch("iota", device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) o[static_cast<std::size_t>(i)] = start + static_cast<T>(i);
               });
               b.writes_tile(o, n);
               b.mem_coalesced(elems_in_block(b, n) * sizeof(T));
             });
}

/// out[i] = f(in[i]).
template <typename InBuf, typename OutBuf, typename F>
void transform(device::Device& dev, const InBuf& in, OutBuf& out, F&& f,
               std::string_view name = "transform") {
  using In = std::remove_const_t<buffer_element_t<const InBuf>>;
  using Out = buffer_element_t<OutBuf>;
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  auto src = as_span(in);
  auto dst = as_span(out);
  dev.launch(name, device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) {
                   const auto u = static_cast<std::size_t>(i);
                   dst[u] = f(src[u]);
                 }
               });
               b.reads_tile(src, n);
               b.writes_tile(dst, n);
               b.mem_coalesced(elems_in_block(b, n) * (sizeof(In) + sizeof(Out)));
             });
}

/// out[i] = src[map[i]] — the map-directed read is irregular.
template <typename SrcBuf, typename MapBuf, typename OutBuf>
void gather(device::Device& dev, const SrcBuf& src, const MapBuf& map,
            OutBuf& out, std::string_view name = "gather") {
  using T = buffer_element_t<OutBuf>;
  using I = std::remove_const_t<buffer_element_t<const MapBuf>>;
  const std::int64_t n = static_cast<std::int64_t>(map.size());
  auto s = as_span(src);
  auto m = as_span(map);
  auto o = as_span(out);
  dev.launch(name, device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) {
                   const auto u = static_cast<std::size_t>(i);
                   o[u] = s[static_cast<std::size_t>(m[u])];
                   b.reads(s, static_cast<std::int64_t>(m[u]));
                 }
               });
               b.reads_tile(m, n);
               b.writes_tile(o, n);
               const std::uint64_t cnt = elems_in_block(b, n);
               b.mem_coalesced(cnt * (sizeof(I) + sizeof(T)));
               b.mem_irregular(cnt);  // src[map[i]]
             });
}

/// out[map[i]] = src[i] — the map-directed write is irregular.
template <typename SrcBuf, typename MapBuf, typename OutBuf>
void scatter(device::Device& dev, const SrcBuf& src, const MapBuf& map,
             OutBuf& out, std::string_view name = "scatter") {
  using T = buffer_element_t<OutBuf>;
  using I = std::remove_const_t<buffer_element_t<const MapBuf>>;
  const std::int64_t n = static_cast<std::int64_t>(src.size());
  auto s = as_span(src);
  auto m = as_span(map);
  auto o = as_span(out);
  dev.launch(name, device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) {
                   const auto u = static_cast<std::size_t>(i);
                   o[static_cast<std::size_t>(m[u])] = s[u];
                   b.writes(o, static_cast<std::int64_t>(m[u]));
                 }
               });
               b.reads_tile(s, n);
               b.reads_tile(m, n);
               const std::uint64_t cnt = elems_in_block(b, n);
               b.mem_coalesced(cnt * (sizeof(I) + sizeof(T)));
               b.mem_irregular(cnt);  // out[map[i]]
             });
}

}  // namespace gbdt::prim
