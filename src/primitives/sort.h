// Device radix sort for (uint64 key, uint32 payload) pairs, plus the
// order-preserving float<->uint32 key maps used to build composite
// (attribute, descending value) sort keys for the CSC attribute lists.
//
// LSD radix, 8-bit digits, stable: per pass a per-tile digit histogram, an
// exclusive scan over the digit-major (digit, tile) count matrix, and an
// order-preserving scatter — the classic GPU formulation.
#pragma once

#include <bit>
#include <cstdint>

#include "device/device_context.h"

namespace gbdt::prim {

/// Monotone bijection float -> uint32: a < b  <=>  key(a) < key(b).
[[nodiscard]] inline std::uint32_t float_to_ordered(float f) {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/// Inverse of float_to_ordered.
[[nodiscard]] inline float ordered_to_float(std::uint32_t k) {
  const std::uint32_t bits =
      (k & 0x80000000u) != 0 ? k & 0x7fffffffu : ~k;
  return std::bit_cast<float>(bits);
}

/// Composite key: attribute ascending, value descending within attribute.
[[nodiscard]] inline std::uint64_t column_desc_key(std::uint32_t attr,
                                                   float value) {
  return (static_cast<std::uint64_t>(attr) << 32) |
         static_cast<std::uint64_t>(~float_to_ordered(value));
}

/// Stable ascending sort of keys with payloads moved alongside.
/// `key_bits` limits the number of radix passes (e.g. 32 when the keys are
/// known to fit 32 bits); must be a multiple of 8.
void radix_sort_pairs(device::Device& dev,
                      device::DeviceBuffer<std::uint64_t>& keys,
                      device::DeviceBuffer<std::uint32_t>& values,
                      int key_bits = 64);

}  // namespace gbdt::prim
