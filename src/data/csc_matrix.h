// Sorted attribute lists (the transposed, per-attribute-sorted layout of
// paper Section II-A): for every attribute, the (instance, value) pairs of
// all instances that have the attribute, sorted by value *descending*.  This
// is the representation GPU-GBDT trains on; instances absent from a column
// have a missing value there and follow the learned default direction.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt::data {

/// Host-side CSC with per-column descending value order.
struct CscMatrix {
  std::int64_t n_instances = 0;
  std::int64_t n_attributes = 0;
  /// col_offsets[a] .. col_offsets[a+1] delimit attribute a's entries.
  std::vector<std::int64_t> col_offsets;
  std::vector<float> values;        // sorted desc within each column
  std::vector<std::int32_t> inst_ids;  // aligned with values

  [[nodiscard]] std::int64_t n_entries() const {
    return static_cast<std::int64_t>(values.size());
  }
  [[nodiscard]] std::size_t bytes() const {
    return values.size() * sizeof(float) +
           inst_ids.size() * sizeof(std::int32_t) +
           col_offsets.size() * sizeof(std::int64_t);
  }
};

/// Builds the CSC on the host (std::stable_sort per column).  Ties keep
/// ascending instance order, matching the device build exactly.
[[nodiscard]] CscMatrix build_csc_host(const Dataset& ds);

/// The same CSC resident on a simulated device.
struct DeviceCsc {
  std::int64_t n_instances = 0;
  std::int64_t n_attributes = 0;
  device::DeviceBuffer<std::int64_t> col_offsets;
  device::DeviceBuffer<float> values;
  device::DeviceBuffer<std::int32_t> inst_ids;
};

/// Transfers the raw entries over PCI-e and sorts them into CSC layout on the
/// device with one composite-key radix sort (attribute asc, value desc,
/// instance asc for ties) — the pipeline GPU-GBDT runs once per dataset.
[[nodiscard]] DeviceCsc build_csc_device(device::Device& dev, const Dataset& ds);

}  // namespace gbdt::data
