// Structural invariant checks for the trainer paths, gated behind the
// GBDT_CHECK_INVARIANTS flag (environment variable or programmatic toggle).
//
// Every optimization in the paper — RLE compression, Directly-Split-RLE,
// the order-preserving partition, SmartGD — is claimed to be *exact*.  The
// checks in this header make the structural half of that claim executable:
// trainers call them at their hook points, and when checking is enabled a
// violated invariant throws InvariantViolation with enough context to
// pinpoint the broken kernel.  When disabled (the default) every check is a
// single relaxed atomic load, so the hooks are free in normal builds.
//
// Checked invariants:
//  * attribute lists stay value-sorted (descending) inside every segment
//    after each order-preserving partition;
//  * segment offsets are monotone and cover the whole element/run domain;
//  * RLE runs have positive length, strictly descending distinct values per
//    segment, and run/element segment boundaries agree;
//  * decompress(compress(x)) == x for the root-level RLE build;
//  * child instance counts (and gradient sums) conserve the parent, both in
//    the decided tree and in the device instance->node map;
//  * the instance->leaf map SmartGD gathers through matches a host-side
//    traversal of the finished tree (the gradients it produces are exactly
//    the traversal-computed ones).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"
#include "rle/rle.h"

namespace gbdt::detail {
struct TrainState;
}  // namespace gbdt::detail

namespace gbdt::testing {

/// Thrown by any check when its invariant does not hold.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error("invariant violation: " + what) {}
};

/// Whether the trainer hook points run their checks.  Initialised lazily
/// from the GBDT_CHECK_INVARIANTS environment variable ("1"/"on"/"true");
/// set_invariants_enabled overrides it (tests, the fuzz harness).
[[nodiscard]] bool invariants_enabled();
void set_invariants_enabled(bool enabled);

/// Test-only fault injection: lets the fuzz self-test corrupt trainer state
/// on purpose and verify the invariant checker catches it.  All flags are
/// off by default and only honoured while invariants are enabled.
struct FaultInjection {
  /// Break the descending value order of one partitioned segment (sparse
  /// path): the next check_sparse_layout must throw.
  bool break_partition_order = false;
  /// Drop one instance from a child count of the decided level before the
  /// conservation check (bookkeeping corruption).
  bool break_child_counts = false;
  /// Corrupt one derived cell after the histogram-subtraction kernel: the
  /// hist trainer's bitwise subtraction self-check must throw.
  bool break_hist_subtraction = false;
  /// Publish a torn serving snapshot: one leaf weight is flipped *after*
  /// the snapshot's fingerprint is taken, modeling a reader observing a
  /// half-swapped forest.  The serving layer's per-batch snapshot verify
  /// must throw.
  bool serve_torn_swap = false;
};
[[nodiscard]] FaultInjection& fault_injection();

/// Applies any armed fault to the values a sparse partition just wrote,
/// segmented by `seg_offsets` (no-op unless invariants are enabled and a
/// fault is armed).
void maybe_inject_partition_fault(std::span<const std::int64_t> seg_offsets,
                                  std::span<float> values);

// ---- layout checks (called after each order-preserving partition) ---------

/// Sparse working layout over the compact segment table of `n_slots`
/// slots: ids strictly ascending in (slot, attr) with every id in its
/// slot's list range, the slot offsets covering the list, every listed
/// segment non-empty and the element offsets covering [0, n_elems]; values
/// sorted descending inside every segment, instance ids in range.
void check_sparse_layout(const detail::TrainState& st, std::int64_t n_slots,
                         const char* where);

/// RLE working layout: the same segment table checks, run_starts strictly
/// increasing (positive run lengths) covering [0, n_elems], run_seg_offsets
/// strictly increasing over [0, n_runs] (every listed segment holds a run),
/// strictly descending distinct run values inside every segment, and
/// element-domain segment offsets consistent with the run domain.
void check_rle_layout(const detail::TrainState& st, std::int64_t n_slots,
                      const char* where);

/// decompress(compressed) must reproduce `original` bit for bit.
void check_rle_roundtrip(device::Device& dev, const rle::DeviceRle& compressed,
                         const device::DeviceBuffer<float>& original,
                         const char* where);

// ---- conservation checks ---------------------------------------------------

/// The level the device decided (TrainState::nodes, slots level_base ..
/// level_base + n_slots): each splitting node's children must conserve its
/// instance count exactly and its gradient/hessian sums to within fp
/// tolerance, with both children non-empty; the device instance->node map
/// must agree with the children's counts.
void check_level_conservation(const detail::TrainState& st,
                              const char* where);

/// The histogram trainer's slot-sorted row index: slot s's range
/// [slot_rows[s], slot_rows[s + 1]) holds, in ascending order, exactly the
/// rows whose instance->node entry is nodes[s].
void check_row_index(std::span<const std::int32_t> rows,
                     std::span<const std::int64_t> slot_rows,
                     std::span<const std::int32_t> node_of,
                     std::span<const std::int32_t> nodes, const char* where);

// ---- SmartGD ---------------------------------------------------------------

/// The instance->leaf map left by tree construction (what SmartGD gathers
/// its prediction updates through) must match a host-side traversal of the
/// finished tree for every training instance.
void check_leaf_map(std::span<const std::int32_t> node_of, const Tree& tree,
                    const data::Dataset& ds, const char* where);

}  // namespace gbdt::testing
