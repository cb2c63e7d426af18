// Out-of-core GBDT training: datasets whose attribute lists do not fit the
// device train by streaming column chunks over PCI-e each level.
//
// This addresses the paper's motivating constraint head-on ("GPUs have
// relatively small memory ... we should make full use of the GPU memory to
// efficiently handle large datasets, and reduce data transferring between
// CPUs and GPUs"):
//
//  * only the per-instance state (gradients, predictions, instance->node
//    map) is resident on the device — O(n_instances) — plus every chunk's
//    column offsets, uploaded once per training run, and the tree being
//    grown, which is decided level by level on the device like the
//    in-core trainers' and read back once per tree;
//  * the root-sorted attribute lists stay on the host as packed
//    (value, inst) entries and are streamed in column chunks once per
//    level; enumeration uses position lookups against the resident
//    instance->node map, so the lists are never partitioned and never
//    reshipped in a different order.  A chunk costs one PCI-e transfer (two
//    when RLE-compressed: inst ids and runs).  Chunk uploads ride a
//    dedicated copy stream that double-buffers one chunk ahead of the
//    compute stream (event-ordered, race-checked), so PCI-e time hides
//    under enumeration; GBDT_SYNC_STREAMS=1 routes both streams through
//    the default stream for a bitwise-identical serial schedule;
//  * chunks whose columns all fall outside the tree's feature bag are
//    skipped;
//  * each chunk's per-(column, node) winners are folded on the device into
//    each node's running best, in one table of (#chunk-attributes + 1) x
//    #nodes records; the level is decided from it on the device, and its
//    decided records come back in one transfer, which gives the next
//    level's size and the winning attributes;
//  * the split step uploads each distinct winning attribute's column once,
//    through the same two slots, runs one exact-side kernel per column for
//    every node that split on it (reading the split from the device tree),
//    then sends the nodes' other instances to their default children.
//
// A chunk holds up to chunk_bytes / 12 entries; a column never splits
// across chunks, so a column with more entries than that still streams as
// one oversized chunk.
//
// The price is PCI-e traffic proportional to (#entries x depth x trees) —
// exactly the traffic the paper's RLE compression attacks, which
// `stream_compressed` applies: chunks whose value arrays compress well ship
// as RLE runs.  Trees are equivalent to the in-core exact trainer
// (identical splits up to floating-point tie-breaks).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/loss.h"
#include "core/param.h"
#include "core/trainer.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

class OutOfCoreTrainer {
 public:
  /// chunk_bytes bounds the device footprint of one streamed column chunk;
  /// stream_compressed ships RLE-compressed value arrays when a chunk's
  /// values compress (the paper's PCI-e traffic argument).
  OutOfCoreTrainer(device::Device& dev, GBDTParam param,
                   std::size_t chunk_bytes = std::size_t{64} << 20,
                   bool stream_compressed = true);

  /// Trains on `ds` and reports like GpuGbdtTrainer: modeled seconds are
  /// the device clock's advance over the call.  The streaming accounting
  /// lives on the device's timeline; read it with the functions below.
  [[nodiscard]] TrainReport train(const data::Dataset& ds);

 private:
  device::Device& dev_;
  GBDTParam param_;
  std::size_t chunk_bytes_;
  bool stream_compressed_;
  std::unique_ptr<Loss> loss_;
};

/// PCI-e bytes the out-of-core trainer streamed on a device: the sum of its
/// timeline's `stream_ooc_upload_*` records (column chunks and split
/// columns).
[[nodiscard]] std::uint64_t streamed_bytes(const device::Timeline& t);

/// Column chunks streamed per level: each level a tree enters ships every
/// chunk in the tree's feature bag once, as one entries (raw) or inst-id
/// (RLE) upload.  `trees` are the forest trained on the device, grown to at
/// most `depth`; the result is rounded down.
[[nodiscard]] std::uint64_t chunks_per_level(const device::Timeline& t,
                                             const std::vector<Tree>& trees,
                                             int depth);

}  // namespace gbdt
