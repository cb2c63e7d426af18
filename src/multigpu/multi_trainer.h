// Multi-GPU GBDT training — the paper's stated future work ("our algorithm
// is naturally applicable to multiple GPUs or GPU clusters", Section VI).
//
// The exact method shards attributes over K simulated devices: attribute a
// lives on device a % K as local attribute a / K, and per-instance state is
// replicated.  Each level merges per-node best split candidates, then
// synchronises the instance->node map (only the winning attribute's owner
// knows the exact sides).
//
// With --method=hist the shards switch to row parallelism: each device owns
// a contiguous row range, bins it against the *global* dataset's quantile
// cuts, and every level allreduces the accumulated (smaller-sibling)
// histogram slots — histograms, not candidates — after which all shards
// reach bitwise-identical split decisions with no further communication
// (the production data-parallel scheme of LightGBM/XGBoost).  Each shard
// keeps its own histogram segment grid, keyed only when a level outgrows it.
//
// All merges run through multigpu::allreduce (ring by default, tree or
// all-to-one selectable through the trainer's AllreduceAlgo; all-to-one
// restores the legacy merge bit-for-bit).  Communication is modeled over a
// configurable interconnect and rides per-shard dedicated comm streams with
// record_event/wait_event edges, so the race detector checks the comm
// schedule and the per-device clocks price it.
//
// The exact-mode trees are equivalent to single-device training (identical
// splits up to floating-point tie-breaks; see EXPERIMENTS.md); hist-mode
// forests are bitwise identical to the single-device hist trainer.  RLE mode
// is not sharded — the multi-GPU exact path trains on the sparse
// representation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/param.h"
#include "core/trainer.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_config.h"
#include "multigpu/allreduce.h"

namespace gbdt::multigpu {

/// A TrainReport plus what one device cannot have.  `modeled_seconds` is
/// the critical path: the sum over parallel steps of the slowest shard's
/// clock advance.  Comm legs advance the shards' comm-stream clocks, so
/// `comm.seconds` is included in it, not additive.  `peak_device_bytes` is
/// the largest shard's peak.
struct MultiTrainReport : TrainReport {
  /// Every collective and node_sync leg of the training.
  AllreduceReport comm;
  /// Each shard's own modeled clock at the end of the training.
  std::vector<double> device_seconds;
};

class MultiGpuTrainer {
 public:
  /// n_devices identical devices of configuration `cfg`.  With
  /// param.use_hist_trainer the shards train the histogram method over row
  /// shards; otherwise the exact method over round-robin attribute shards.
  /// `algo` picks the collective every merge runs through.
  MultiGpuTrainer(device::DeviceConfig cfg, int n_devices, GBDTParam param,
                  Interconnect link = Interconnect::pcie3(),
                  AllreduceAlgo algo = AllreduceAlgo::kRing);
  ~MultiGpuTrainer();

  [[nodiscard]] MultiTrainReport train(const data::Dataset& ds);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gbdt::multigpu
