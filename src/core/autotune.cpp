#include "core/autotune.h"

#include <algorithm>

#include "device/cost_model.h"
#include "device/kernel_stats.h"
#include "primitives/partition.h"
#include "primitives/segmented.h"

namespace gbdt::autotune {

namespace {

/// Only move off the paper's defaults for a predicted win beyond the
/// uniform-segment modeling slack.
constexpr double kMinWin = 0.03;

std::int64_t nodes_at_level(int level, std::int64_t n_instances) {
  const std::int64_t full =
      level >= 62 ? n_instances : std::int64_t{1} << level;
  return std::min(full, std::max<std::int64_t>(n_instances, 1));
}

/// Segments of a level with `nodes` nodes.  The exact trainer lists only
/// non-empty (node, attribute) segments, at most one per entry; the
/// histogram layout keeps every (node, attribute) pair.
std::int64_t level_segments(const ProblemShape& shape, const GBDTParam& param,
                            std::int64_t nodes) {
  const std::int64_t grid = nodes * shape.n_attributes;
  return param.use_hist_trainer ? grid : std::min(grid, shape.n_entries);
}

/// The set_keys launches the trainer makes, priced per candidate.  The
/// exact trainer keys every level of every tree, so one tree's levels are
/// summed (segment count doubles with depth up to the compact bound,
/// elements stay put).  The histogram trainer keys its fixed grid only when
/// a level is wider than any before it, growing the grid at least twofold,
/// so a training's launches are the first tree's growing levels, each over
/// the grid's slots.
double tree_set_keys_seconds(const device::CostModel& cm,
                             const ProblemShape& shape,
                             const GBDTParam& param, bool custom,
                             std::int64_t c) {
  double total = 0.0;
  std::int64_t grid_nodes = 0;
  for (int l = 0; l < param.depth; ++l) {
    std::int64_t nodes = nodes_at_level(l, shape.n_instances);
    if (param.use_hist_trainer) {
      if (nodes <= grid_nodes) continue;
      nodes = grid_nodes = std::max(nodes, 2 * grid_nodes);
    }
    const std::int64_t n_seg = level_segments(shape, param, nodes);
    const std::int64_t elems =
        param.use_hist_trainer ? n_seg * param.n_bins : shape.n_entries;
    const std::int64_t spb =
        custom ? prim::segs_per_block(n_seg, elems, cm.config().num_sms, c)
               : 1;
    total += set_keys_seconds(cm, n_seg, elems, spb);
  }
  return total;
}

/// Modeled seconds of the deepest order-preserving partition under the
/// given workload policy (the pass count is the real plan's).  The last
/// level's children are leaves and never partition, so the deepest one runs
/// at level depth - 2; a depth-1 tree has none to tune.  The exact trainer
/// partitions into both children of every listed segment; the histogram
/// trainer moves rows into the two children of every node.
double partition_seconds(const device::CostModel& cm,
                         const ProblemShape& shape, const GBDTParam& param,
                         bool customized) {
  if (param.depth < 2) return 0.0;
  const std::int64_t nodes =
      nodes_at_level(param.depth - 2, shape.n_instances);
  const std::int64_t n_parts = std::max<std::int64_t>(
      2 * (param.use_hist_trainer ? nodes
                                  : level_segments(shape, param, nodes)),
      1);
  const std::int64_t moved =
      param.use_hist_trainer ? shape.n_instances : shape.n_entries;
  if (moved <= 0) return 0.0;
  const prim::PartitionPlan plan = prim::plan_partition(
      moved, n_parts, prim::kPartitionCounterBudget, customized);
  device::KernelStats s;
  s.thread_work = static_cast<std::uint64_t>(moved);
  // part id read + the moved value and instance id, plus zero/scan of the
  // counters.
  s.coalesced_bytes =
      static_cast<std::uint64_t>(moved) *
          (sizeof(std::int32_t) + sizeof(std::int64_t)) +
      2 * static_cast<std::uint64_t>(plan.counter_bytes);
  s.blocks = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, plan.n_threads / 256));
  // The busiest block's threads each scan `workload` elements; a plan of
  // fewer than 256 threads fills only part of its one block.
  s.max_block_work = static_cast<std::uint64_t>(
      std::min<std::int64_t>(256, plan.n_threads) * plan.workload);
  return static_cast<double>(plan.passes) * cm.kernel_seconds(s);
}

}  // namespace

double set_keys_seconds(const device::CostModel& cm, std::int64_t n_seg,
                        std::int64_t n_elems, std::int64_t segs_per_block) {
  if (n_seg <= 0 || n_elems <= 0) return 0.0;
  segs_per_block = std::clamp<std::int64_t>(segs_per_block, 1, n_seg);
  device::KernelStats s;
  s.thread_work = static_cast<std::uint64_t>(n_elems);
  s.blocks = static_cast<std::uint64_t>((n_seg + segs_per_block - 1) /
                                        segs_per_block);
  s.max_block_work = static_cast<std::uint64_t>(
      (n_elems * segs_per_block + n_seg - 1) / n_seg);
  s.coalesced_bytes =
      static_cast<std::uint64_t>(n_elems) * sizeof(std::int32_t) +
      static_cast<std::uint64_t>(n_seg) * sizeof(std::int64_t);
  return cm.kernel_seconds(s);
}

ProblemShape problem_shape(const data::Dataset& ds) {
  return {ds.n_instances(), ds.n_attributes(), ds.n_entries()};
}

TuningReport tune(const device::DeviceConfig& cfg, const ProblemShape& shape,
                  const GBDTParam& param) {
  const device::CostModel cm(cfg);
  TuningReport t;

  // ---- SetKey constant C ---------------------------------------------------
  t.candidates.push_back(
      {0, false,
       tree_set_keys_seconds(cm, shape, param, /*custom=*/false, 0)});
  for (const std::int64_t c : {std::int64_t{1}, std::int64_t{10},
                               std::int64_t{100}, std::int64_t{250},
                               std::int64_t{500}, std::int64_t{1000},
                               std::int64_t{2000}, std::int64_t{4000}}) {
    t.candidates.push_back(
        {c, true, tree_set_keys_seconds(cm, shape, param, /*custom=*/true, c)});
  }
  const auto is_default = [](const SetKeyCandidate& c) {
    return c.use_custom_setkey && c.setkey_c == 1000;
  };
  const auto def = std::find_if(t.candidates.begin(), t.candidates.end(),
                                is_default);
  const auto best = std::min_element(
      t.candidates.begin(), t.candidates.end(),
      [](const SetKeyCandidate& a, const SetKeyCandidate& b) {
        return a.find_split_seconds < b.find_split_seconds;
      });
  t.baseline_find_split_seconds = def->find_split_seconds;
  if (best->find_split_seconds <
      def->find_split_seconds * (1.0 - kMinWin)) {
    t.setkey_c = best->use_custom_setkey ? best->setkey_c : param.setkey_c;
    t.use_custom_setkey = best->use_custom_setkey;
    t.tuned_find_split_seconds = best->find_split_seconds;
  } else {
    t.setkey_c = 1000;
    t.use_custom_setkey = true;
    t.tuned_find_split_seconds = def->find_split_seconds;
  }

  // ---- IdxComp workload policy --------------------------------------------
  t.partition_custom_seconds =
      partition_seconds(cm, shape, param, /*customized=*/true);
  t.partition_naive_seconds =
      partition_seconds(cm, shape, param, /*customized=*/false);
  t.use_custom_idxcomp_workload =
      t.partition_custom_seconds <=
      t.partition_naive_seconds * (1.0 + kMinWin);
  return t;
}

void apply(const TuningReport& t, GBDTParam& p) {
  p.setkey_c = t.setkey_c;
  p.use_custom_setkey = t.use_custom_setkey;
  p.use_custom_idxcomp_workload = t.use_custom_idxcomp_workload;
}

}  // namespace gbdt::autotune
