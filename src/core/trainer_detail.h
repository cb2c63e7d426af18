// Internal shared state of the GPU-GBDT trainer.  Not part of the public
// API — include core/trainer.h instead.
//
// The trainer keeps two copies of the attribute lists: the *original*
// root-level layout (built once per dataset, reused by every tree, as the
// paper notes for RLE: "the compressed data can be used ... the number of
// times equals to the number of trees"), and the *working* copy that gets
// partitioned as the current tree grows.
//
// Working layout invariants:
//  - the element domain is grouped into the level's non-empty
//    (active-node-slot, attribute) segments, listed once in a compact
//    segment table (SegmentTable): segment i has id slot * n_attr + attr,
//    ids ascend strictly, so the list is slot-major and attribute-ascending
//    inside a slot, and slot s owns the list range
//    [slot_offsets[s], slot_offsets[s + 1]);
//  - every listed segment holds at least one element; an (slot, attr) pair
//    with none is not listed, so per-segment arrays, grids and counters are
//    sized by the data, not by slots x n_attr;
//  - values are sorted descending inside each segment;
//  - instances absent from a segment have a missing value for that attribute
//    in that node;
//  - in RLE mode the per-element value array is replaced by runs
//    (run_values / run_starts / run_seg_offsets, the latter indexed by the
//    same list) while inst stays per-element.
// The root table lists the attributes with at least one element; each
// partition builds the next table from the current one (apply steps below).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/loss.h"
#include "core/param.h"
#include "core/tree.h"
#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/partition.h"

namespace gbdt::detail {

/// Fused (g, h) pair, stored and scanned as one element like the
/// float2/double2 loads real GPU GBDT implementations use (XGBoost GPU's
/// GradientPair).  Addition is component-wise, so one pair pass is
/// bit-identical to two separate passes with the same association.
struct GHPair {
  double g = 0.0;
  double h = 0.0;

  GHPair& operator+=(const GHPair& o) {
    g += o.g;
    h += o.h;
    return *this;
  }
  friend GHPair operator+(GHPair a, const GHPair& b) { return a += b; }
  friend bool operator==(const GHPair&, const GHPair&) = default;
};

/// An active (splittable) node of the level currently being processed.
struct ActiveNode {
  std::int32_t tree_node = 0;
  double sum_g = 0.0;
  double sum_h = 0.0;
  std::int64_t count = 0;
};

/// Result of the find-split phase for one active node.
struct BestSplit {
  bool valid = false;          // a split with gain > gamma exists
  double gain = 0.0;
  std::int32_t attr = -1;
  float split_value = 0.f;     // smallest value on the high (left) side
  bool default_left = false;   // direction for missing values
  std::int64_t seg = -1;       // global segment index of the winning attr
  std::int64_t pos = -1;       // element index (sparse) / run index (RLE)
  ActiveNode left;             // stats of the would-be children
  ActiveNode right;
};

/// Fills b.left / b.right of a winning candidate.  `prefix` sums the
/// `present_left` present instances on the high side of the split,
/// `seg_total` all `seg_len` present instances of the segment; the node's
/// missing instances follow b.default_left.
inline void set_children(BestSplit& b, const ActiveNode& node,
                         const GHPair& prefix, std::int64_t present_left,
                         const GHPair& seg_total, std::int64_t seg_len) {
  double left_g = prefix.g;
  double left_h = prefix.h;
  std::int64_t left_cnt = present_left;
  if (b.default_left) {
    left_g += node.sum_g - seg_total.g;
    left_h += node.sum_h - seg_total.h;
    left_cnt += node.count - seg_len;
  }
  b.left.sum_g = left_g;
  b.left.sum_h = left_h;
  b.left.count = left_cnt;
  b.right.sum_g = node.sum_g - left_g;
  b.right.sum_h = node.sum_h - left_h;
  b.right.count = node.count - left_cnt;
}

/// Host-side plan of one level's node splits (filled by decide_level in
/// core/level_driver.h, consumed by each path's apply step).
struct LevelPlan {
  struct Entry {
    bool split = false;
    std::int64_t chosen_seg = -1;
    std::int64_t best_pos = -1;
    std::int32_t left_id = -1;    // tree node ids of the children
    std::int32_t right_id = -1;
    bool default_left = false;
    std::int32_t attr = -1;
    float split_value = 0.f;
  };
  std::vector<Entry> per_slot;             // indexed by active slot
  std::vector<ActiveNode> next_active;     // children, in slot order
  /// next_slot_of_tree[tree_node] = slot in next_active, or -1.
  std::vector<std::int32_t> next_slot_of_tree;
  /// The children reach the depth limit and become leaves: the apply step
  /// updates only the instance->node map (all SmartGD reads) and skips the
  /// re-layout of the attribute lists, which the next tree rebuilds anyway.
  bool children_are_leaves = false;
};

/// One split step's host->device lookup tables, packed into one arena block
/// so the step pays a single latency-bound PCI-e upload.  mark_sides uploads
/// it; it stays in TrainState for the partition step, which the sharded path
/// runs after node_sync.  Every column is a span of int64 words in `block`.
struct SplitTables {
  device::ArenaBuffer<std::int64_t> block;
  // Indexed by tree node.
  std::span<const std::int64_t> default_child;  // -1: the node does not split
  std::span<const std::int64_t> next_slot;  // next level's slot, or -1; empty
                                            // when the children are leaves
  // Indexed by active slot: the split command of the exact-side kernels.
  // Non-splitting slots keep chosen_seg = -1 (matches no segment).
  std::span<const std::int64_t> chosen_seg;
  std::span<const std::int64_t> best_pos;
  std::span<const std::int64_t> left_id;
  std::span<const std::int64_t> right_id;
  // Indexed by next-level slot ns: the partition's candidate segments.
  // Candidate segments list, for each splitting slot p in order, the
  // children of p's segments: [left x segs(p)] [right x segs(p)], in the
  // next slots' order.  Next slot ns owns candidates [cand_base[ns],
  // cand_base[ns + 1]), and element key k of its parent segment becomes
  // candidate k + cand_shift[ns].  Empty when the children are leaves.
  std::span<const std::int64_t> cand_base;   // [n_next + 1]
  std::span<const std::int64_t> cand_shift;  // [n_next]
  std::int64_t n_candidates = 0;
  // Directly-Split-RLE only: the children's next-level slots per active slot
  // (-1 = leaf), and per next slot the shift from a parent run to its
  // candidate child run (one candidate per parent run and child).
  std::span<const std::int64_t> left_slot;
  std::span<const std::int64_t> right_slot;
  std::span<const std::int64_t> run_shift;  // [n_next]
  std::int64_t n_candidate_runs = 0;
  // Sharded path only: per tree node, the shard whose mark_sides result is
  // authoritative for the node's rows (-1: none), read by node_sync.
  std::span<const std::int64_t> owner;
};

/// One level's compact segment list (see the layout invariants above).
struct SegmentTable {
  /// Owns the columns; empty while they view the persistent root table.
  device::ArenaBuffer<std::int64_t> block;
  std::span<const std::int64_t> offsets;       // [size + 1], element domain
  std::span<const std::int64_t> ids;           // [size], slot * n_attr + attr
  std::span<const std::int64_t> slot_offsets;  // [n_slots + 1], list domain

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(ids.size());
  }
};

struct TrainState {
  TrainState(device::Device& d, const GBDTParam& p, const Loss& l)
      : dev(d), param(p), loss(l), arena(d.allocator()) {}

  device::Device& dev;
  const GBDTParam& param;
  const Loss& loss;

  /// Per-training-run scratch pool: every per-level/per-tree temporary is
  /// checked out of here, so steady-state levels perform ~zero real device
  /// allocations (the pool grows to the high-water mark and stays).
  device::WorkspaceArena arena;

  std::int64_t n_inst = 0;
  std::int64_t n_attr = 0;

  // ---- original (root-level) layout, built once -------------------------
  device::DeviceBuffer<float> orig_values;           // empty in RLE mode
  device::DeviceBuffer<std::int32_t> orig_inst;
  // The root segment table: the attributes with at least one element.
  device::DeviceBuffer<std::int64_t> orig_seg_offsets;  // [n_root_segs + 1]
  device::DeviceBuffer<std::int64_t> orig_seg_ids;      // [n_root_segs]
  device::DeviceBuffer<std::int64_t> orig_slot_offsets;  // {0, n_root_segs}
  bool rle = false;
  device::DeviceBuffer<float> orig_run_values;
  device::DeviceBuffer<std::int64_t> orig_run_starts;
  device::DeviceBuffer<std::int64_t> orig_run_seg_offsets;
  std::int64_t orig_n_runs = 0;
  double rle_ratio = 1.0;

  // ---- working copy, re-initialised per tree (arena-pooled) -------------
  device::ArenaBuffer<float> values;
  device::ArenaBuffer<std::int32_t> inst;
  SegmentTable seg;
  std::int64_t n_elems = 0;
  device::ArenaBuffer<float> run_values;
  device::ArenaBuffer<std::int64_t> run_starts;     // [n_runs + 1]
  device::ArenaBuffer<std::int64_t> run_seg_offsets;
  std::int64_t n_runs = 0;

  // Element->segment (or run->segment) keys, written by the find phase and
  // reused by the apply phase of the same level.
  device::ArenaBuffer<std::int32_t> keys;
  device::ArenaBuffer<std::int32_t> run_keys;

  // The current split step's uploaded tables (mark_sides to partition).
  SplitTables split_tables;

  // ---- per-instance state ------------------------------------------------
  /// Per-instance (g, h) gradient pairs, one 16-byte element each, so every
  /// gather by instance id costs one random transaction, not two.
  device::DeviceBuffer<GHPair> gh;
  device::DeviceBuffer<float> y_pred;
  device::DeviceBuffer<std::int32_t> node_of;  // tree node id per instance

  // ---- objective/sampling layer (src/objective/) -------------------------
  /// Current tree's feature bag (shard-local attribute ids in the multi-GPU
  /// path), installed by objective::RoundDriver::begin_round.  Empty = all
  /// attributes visible; the gain kernels then take the exact pre-sampling
  /// code path, so the disabled configuration stays bitwise-identical.
  std::span<const std::uint8_t> feature_mask;

  // ---- per-level host state ----------------------------------------------
  std::vector<ActiveNode> active;
  Tree* tree = nullptr;

  [[nodiscard]] std::int64_t n_active() const {
    return static_cast<std::int64_t>(active.size());
  }
  /// SetKey grid of `n_segments` segments over `n_elements` elements (or
  /// runs, or bins): prim::segs_per_block, or 1 for the naive Fig 9 ablation.
  [[nodiscard]] std::int64_t segs_per_block(std::int64_t n_segments,
                                            std::int64_t n_elements) const;
  [[nodiscard]] std::int64_t current_tree_nodes() const {
    return tree->n_nodes();
  }
};

/// Per-slot statistics packed into one record so the per-level upload is a
/// single PCI-e transfer (latency-dominated at this size: one 10us transfer
/// instead of three).
using SlotStat = GainStats;

/// Uploads the active slots' stats once per level (arena-pooled:
/// re-uploading each level reuses the same block).
[[nodiscard]] device::ArenaBuffer<SlotStat> upload_slot_tables(TrainState& st);

/// Allocates gh / y_pred / node_of for st.n_inst rows and fills
/// y_pred with the base score.
void alloc_instance_state(TrainState& st);

/// Fills off[s] = s * stride for s in [0, n_slots] on the device: the root
/// listing's {0, n_attr} marks.  The table is tiny and latency-bound, so one
/// kernel launch (~1us) beats the PCI-e upload (~10us latency).
[[nodiscard]] device::ArenaBuffer<std::int64_t> device_node_offsets(
    TrainState& st, std::int64_t n_slots, std::int64_t stride);

/// Builds and uploads the split step's tables for `plan` (one transfer).
/// next_slot is filled unless the children are leaves; the child-slot
/// columns too when `child_slots` is set (Directly-Split-RLE), and the owner
/// column from `owner_of_node` (the sharded path's node_sync table).
[[nodiscard]] SplitTables upload_split_tables(
    TrainState& st, const LevelPlan& plan, bool child_slots,
    std::span<const std::int32_t> owner_of_node = {});

/// Elements the partition keeps: all of a splitting slot's segments (its
/// instances move to the two children), none of a leaf's.  Host glue over
/// O(slots) entries of the segment table, so the moved lists can be sized
/// before the partition writes them.
[[nodiscard]] std::int64_t kept_elements(const TrainState& st,
                                         const LevelPlan& plan);

/// Builds the root segment table from CSC column offsets ([n_attr + 1]):
/// lists the attributes with at least one element (st.orig_seg_*).  Once
/// per dataset, before RLE compression, which then compresses by segment.
void build_root_segments(TrainState& st,
                         const device::DeviceBuffer<std::int64_t>& col_offsets);

/// The next level's segment table while a partition lists it: one arena
/// block holding room for every candidate segment (st.split_tables), its
/// PartList (offsets, and the next slots' offsets as the ranks of the
/// candidate bases), the ids column and, when asked for, each listed
/// segment's candidate index (Directly-Split-RLE reads it back).
struct NextSegments {
  device::ArenaBuffer<std::int64_t> block;
  prim::PartList list;
  std::span<std::int64_t> ids;
  std::span<std::int64_t> cand;
  std::int64_t n_slots = 0;

  /// Names listed candidate p (PartList's `name`): the next slot ns holding
  /// it, found by binary search of the O(slots) candidate bases, and the
  /// attribute of its parent segment p - cand_shift[ns] give its id.
  struct Namer {
    std::span<const std::int64_t> cand_base;
    std::span<const std::int64_t> cand_shift;
    std::span<const std::int64_t> parent_ids;
    std::span<std::int64_t> ids;
    std::span<std::int64_t> cand;
    std::int64_t n_attr = 0;
    void operator()(device::BlockCtx& b, std::int64_t i, std::int64_t p) const;
  };
  [[nodiscard]] Namer namer(const TrainState& st) const;
};
[[nodiscard]] NextSegments begin_next_segments(TrainState& st,
                                               bool keep_candidates);
/// The listed table, trimmed to its size, as a SegmentTable (moves the
/// block; `next.cand` stays readable until the table is released).
[[nodiscard]] SegmentTable finish_next_segments(NextSegments& next);

/// Releases the working layout, its keys and the split tables after a level
/// whose children are leaves: nothing reads them before reset_working_layout
/// rebuilds the lists for the next tree.
void release_working_layout(TrainState& st);

/// Per-segment gain winners of one level's find step (sparse or RLE), as
/// prim::fused_gain_argmax writes them: value, element index, direction.
struct SegmentWinners {
  device::ArenaBuffer<double> val;
  device::ArenaBuffer<std::int64_t> idx;
  device::ArenaBuffer<std::uint8_t> dir;
};

/// Best attribute per node over the per-segment winners (paper step iii),
/// read back on the host: fills valid / gain / seg / pos / attr /
/// default_left of out[s] for every active slot whose best gain is
/// positive, and returns those slots.  `node_name` labels the argmax pass.
[[nodiscard]] std::vector<std::size_t> pick_winners(
    TrainState& st, const SegmentWinners& w, const char* node_name,
    std::vector<BestSplit>& out);

/// Sparse (uncompressed) path.  apply_splits_sparse = mark_sides +
/// partition (mark_sides and release_working_layout when the children are
/// leaves); the halves are exposed separately because the multi-GPU trainer
/// synchronises the instance->node map between them.  mark_sides uploads
/// st.split_tables (with the sharded path's `owner_of_node` column), the
/// partition consumes them.
[[nodiscard]] std::vector<BestSplit> find_splits_sparse(TrainState& st);
void apply_mark_sides_sparse(TrainState& st, const LevelPlan& plan,
                             std::span<const std::int32_t> owner_of_node = {});
void apply_partition_sparse(TrainState& st, const LevelPlan& plan);
void apply_splits_sparse(TrainState& st, const LevelPlan& plan);

/// Per-instance gradient/prediction kernels (shared with the multi-GPU
/// trainer, which runs them replicated on every shard).
void compute_gradients(TrainState& st,
                       const device::DeviceBuffer<float>& labels);
void update_predictions_smart(TrainState& st, const Tree& tree);

/// Restores the working attribute-list layout from the root-level
/// originals (start of every tree).
void reset_working_layout(TrainState& st);

/// RLE path.
[[nodiscard]] std::vector<BestSplit> find_splits_rle(TrainState& st);
void apply_splits_rle(TrainState& st, const LevelPlan& plan);

/// Shared by the sparse and RLE paths: updates node_of for every instance of
/// a splitting node to its default child (st.split_tables), then lets the
/// path-specific element/run kernel overwrite the exact side for present
/// instances.
void assign_default_children(TrainState& st);

/// Arena-pooled upload: checks a block out of the arena and copies the host
/// vector into it (PCI-e accounted), so per-level lookup tables stop hitting
/// the device allocator after the first level.
template <typename T>
[[nodiscard]] device::ArenaBuffer<T> upload_pooled(
    device::Device& dev, device::WorkspaceArena& arena,
    const std::vector<T>& host) {
  auto buf = arena.alloc<T>(host.size());
  dev.copy_to_device<T>(host, buf.backing());
  return buf;
}

}  // namespace gbdt::detail
