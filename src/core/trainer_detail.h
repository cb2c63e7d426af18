// Internal shared state of the GPU-GBDT trainer.  Not part of the public
// API — include core/trainer.h instead.
//
// The attribute lists exist once at the root: the *original* root-level
// layout, built once per dataset and reused by every tree, as the paper
// notes for RLE ("the compressed data can be used ... the number of times
// equals to the number of trees").  Each level reads its lists through
// read-only LevelList views: the root level views the originals in place,
// and every partition writes the next level's lists into fresh arena blocks
// that the next level's views own.  Nothing writes a level's lists in
// place, so a tree never copies the originals.
//
// Level layout invariants:
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
#include <string_view>
#include <utility>
#include <vector>

#include "core/loss.h"
#include "core/param.h"
#include "core/tree.h"
#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/fused_split.h"
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

/// An active (splittable) node of the level being decided: a slot's
/// statistics as decide_slots hands them to a winner.
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
  std::int32_t owner = -1;     // sharded exact path: the shard holding seg/pos
  std::int64_t seg = -1;       // global segment index of the winning attr
  std::int64_t pos = -1;       // element index (sparse) / run index (RLE)
  ActiveNode left;             // stats of the would-be children
  ActiveNode right;
};

/// The sharded candidate merge's combine: the higher gain, ties to the lower
/// attribute (the order a single device enumerates).  Attribute ids are
/// global, so the fold order cannot change the winner.
inline BestSplit better_split(const BestSplit& a, const BestSplit& b) {
  if (!b.valid) return a;
  if (!a.valid) return b;
  return b.gain > a.gain || (b.gain == a.gain && b.attr < a.attr) ? b : a;
}

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

/// One level's split tables, written on the device by the decide kernel
/// (decide_on_device) into one arena block, and the level's sizes, which
/// the host reads to size the split step.  The rest of the decision lives
/// in the device tree (TrainState::nodes): slot s of the level is tree node
/// level_base + s, a splitting node's children are its `left` and
/// `left + 1`, and next-level slot k is tree node next_base + k.
struct SplitTables {
  device::ArenaBuffer<std::int64_t> block;
  // Indexed by active slot: the split command of the exact-side kernels.
  // -1 where the slot does not split (matches no segment), and on the
  // sharded path where another shard holds the winning attribute.
  std::span<const std::int64_t> chosen_seg;
  std::span<const std::int64_t> best_pos;
  // Indexed by next-level slot ns: the partition's candidate segments.
  // Candidate segments list, for each splitting slot p in order, the
  // children of p's segments: [left x segs(p)] [right x segs(p)], in the
  // next slots' order.  Next slot ns owns candidates [cand_base[ns],
  // cand_base[ns + 1]), and element key k of its parent segment becomes
  // candidate k + cand_shift[ns].  Empty when the children are leaves.
  std::span<const std::int64_t> cand_base;   // [n_next + 1]
  std::span<const std::int64_t> cand_shift;  // [n_next]
  // Directly-Split-RLE only: per next slot the shift from a parent run to
  // its candidate child run (one candidate per parent run and child).
  std::span<const std::int64_t> run_shift;  // [n_next]
  // Sharded path only: per tree node, the shard whose mark_sides result is
  // authoritative for the node's rows (-1: none), read by node_sync.
  std::span<const std::int64_t> owner;

  // ---- sizes, read by the host --------------------------------------------
  std::int64_t next_base = 0;  // tree node of next-level slot 0
  std::int64_t n_next = 0;     // next-level slots (children)
  std::int64_t kept = 0;       // elements the partition keeps
  std::int64_t n_candidates = 0;
  std::int64_t n_candidate_runs = 0;
  /// Sharded path only: rows of the splitting nodes per owning shard (the
  /// node_sync message sizes).
  std::vector<std::int64_t> rows_of_owner;

  /// Next-level slot of tree node `node`, or -1 when it is no child of
  /// this level.
  [[nodiscard]] std::int64_t next_slot(std::int64_t node) const {
    return node >= next_base ? node - next_base : -1;
  }
};

/// One of a level's attribute lists, read-only: a view of the persistent
/// root list on the root level, else of the arena block the previous
/// partition wrote, which it then owns (the view-or-own shape of
/// SegmentTable).
template <typename T>
class LevelList {
 public:
  LevelList() = default;
  /// Views a root list in place.
  explicit LevelList(std::span<const T> root) : view_(root) {}
  /// Owns the block a partition wrote.
  LevelList(device::ArenaBuffer<T>&& block)
      : block_(std::move(block)), view_(std::as_const(block_).span()) {}

  [[nodiscard]] std::span<const T> span() const { return view_; }
  [[nodiscard]] std::size_t size() const { return view_.size(); }

  void free() {
    block_.free();
    view_ = {};
  }

 private:
  device::ArenaBuffer<T> block_;  // empty while viewing a root list
  std::span<const T> view_;
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

/// Per-segment gain winners of one level's find step (sparse or RLE), as
/// prim::fused_gain_argmax writes them: value, element index, direction.
struct SegmentWinners {
  device::ArenaBuffer<double> val;
  device::ArenaBuffer<std::int64_t> idx;
  device::ArenaBuffer<std::uint8_t> dir;
};

/// The find step's outputs that the split decision reads.  A position is
/// an element (sparse) or an RLE run; `w` and `node_*` say which position
/// wins each segment and which segment wins each slot (paper step iii).
struct SplitSearch {
  SegmentWinners w;
  device::ArenaBuffer<double> node_val;        // [slots] best segment gain
  device::ArenaBuffer<std::int64_t> node_idx;  // [slots] best segment, or -1
  device::ArenaBuffer<GHPair> partial;  // the carried scan's storage
  prim::CarriedScan<GHPair> scan;       // inclusive (g, h) per position
  device::ArenaBuffer<GHPair> seg_tot;  // [segments] present totals
  std::span<const std::int64_t> seg_ids;   // [segments] slot * n_attr + attr
  std::span<const std::int64_t> seg_pos;   // [segments + 1] first position
  std::span<const std::int64_t> pos_elem;  // RLE: [runs + 1] first element
                                           // of each run; empty for sparse
  std::span<const float> pos_value;        // [positions] attribute value
  std::int64_t n_attr = 0;

  /// Slot s's winner over node statistics `node`: valid when its best gain
  /// is positive, with attr / seg / pos / split value / direction and the
  /// would-be children (set_children).  Runs inside a device kernel and
  /// charges one irregular transaction per gathered field.
  [[nodiscard]] BestSplit winner(device::BlockCtx& b, std::int64_t s,
                                 const ActiveNode& node) const;
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

  // ---- the current level's lists (views of the originals at the root) ---
  LevelList<float> values;
  LevelList<std::int32_t> inst;
  SegmentTable seg;
  std::int64_t n_elems = 0;
  LevelList<float> run_values;
  LevelList<std::int64_t> run_starts;     // [n_runs + 1]
  LevelList<std::int64_t> run_seg_offsets;
  std::int64_t n_runs = 0;

  // Element->segment (or run->segment) keys, written by the find phase and
  // reused by the apply phase of the same level.
  device::ArenaBuffer<std::int32_t> keys;
  device::ArenaBuffer<std::int32_t> run_keys;

  // ---- the device-decided tree --------------------------------------------
  /// The tree being grown, decided level by level on the device: sized for
  /// the deepest tree (alloc_device_tree), read back once per tree.  Slot s
  /// of the current level is node level_base + s, so the nodes' statistics
  /// are the level's slot statistics.
  device::DeviceBuffer<TreeNode> nodes;
  std::int64_t level_base = 0;
  std::int64_t n_slots = 0;
  /// The exact paths' find-step outputs (find step to decision).
  SplitSearch search;
  // The exact paths' decision tables (decision to partition).
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

  /// SetKey grid of `n_segments` segments over `n_elements` elements (or
  /// runs, or bins): prim::segs_per_block, or 1 for the naive Fig 9 ablation.
  [[nodiscard]] std::int64_t segs_per_block(std::int64_t n_segments,
                                            std::int64_t n_elements) const;
};

/// Allocates gh / y_pred / node_of for st.n_inst rows and fills
/// y_pred with the base score.
void alloc_instance_state(TrainState& st);

/// Fills off[s] = s * stride for s in [0, n_slots] on the device: the root
/// listing's {0, n_attr} marks.  The table is tiny and latency-bound, so one
/// kernel launch (~1us) beats the PCI-e upload (~10us latency).
[[nodiscard]] device::ArenaBuffer<std::int64_t> device_node_offsets(
    TrainState& st, std::int64_t n_slots, std::int64_t stride);

/// Allocates st.nodes for the largest tree st.param can grow over `n_rows`
/// rows (every shard's, on a row-sharded path): min(2^(depth+1) - 1,
/// 2 * n_rows - 1) nodes, as every leaf holds a row.
void alloc_device_tree(TrainState& st, std::int64_t n_rows);

/// Starts a tree on the device: reduces the gradient pairs (kernel
/// `kernel_name`), whose final pass writes the root record st.nodes[0], and
/// makes the root the level's only slot.
void begin_device_tree(TrainState& st, std::string_view kernel_name);

/// The split decision of the current level as one one-block kernel
/// (`decide_level`): decide_slot for every slot over its winner, the tree
/// records of the slots and their children (child_node), and st.split_tables
/// with the sizes the host reads.  Winners come from `records` when given
/// (the sharded path's merged winners, whose seg/pos count only where
/// owner == `shard`; `n_shards` > 1 adds the owner column and the rows per
/// owner), else from st.search.  Advances nothing: the level's slots stay
/// current until advance_level.
void decide_on_device(TrainState& st, bool children_are_leaves,
                      std::span<const BestSplit> records = {}, int shard = 0,
                      int n_shards = 1);

/// Makes the decided level's `n_next` children the current slots (the
/// split step may have released st.split_tables by then).
void advance_level(TrainState& st, std::int64_t n_next);

/// Reads the finished device tree back to the host (one PCI-e transfer).
[[nodiscard]] Tree read_device_tree(TrainState& st);

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

/// Releases the level's lists, its keys and the split tables after a level
/// whose children are leaves: nothing reads them before reset_working_layout
/// views the root lists for the next tree.
void release_working_layout(TrainState& st);

/// Each slot's best segment over st.search's per-segment winners (paper
/// step iii): the `node_name` argmax pass writes st.search.node_val /
/// node_idx.  Part of the find step, under its setkey_argmax span.
void pick_node_winners(TrainState& st, const char* node_name);

/// The sharded path's winner records: st.search's winner of every slot,
/// its local attribute mapped to the global id attr * n_shards + shard (the
/// round-robin shard map) and its owner set to `shard`, written to `out`
/// ([slots]) for the allreduce.
void assemble_winners(TrainState& st, std::span<BestSplit> out, int n_shards,
                      int shard);

/// Sparse (uncompressed) path.  find_splits_sparse fills st.search.
/// apply_splits_sparse = mark_sides + partition (mark_sides and
/// release_working_layout when the children are leaves); the halves are
/// exposed separately because the multi-GPU trainer synchronises the
/// instance->node map between them.  Both read the decided level
/// (st.nodes, st.split_tables).
void find_splits_sparse(TrainState& st);
void apply_mark_sides_sparse(TrainState& st);
void apply_partition_sparse(TrainState& st);
void apply_splits_sparse(TrainState& st, bool children_are_leaves);

/// Per-instance gradient/prediction kernels (shared with the multi-GPU
/// trainer, which runs them replicated on every shard).
void compute_gradients(TrainState& st,
                       const device::DeviceBuffer<float>& labels);
/// SmartGD: adds each instance's leaf weight in the device tree st.nodes
/// (the tree st's last level closed) to its prediction.
void update_predictions_smart(TrainState& st);

/// Starts a tree's lists: the root level views the root-level originals in
/// place, and every instance starts in the root.
void reset_working_layout(TrainState& st);

/// RLE path.
void find_splits_rle(TrainState& st);
void apply_splits_rle(TrainState& st, bool children_are_leaves);

/// Shared by the sparse and RLE paths: updates node_of for every instance of
/// a splitting node to its default child (the device tree), then lets the
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
