#include "core/trainer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/level_driver.h"
#include "core/predictor.h"
#include "core/trainer_detail.h"
#include "core/trainer_hist.h"
#include "data/csc_matrix.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/reduce.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "rle/rle.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::GHPair;
using detail::TrainState;
using device::Device;
using device::DeviceBuffer;
using prim::kBlockDim;

namespace detail {

std::int64_t TrainState::segs_per_block(std::int64_t n_segments,
                                        std::int64_t n_elements) const {
  return param.use_custom_setkey
             ? prim::segs_per_block(n_segments, n_elements,
                                    dev.config().num_sms, param.setkey_c)
             : 1;
}

void alloc_instance_state(TrainState& st) {
  const auto n = static_cast<std::size_t>(st.n_inst);
  st.gh = st.dev.alloc<GHPair>(n);
  st.y_pred = st.dev.alloc<float>(n);
  st.node_of = st.dev.alloc<std::int32_t>(n);
  prim::fill(st.dev, st.y_pred, static_cast<float>(st.param.base_score));
}

void alloc_device_tree(TrainState& st, std::int64_t n_rows) {
  // 2^(depth+1) - 1 nodes at most, and 2 * n_rows - 1 (each leaf holds a
  // row); the shift is capped where the row bound always binds.
  const int depth = std::min(st.param.depth, 40);
  const std::int64_t full = (std::int64_t{1} << (depth + 1)) - 1;
  st.nodes = st.dev.alloc<TreeNode>(
      static_cast<std::size_t>(std::min(full, 2 * n_rows - 1)));
}

void begin_device_tree(TrainState& st, std::string_view kernel_name) {
  auto nodes = st.nodes.span();
  const std::int64_t n = st.n_inst;
  const GBDTParam& p = st.param;
  (void)prim::reduce_sum(
      st.dev, st.gh, kernel_name,
      [nodes, n, &p](device::BlockCtx& b, const GHPair& total) {
        nodes[0] = child_node(ActiveNode{0, total.g, total.h, n},
                              /*leaf=*/false, p);
        b.writes(nodes, 0);
        b.mem_coalesced(sizeof(TreeNode));
      });
  st.level_base = 0;
  st.n_slots = 1;
}

void decide_on_device(TrainState& st, bool children_are_leaves,
                      std::span<const BestSplit> records, int shard,
                      int n_shards) {
  const std::int64_t n_slots = st.n_slots;
  const std::int64_t next_base = st.level_base + n_slots;
  const bool partition = !children_are_leaves;
  const bool runs = partition && st.rle && st.param.use_direct_rle_split;
  const bool sharded = n_shards > 1;
  const auto slots = static_cast<std::size_t>(n_slots);
  const std::size_t max_next = 2 * slots;

  // The block's columns, back to back, each sized for every slot splitting;
  // the sizes go last.
  SplitTables& t = st.split_tables;
  t = SplitTables{};
  const std::size_t n_owner =
      sharded ? static_cast<std::size_t>(next_base) + max_next : 0;
  const std::size_t n_sizes = 4 + (sharded ? static_cast<std::size_t>(n_shards)
                                           : 0);
  const std::size_t words = 2 * slots + (partition ? 2 * max_next + 1 : 0) +
                            (runs ? max_next : 0) + n_owner + n_sizes;
  t.block = st.arena.alloc<std::int64_t>(words);
  const std::span<std::int64_t> all = t.block.span();
  std::size_t at = 0;
  const auto column = [&all, &at](std::size_t len) {
    const std::span<std::int64_t> c = all.subspan(at, len);
    at += len;
    return c;
  };
  const auto seg = column(slots);
  const auto pos = column(slots);
  const auto cbase = column(partition ? max_next + 1 : 0);
  const auto cshift = column(partition ? max_next : 0);
  const auto rshift = column(runs ? max_next : 0);
  const auto own = column(n_owner);
  const auto sizes = column(n_sizes);

  const auto so = st.seg.slot_offsets;
  const auto off = st.seg.offsets;
  const auto rso = st.run_seg_offsets.span();
  const SplitSearch& search = st.search;
  st.dev.launch(
      "decide_level", 1, kBlockDim, [&](device::BlockCtx& b) {
        std::fill(own.begin(), own.end(), -1);
        std::fill(sizes.begin(), sizes.end(), 0);
        std::fill(seg.begin(), seg.end(), -1);
        std::fill(pos.begin(), pos.end(), -1);
        std::int64_t kept = 0;
        std::int64_t cands = 0;
        std::int64_t cand_runs = 0;
        // Scattered transactions besides the records and the winner's own
        // gathers: per split, the kept range's element offsets and, when
        // asked for, its run offsets and the owner entries.
        std::uint64_t irregular = 0;
        const std::int64_t n_next = decide_slots(
            b, st, children_are_leaves,
            [&](std::int64_t s, const ActiveNode& node) {
              return records.empty() ? search.winner(b, s, node)
                                     : records[static_cast<std::size_t>(s)];
            },
            [&](std::int64_t s, const ActiveNode& node, const BestSplit& w,
                std::int64_t l) {
              const auto u = static_cast<std::size_t>(s);
              if (records.empty() || w.owner == shard) {
                seg[u] = w.seg;
                pos[u] = w.pos;
              }
              // The slot's segments [so[s], so[s + 1]) move to both
              // children.
              const std::int64_t lo = so[u];
              const std::int64_t hi = so[u + 1];
              kept += off[static_cast<std::size_t>(hi)] -
                      off[static_cast<std::size_t>(lo)];
              irregular += 2;
              const std::int64_t run_lo =
                  runs ? rso[static_cast<std::size_t>(lo)] : 0;
              const std::int64_t run_hi =
                  runs ? rso[static_cast<std::size_t>(hi)] : 0;
              if (runs) irregular += 2;
              for (std::int64_t c = 0; c < 2; ++c) {
                const auto ns = static_cast<std::size_t>(l + c);
                if (partition) {
                  cbase[ns] = cands;
                  cshift[ns] = cands - lo;
                  cands += hi - lo;
                }
                if (runs) {
                  rshift[ns] = cand_runs - run_lo;
                  cand_runs += run_hi - run_lo;
                }
              }
              if (sharded) {
                own[static_cast<std::size_t>(next_base + l)] = w.owner;
                own[static_cast<std::size_t>(next_base + l + 1)] = w.owner;
                sizes[4 + static_cast<std::size_t>(w.owner)] += node.count;
                irregular += 3;
              }
            });
        if (partition) cbase[static_cast<std::size_t>(n_next)] = cands;
        sizes[0] = n_next;
        sizes[1] = kept;
        sizes[2] = cands;
        sizes[3] = cand_runs;

        b.reads(so, 0, n_slots + 1);
        b.reads(off, 0, static_cast<std::int64_t>(off.size()));
        b.reads(rso, 0, runs ? static_cast<std::int64_t>(rso.size()) : 0);
        b.writes(all, 0, static_cast<std::int64_t>(words));
        if (!records.empty()) b.reads(records, 0, n_slots);
        b.mem_irregular(irregular);
        // Streamed: the records (in slot order), each slot's range and split
        // command, the next slots' candidate columns, the owner column's
        // fill and the sizes.
        const auto next = static_cast<std::uint64_t>(n_next);
        b.mem_coalesced((records.empty() ? 0 : slots * sizeof(BestSplit)) +
                        (3 * slots + (2 + (runs ? 1 : 0)) * next + n_owner +
                         n_sizes) *
                            sizeof(std::int64_t));
      });

  // The sizes the host reads; the columns shrink to the next level's slots.
  t.next_base = next_base;
  t.n_next = sizes[0];
  t.kept = sizes[1];
  t.n_candidates = sizes[2];
  t.n_candidate_runs = sizes[3];
  t.rows_of_owner.assign(sizes.begin() + 4, sizes.end());
  const auto next = static_cast<std::size_t>(t.n_next);
  t.chosen_seg = seg;
  t.best_pos = pos;
  if (partition) {
    t.cand_base = cbase.first(next + 1);
    t.cand_shift = cshift.first(next);
  }
  if (runs) t.run_shift = rshift.first(next);
  t.owner = own.first(sharded ? static_cast<std::size_t>(next_base) + next : 0);
}

void advance_level(TrainState& st, std::int64_t n_next) {
  st.level_base += st.n_slots;
  st.n_slots = n_next;
  st.split_tables = {};
}

Tree read_device_tree(TrainState& st) {
  return Tree(st.dev.to_host(
      st.nodes, static_cast<std::size_t>(st.level_base + st.n_slots)));
}

void release_working_layout(TrainState& st) {
  st.values.free();
  st.inst.free();
  st.seg = {};
  st.run_values.free();
  st.run_starts.free();
  st.run_seg_offsets.free();
  st.keys.free();
  st.run_keys.free();
  st.split_tables = {};
  st.n_elems = 0;
  st.n_runs = 0;
}

void build_root_segments(TrainState& st,
                         const DeviceBuffer<std::int64_t>& col_offsets) {
  auto& dev = st.dev;
  const auto n_attr = static_cast<std::int64_t>(col_offsets.size()) - 1;
  st.orig_seg_offsets =
      dev.alloc<std::int64_t>(static_cast<std::size_t>(n_attr) + 1);
  st.orig_seg_ids = dev.alloc<std::int64_t>(static_cast<std::size_t>(n_attr));
  st.orig_slot_offsets = dev.alloc<std::int64_t>(2);
  // One slot: its range is the rank of mark n_attr, the listed count.
  auto marks = device_node_offsets(st, 1, n_attr);
  prim::PartList list{st.orig_seg_offsets.span(), marks.span(),
                      st.orig_slot_offsets.span()};
  auto ids = st.orig_seg_ids.span();
  prim::list_nonempty_parts(
      dev, col_offsets.span(), list, &st.arena,
      [ids](device::BlockCtx& b, std::int64_t i, std::int64_t attr) {
        ids[static_cast<std::size_t>(i)] = attr;  // slot 0
        b.writes(ids, i);
        b.mem_coalesced(sizeof(std::int64_t));
      });
  st.orig_seg_offsets.shrink(static_cast<std::size_t>(list.size) + 1);
  st.orig_seg_ids.shrink(static_cast<std::size_t>(list.size));
}

NextSegments begin_next_segments(TrainState& st, bool keep_candidates) {
  const SplitTables& t = st.split_tables;
  const auto cap = static_cast<std::size_t>(t.n_candidates);
  const std::size_t n_next = t.cand_base.size() - 1;
  NextSegments next;
  next.n_slots = static_cast<std::int64_t>(n_next);
  next.block = st.arena.alloc<std::int64_t>(2 * cap + 1 +
                                            (keep_candidates ? cap : 0) +
                                            n_next + 1);
  const std::span<std::int64_t> all = next.block.span();
  next.list.offsets = all.first(cap + 1);
  next.ids = all.subspan(cap + 1, cap);
  if (keep_candidates) next.cand = all.subspan(2 * cap + 1, cap);
  next.list.marks = t.cand_base;
  next.list.mark_ranks = all.last(n_next + 1);
  return next;
}

NextSegments::Namer NextSegments::namer(const TrainState& st) const {
  return Namer{st.split_tables.cand_base, st.split_tables.cand_shift,
               st.seg.ids, ids, cand, st.n_attr};
}

void NextSegments::Namer::operator()(device::BlockCtx& b, std::int64_t i,
                                     std::int64_t p) const {
  const auto ns = static_cast<std::size_t>(
      std::upper_bound(cand_base.begin(), cand_base.end(), p) -
      cand_base.begin() - 1);
  const std::int64_t parent = p - cand_shift[ns];
  const auto u = static_cast<std::size_t>(i);
  ids[u] = static_cast<std::int64_t>(ns) * n_attr +
           parent_ids[static_cast<std::size_t>(parent)] % n_attr;
  b.reads(cand_base, 0, static_cast<std::int64_t>(cand_base.size()));
  b.reads(cand_shift, static_cast<std::int64_t>(ns));
  b.reads(parent_ids, parent);
  b.writes(ids, i);
  // The search runs over an O(slots) table that stays cached; listed
  // candidates ascend, and so do their parents: both id columns stream.
  b.work(std::bit_width(cand_base.size()));
  b.mem_coalesced(2 * sizeof(std::int64_t));
  if (!cand.empty()) {
    cand[u] = p;
    b.writes(cand, i);
    b.mem_coalesced(sizeof(std::int64_t));
  }
}

SegmentTable finish_next_segments(NextSegments& next) {
  const auto n = static_cast<std::size_t>(next.list.size);
  SegmentTable t;
  t.offsets = next.list.offsets.first(n + 1);
  t.ids = next.ids.first(n);
  t.slot_offsets = next.list.mark_ranks;
  t.block = std::move(next.block);
  return t;
}

device::ArenaBuffer<std::int64_t> device_node_offsets(TrainState& st,
                                                      std::int64_t n_slots,
                                                      std::int64_t stride) {
  auto offs =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_slots) + 1);
  auto o = offs.span();
  const std::int64_t n = n_slots + 1;
  st.dev.launch("node_seg_offsets", device::grid_for(n, kBlockDim), kBlockDim,
                [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t s) {
                    if (s >= n) return;
                    o[static_cast<std::size_t>(s)] = s * stride;
                  });
                  b.writes_tile(o, n);
                  const auto m = prim::elems_in_block(b, n);
                  b.mem_coalesced(m * sizeof(std::int64_t));
                  b.work(m);
                });
  return offs;
}

void assign_default_children(TrainState& st) {
  const std::int64_t n = st.n_inst;
  auto node_of = st.node_of.span();
  const auto nodes = std::span<const TreeNode>(st.nodes.span()).first(
      static_cast<std::size_t>(st.level_base + st.n_slots));
  st.dev.launch("assign_default_child", device::grid_for(n, kBlockDim),
                kBlockDim, [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    const TreeNode& tn =
                        nodes[static_cast<std::size_t>(node_of[u])];
                    if (!tn.is_leaf()) {
                      node_of[u] = tn.default_left ? tn.left : tn.right;
                    }
                  });
                  b.reads_tile(node_of, n);
                  b.writes_tile(node_of, n);
                  b.reads(nodes, 0, static_cast<std::int64_t>(nodes.size()));
                  const auto m = prim::elems_in_block(b, n);
                  b.mem_coalesced(m * 2 * sizeof(std::int32_t));
                  b.mem_irregular(m / 8 + 1);  // small table lookups, cached
                });
}

void compute_gradients(TrainState& st, const DeviceBuffer<float>& labels) {
  const std::int64_t n = st.n_inst;
  auto y = labels.span();
  auto p = st.y_pred.span();
  auto gh = st.gh.span();
  const Loss& loss = st.loss;
  st.dev.launch("compute_gradients", device::grid_for(n, kBlockDim), kBlockDim,
                [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    const GradPair gp = loss.gradient(y[u], p[u]);
                    gh[u] = GHPair{gp.g, gp.h};
                  });
                  b.reads_tile(y, n);
                  b.reads_tile(p, n);
                  b.writes_tile(gh, n);
                  b.mem_coalesced(prim::elems_in_block(b, n) * 24);
                  b.flop(prim::elems_in_block(b, n) * 4);
                });
}

/// SmartGD prediction update: one gather through the instance->leaf map the
/// tree construction left behind — no tree traversal (paper Section III-B).
void update_predictions_smart(TrainState& st) {
  const std::int64_t n = st.n_inst;
  auto p = st.y_pred.span();
  auto node_of = st.node_of.span();
  const auto table = std::span<const TreeNode>(st.nodes.span()).first(
      static_cast<std::size_t>(st.level_base + st.n_slots));
  st.dev.launch("smartgd_update", device::grid_for(n, kBlockDim), kBlockDim,
                [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    p[u] = static_cast<float>(
                        p[u] +
                        table[static_cast<std::size_t>(node_of[u])].weight);
                  });
                  b.reads_tile(p, n);
                  b.reads_tile(node_of, n);
                  b.reads(table, 0, static_cast<std::int64_t>(table.size()));
                  b.writes_tile(p, n);
                  const auto m = prim::elems_in_block(b, n);
                  b.mem_coalesced(m * 12);
                  b.mem_irregular(m / 8 + 1);  // leaf-weight table, cached
                });
}

void reset_working_layout(TrainState& st) {
  // The root level reads the persistent lists and segment table in place;
  // each partition writes its successors into the arena.
  if (st.rle) {
    st.n_runs = st.orig_n_runs;
    st.run_values = LevelList<float>(st.orig_run_values.span());
    st.run_starts = LevelList<std::int64_t>(st.orig_run_starts.span());
    st.run_seg_offsets =
        LevelList<std::int64_t>(st.orig_run_seg_offsets.span());
  } else {
    st.values = LevelList<float>(st.orig_values.span());
  }
  st.inst = LevelList<std::int32_t>(st.orig_inst.span());
  st.n_elems = static_cast<std::int64_t>(st.orig_inst.size());
  st.seg = SegmentTable{{},
                        st.orig_seg_offsets.span(),
                        st.orig_seg_ids.span(),
                        st.orig_slot_offsets.span()};
  prim::fill(st.dev, st.node_of, std::int32_t{0});
}

}  // namespace detail

namespace {

/// Naive prediction update (SmartGD disabled): every instance walks the
/// freshly trained tree over its CSR row (walk_row, the batch predictor's
/// device walk).  Branch-divergent and irregular — the cost SmartGD removes.
void update_predictions_naive(TrainState& st, const DeviceRows& rows,
                              const Tree& tree) {
  const auto soa = ForestSoA::flatten({&tree, 1}, 0.0);
  auto d_left = detail::upload_pooled(st.dev, st.arena, soa.left);
  auto d_right = detail::upload_pooled(st.dev, st.arena, soa.right);
  auto d_attr = detail::upload_pooled(st.dev, st.arena, soa.attr);
  auto d_split = detail::upload_pooled(st.dev, st.arena, soa.split);
  auto d_def = detail::upload_pooled(st.dev, st.arena, soa.def_left);
  auto d_weight = detail::upload_pooled(st.dev, st.arena, soa.weight);

  const std::int64_t n = st.n_inst;
  auto p = st.y_pred.span();
  auto ro = rows.offsets();
  auto ra = rows.attrs();
  auto rv = rows.values();
  const DeviceNodes nodes{d_left.span(), d_right.span(), d_attr.span(),
                          d_split.span(), d_def.span()};
  auto W = d_weight.span();
  st.dev.launch("naive_traverse_update", device::grid_for(n, kBlockDim),
                kBlockDim, [&](device::BlockCtx& b) {
                  std::uint64_t steps = 0;
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    const DeviceWalk w =
                        walk_row(ra, rv, ro[u], ro[u + 1], rows.n_attr(),
                                 nodes, 0);
                    steps += w.misses + 4 * w.nodes;  // divergent node reads
                    p[u] = static_cast<float>(
                        p[u] + W[static_cast<std::size_t>(w.leaf)]);
                  });
                  b.reads_tile(p, n);
                  b.writes_tile(p, n);
                  b.reads_tile(ro, n + 1);
                  // Every instance of a warp follows its own root-to-leaf
                  // path: the lanes diverge at every node and the scattered
                  // loads serialise — the cost SmartGD removes entirely
                  // (paper Section III-B).
                  b.work(steps * 4);
                  b.mem_irregular(steps * 2);
                  b.mem_coalesced(prim::elems_in_block(b, n) * 24);
                });
}

/// Models xgbst-gpu's node interleaving: one gradient copy per node being
/// split this level (paper Section II-D), its (g, h) lanes as 2n doubles.
/// The caller keeps the returned buffers alive for the whole level, so the
/// copies inflate peak device memory alongside the level's working set (and
/// a DeviceOutOfMemory fires here on oversized data).  Being doubles, they
/// pool apart from the level's element-sized pair buffers, as xgbst-gpu's
/// per-node gradient arrays are apart from its scan buffers.
[[nodiscard]] std::vector<device::ArenaBuffer<double>> dense_node_interleaving(
    TrainState& st) {
  const std::int64_t n = st.n_inst;
  auto gh = st.gh.span();
  std::vector<device::ArenaBuffer<double>> copies;
  copies.reserve(static_cast<std::size_t>(st.n_slots));
  for (std::int64_t k = 0; k < st.n_slots; ++k) {
    copies.push_back(st.arena.alloc<double>(2 * static_cast<std::size_t>(n)));
    auto d = copies.back().span();
    st.dev.launch("dense_interleave_copy", device::grid_for(n, kBlockDim),
                  kBlockDim, [&](device::BlockCtx& b) {
                    b.for_each_thread([&](std::int64_t i) {
                      if (i >= n) return;
                      const auto u = static_cast<std::size_t>(i);
                      d[2 * u] = gh[u].g;
                      d[2 * u + 1] = gh[u].h;
                    });
                    const auto m = prim::elems_in_block(b, n);
                    b.reads_tile(gh, n);
                    b.writes(d, 2 * b.block_idx() * kBlockDim,
                             2 * static_cast<std::int64_t>(m));
                    b.mem_coalesced(m * 2 * sizeof(GHPair));
                  });
  }
  return copies;
}

}  // namespace

GpuGbdtTrainer::GpuGbdtTrainer(Device& dev, GBDTParam param)
    : dev_(dev), param_(std::move(param)), loss_(make_loss(param_.loss)) {
  detail::validate_param(param_, param_.use_hist_trainer);
}

TrainReport GpuGbdtTrainer::train(const data::Dataset& ds) {
  return train(ds, TreeCallback{});
}

TrainReport GpuGbdtTrainer::train(const data::Dataset& ds,
                                  const TreeCallback& on_tree) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::ScopedSpan train_span("train");
  const double modeled_start = dev_.elapsed_seconds();
  TrainReport report;
  report.base_score = param_.base_score;

  if (param_.autotune) {
    report.tuning =
        autotune::tune(dev_.config(), autotune::problem_shape(ds), param_);
    autotune::apply(report.tuning, param_);
  }

  const bool hist = param_.use_hist_trainer;
  TrainState st(dev_, param_, *loss_);
  st.n_inst = ds.n_instances();
  st.n_attr = ds.n_attributes();
  if (st.n_inst == 0) throw std::invalid_argument("empty dataset");
  if (hist) {
    detail::check_hist_memory(param_, st.n_attr,
                              dev_.config().global_mem_bytes);
  }

  dev_.allocator().reset_peak();

  // ---- the method's root-level layout -------------------------------------
  // Exact: sorted attribute lists, RLE-compressed past the paper's gate.
  // Hist: the quantized bin matrix.
  BinnedMatrix binned;
  if (hist) {
    obs::ScopedSpan span("hist_quantize");
    binned = build_binned_matrix(dev_, ds, param_.n_bins);
  } else {
    obs::ScopedSpan span("csc_build");
    auto csc = data::build_csc_device(dev_, ds);
    st.orig_values = std::move(csc.values);
    st.orig_inst = std::move(csc.inst_ids);
    detail::build_root_segments(st, csc.col_offsets);
    csc.col_offsets.free();

    const bool gate =
        param_.force_rle ||
        rle::paper_gate(st.n_attr, st.n_inst, param_.rle_threshold_r);
    if (param_.use_rle && gate) {
      obs::ScopedSpan rle_span("rle_compress");
      // Once per dataset: the scratch goes back to the device allocator,
      // not into the level pool, where its root-sized blocks would go to
      // small per-level checkouts (the root lists are never checked out).
      auto compressed = rle::compress(dev_, st.orig_values.span(),
                                      st.orig_seg_offsets.span());
      if (testing::invariants_enabled()) {
        testing::check_rle_roundtrip(dev_, compressed, st.orig_values,
                                     "root_rle_build");
      }
      st.rle = true;
      report.used_rle = true;
      st.orig_n_runs = compressed.n_runs;
      st.rle_ratio = rle::measured_ratio(compressed);
      report.rle_ratio = st.rle_ratio;
      st.orig_run_values = std::move(compressed.values);
      st.orig_run_starts = std::move(compressed.starts);
      st.orig_run_seg_offsets = std::move(compressed.seg_offsets);
      st.orig_values.free();  // per-element values are no longer needed
    }
  }

  // ---- persistent per-instance state -------------------------------------
  objective::RoundDriver round_driver(dev_, param_, ds);
  auto d_labels = dev_.to_device<float>(ds.labels());
  detail::alloc_instance_state(st);
  // The histogram method always updates predictions from the leaf map that
  // training leaves (SmartGD); the naive update is an exact-method ablation.
  const bool smart_gd = hist || param_.use_smart_gd;
  detail::alloc_device_tree(st, st.n_inst);
  std::optional<HistGrower> grower;
  std::optional<DeviceRows> rows;
  if (hist) {
    grower.emplace(dev_, param_, st, binned, /*distributed=*/false);
  } else if (!smart_gd) {
    // The naive update walks each instance's CSR row: upload the rows.
    rows.emplace(dev_, ds);
  }

  // ---- boosting loop (core/level_driver.h) --------------------------------
  const auto update_predictions = [&](const Tree& tree) {
    if (rows) {
      update_predictions_naive(st, *rows, tree);
    } else {
      detail::update_predictions_smart(st);  // the device tree's weights
    }
  };
  // xgbst-gpu's per-level gradient copies (dense layout only), held from
  // the level's find step until the next level or the end of the tree.
  std::vector<device::ArenaBuffer<double>> interleaved;
  detail::LevelBackend backend;
  backend.begin_tree = [&](int t, const Tree* prev) {
    {
      obs::ScopedSpan span("gradient_compute");
      if (prev != nullptr) update_predictions(*prev);
      round_driver.begin_round(st, d_labels, t);
    }
    if (hist) {
      // Quantize this tree's gradients so histogram accumulation is exact
      // integer arithmetic (counted with the gradient phase).
      hist::QGH rootq;
      {
        obs::ScopedSpan span("gradient_compute");
        const HistGrower::AbsMax mx = grower->local_abs_max();
        rootq = grower->quantize(mx.g, mx.h, st.n_inst);
      }
      grower->begin_tree(rootq);
      return;
    }
    {
      obs::ScopedSpan span("reset_layout");
      reset_working_layout(st);
    }
    obs::ScopedSpan span("gradient_compute");
    detail::begin_device_tree(st, "root_sum_gh");
  };
  // Each level is found and decided on the device; the host reads only the
  // decision's sizes, and the finished tree once.
  if (hist) {
    backend.split_level = [&](bool children_are_leaves) {
      grower->plan_level();
      {
        obs::ScopedSpan span("hist_build");
        grower->build_level();
      }
      if (grower->has_derived()) {
        {
          obs::ScopedSpan span("hist_subtract");
          grower->subtract_level();
        }
        grower->maybe_verify_subtraction();
      }
      // Best bin boundary per node over the histograms, and the decision.
      {
        obs::ScopedSpan span("hist_find_split");
        grower->find_level(children_are_leaves);
      }
      const std::int64_t n_next = grower->n_next();
      if (n_next == 0) return n_next;
      {
        obs::ScopedSpan span("hist_split_node");
        grower->apply_level(children_are_leaves);
      }
      testing::check_level_conservation(st, "hist_split_node");
      detail::advance_level(st, n_next);
      return n_next;
    };
    backend.read_tree = [&] {
      // Charged with the decide kernels that wrote the tree.
      obs::ScopedSpan span("hist_find_split");
      return detail::read_device_tree(st);
    };
  } else {
    backend.split_level = [&](bool children_are_leaves) {
      interleaved.clear();
      if (param_.dense_layout) interleaved = dense_node_interleaving(st);
      {
        obs::ScopedSpan span("find_split");
        if (st.rle) {
          detail::find_splits_rle(st);
        } else {
          detail::find_splits_sparse(st);
        }
        obs::ScopedSpan decide("setkey_argmax");
        detail::decide_on_device(st, children_are_leaves);
        st.search = {};
      }
      const std::int64_t n_next = st.split_tables.n_next;
      if (n_next == 0) {
        st.split_tables = {};
        return n_next;
      }
      {
        obs::ScopedSpan span("split_node");
        if (st.rle) {
          detail::apply_splits_rle(st, children_are_leaves);
        } else {
          detail::apply_splits_sparse(st, children_are_leaves);
        }
      }
      testing::check_level_conservation(
          st, st.rle ? "apply_splits_rle" : "apply_splits_sparse");
      detail::advance_level(st, n_next);
      return n_next;
    };
    backend.read_tree = [&] {
      // The decision's output: charged with the decide kernels that wrote
      // the tree.
      obs::ScopedSpan span("find_split");
      return detail::read_device_tree(st);
    };
  }
  backend.end_tree = [&](const Tree& tree) {
    interleaved.clear();
    if (grower) grower->finish_tree();
    testing::check_leaf_map(st.node_of.span(), tree, ds,
                            hist ? "hist_leaf_map" : "smartgd_leaf_map");
  };
  backend.finish = [&](const Tree& last) {
    {
      obs::ScopedSpan span("gradient_compute");
      update_predictions(last);
    }
    const auto final_pred = dev_.to_host(st.y_pred);
    return std::vector<double>(final_pred.begin(), final_pred.end());
  };
  report.train_scores =
      detail::grow_forest(backend, param_, report.trees, on_tree);

  report.peak_device_bytes = dev_.allocator().peak();
  report.modeled_seconds = dev_.elapsed_seconds() - modeled_start;
  report.wall_seconds = detail::seconds_since(wall_start);
  return report;
}

}  // namespace gbdt
