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

using detail::ActiveNode;
using detail::GHPair;
using detail::LevelPlan;
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

device::ArenaBuffer<SlotStat> upload_slot_tables(TrainState& st) {
  std::vector<SlotStat> stats(st.active.size());
  for (std::size_t s = 0; s < st.active.size(); ++s) {
    stats[s] = SlotStat{st.active[s].sum_g, st.active[s].sum_h,
                        st.active[s].count};
  }
  return upload_pooled(st.dev, st.arena, stats);
}

void alloc_instance_state(TrainState& st) {
  const auto n = static_cast<std::size_t>(st.n_inst);
  st.gh = st.dev.alloc<GHPair>(n);
  st.y_pred = st.dev.alloc<float>(n);
  st.node_of = st.dev.alloc<std::int32_t>(n);
  prim::fill(st.dev, st.y_pred, static_cast<float>(st.param.base_score));
}

SplitTables upload_split_tables(TrainState& st, const LevelPlan& plan,
                                bool child_slots,
                                std::span<const std::int32_t> owner_of_node) {
  const std::size_t n_nodes = plan.next_slot_of_tree.size();
  const std::size_t n_slots = plan.per_slot.size();
  const std::size_t n_next = plan.next_active.size();
  const bool partition = !plan.children_are_leaves;
  const bool slots = child_slots && partition;
  // The block's columns, back to back: {first word, length}.
  struct Column {
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::size_t words = 0;
  const auto column = [&words](std::size_t len) {
    const Column c{words, len};
    words += len;
    return c;
  };
  const Column def = column(n_nodes);
  const Column next = column(partition ? n_nodes : 0);
  const Column seg = column(n_slots);
  const Column pos = column(n_slots);
  const Column lid = column(n_slots);
  const Column rid = column(n_slots);
  const Column cbase = column(partition ? n_next + 1 : 0);
  const Column cshift = column(partition ? n_next : 0);
  const Column lslot = column(slots ? n_slots : 0);
  const Column rslot = column(slots ? n_slots : 0);
  const Column rshift = column(slots ? n_next : 0);
  const Column own = column(owner_of_node.size());

  std::vector<std::int64_t> host(words, -1);
  const auto at = [&host](Column c, std::size_t i) -> std::int64_t& {
    return host[c.off + i];
  };
  for (std::size_t tn = 0; tn < next.len; ++tn) {
    at(next, tn) = plan.next_slot_of_tree[tn];
  }
  for (std::size_t tn = 0; tn < own.len; ++tn) {
    at(own, tn) = owner_of_node[tn];
  }
  // Parent slot of every next slot, for the candidate columns.
  std::vector<std::size_t> parent(n_next, 0);
  for (std::size_t s = 0; s < n_slots; ++s) {
    const auto& e = plan.per_slot[s];
    if (!e.split) continue;
    at(def, static_cast<std::size_t>(st.active[s].tree_node)) =
        e.default_left ? e.left_id : e.right_id;
    at(seg, s) = e.chosen_seg;
    at(pos, s) = e.best_pos;
    at(lid, s) = e.left_id;
    at(rid, s) = e.right_id;
    if (!partition) continue;
    const std::int32_t l =
        plan.next_slot_of_tree[static_cast<std::size_t>(e.left_id)];
    const std::int32_t r =
        plan.next_slot_of_tree[static_cast<std::size_t>(e.right_id)];
    parent[static_cast<std::size_t>(l)] = s;
    parent[static_cast<std::size_t>(r)] = s;
    if (!slots) continue;
    at(lslot, s) = l;
    at(rslot, s) = r;
  }

  SplitTables t;
  if (partition) {
    // Candidate bases from O(slots) reads of the segment table (host glue):
    // next slot ns continues every segment of its parent slot.
    const auto so = st.seg.slot_offsets;
    std::int64_t cands = 0;
    std::int64_t runs = 0;
    for (std::size_t ns = 0; ns < n_next; ++ns) {
      const std::size_t p = parent[ns];
      at(cbase, ns) = cands;
      at(cshift, ns) = cands - so[p];
      cands += so[p + 1] - so[p];
      if (!slots) continue;
      const std::int64_t run_lo =
          st.run_seg_offsets[static_cast<std::size_t>(so[p])];
      at(rshift, ns) = runs - run_lo;
      runs += st.run_seg_offsets[static_cast<std::size_t>(so[p + 1])] - run_lo;
    }
    at(cbase, n_next) = cands;
    t.n_candidates = cands;
    t.n_candidate_runs = runs;
  }

  t.block = upload_pooled(st.dev, st.arena, host);
  const std::span<const std::int64_t> all = t.block.span();
  const auto view = [&all](Column c) { return all.subspan(c.off, c.len); };
  t.default_child = view(def);
  t.next_slot = view(next);
  t.chosen_seg = view(seg);
  t.best_pos = view(pos);
  t.left_id = view(lid);
  t.right_id = view(rid);
  t.cand_base = view(cbase);
  t.cand_shift = view(cshift);
  t.left_slot = view(lslot);
  t.right_slot = view(rslot);
  t.run_shift = view(rshift);
  t.owner = view(own);
  return t;
}

std::int64_t kept_elements(const TrainState& st, const LevelPlan& plan) {
  const auto so = st.seg.slot_offsets;
  const auto off = st.seg.offsets;
  std::int64_t kept = 0;
  for (std::size_t s = 0; s < plan.per_slot.size(); ++s) {
    if (!plan.per_slot[s].split) continue;
    kept += off[static_cast<std::size_t>(so[s + 1])] -
            off[static_cast<std::size_t>(so[s])];
  }
  return kept;
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
  auto def = st.split_tables.default_child;
  st.dev.launch("assign_default_child", device::grid_for(n, kBlockDim),
                kBlockDim, [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    const std::int64_t child =
                        def[static_cast<std::size_t>(node_of[u])];
                    if (child >= 0) {
                      node_of[u] = static_cast<std::int32_t>(child);
                    }
                  });
                  b.reads_tile(node_of, n);
                  b.writes_tile(node_of, n);
                  b.reads(def, 0, static_cast<std::int64_t>(def.size()));
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
void update_predictions_smart(TrainState& st, const Tree& tree) {
  std::vector<double> weights(static_cast<std::size_t>(tree.n_nodes()), 0.0);
  for (std::int32_t i = 0; i < tree.n_nodes(); ++i) {
    weights[static_cast<std::size_t>(i)] = tree.node(i).weight;
  }
  auto d_w = upload_pooled(st.dev, st.arena, weights);
  const std::int64_t n = st.n_inst;
  auto p = st.y_pred.span();
  auto node_of = st.node_of.span();
  auto w = d_w.span();
  st.dev.launch("smartgd_update", device::grid_for(n, kBlockDim), kBlockDim,
                [&](device::BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    p[u] = static_cast<float>(
                        p[u] + w[static_cast<std::size_t>(node_of[u])]);
                  });
                  b.reads_tile(p, n);
                  b.reads_tile(node_of, n);
                  b.reads(w, 0, static_cast<std::int64_t>(w.size()));
                  b.writes_tile(p, n);
                  const auto m = prim::elems_in_block(b, n);
                  b.mem_coalesced(m * 12);
                  b.mem_irregular(m / 8 + 1);  // leaf-weight table, cached
                });
}

template <typename SrcBuf, typename DstBuf>
void device_copy(Device& dev, const SrcBuf& src, DstBuf& dst, std::int64_t n) {
  using T = prim::buffer_element_t<DstBuf>;
  auto s = prim::as_span(src);
  auto d = prim::as_span(dst);
  dev.launch("tree_reset_copy", device::grid_for(n, kBlockDim), kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t i) {
                 if (i < n) {
                   d[static_cast<std::size_t>(i)] = s[static_cast<std::size_t>(i)];
                 }
               });
               b.reads_tile(s, n);
               b.writes_tile(d, n);
               b.mem_coalesced(prim::elems_in_block(b, n) * 2 * sizeof(T));
             });
}

/// Re-initialises the working layout from the root-level originals.  The
/// working buffers shrink level by level (leaves drop out), so every tree
/// checks its fresh original-sized copies out of the arena — after the first
/// tree the pool already holds blocks of the right size classes and the
/// device allocator is never touched again.
void reset_working_layout(TrainState& st) {
  auto& dev = st.dev;
  if (st.rle) {
    st.n_runs = st.orig_n_runs;
    st.run_values = st.arena.alloc<float>(static_cast<std::size_t>(st.n_runs));
    st.run_starts =
        st.arena.alloc<std::int64_t>(static_cast<std::size_t>(st.n_runs) + 1);
    st.run_seg_offsets =
        st.arena.alloc<std::int64_t>(st.orig_run_seg_offsets.size());
    device_copy(dev, st.orig_run_values, st.run_values, st.n_runs);
    device_copy(dev, st.orig_run_starts, st.run_starts, st.n_runs + 1);
    device_copy(dev, st.orig_run_seg_offsets, st.run_seg_offsets,
                static_cast<std::int64_t>(st.orig_run_seg_offsets.size()));
  } else {
    st.values = st.arena.alloc<float>(st.orig_values.size());
    device_copy(dev, st.orig_values, st.values,
                static_cast<std::int64_t>(st.orig_values.size()));
  }
  st.n_elems = static_cast<std::int64_t>(st.orig_inst.size());
  st.inst = st.arena.alloc<std::int32_t>(st.orig_inst.size());
  device_copy(dev, st.orig_inst, st.inst, st.n_elems);
  // The root segment table is never written, so the root level reads the
  // persistent one in place; each partition builds its successor.
  st.seg = SegmentTable{{},
                        st.orig_seg_offsets.span(),
                        st.orig_seg_ids.span(),
                        st.orig_slot_offsets.span()};
  prim::fill(dev, st.node_of, std::int32_t{0});
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
                        walk_row(ra, rv, ro[u], ro[u + 1], nodes, 0);
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
  copies.reserve(st.active.size());
  for (std::size_t k = 0; k < st.active.size(); ++k) {
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
      auto compressed = rle::compress(dev_, st.orig_values.span(),
                                      st.orig_seg_offsets.span(), &st.arena);
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
      detail::update_predictions_smart(st, tree);
    }
  };
  // xgbst-gpu's per-level gradient copies (dense layout only), held from
  // the level's find step until the next level or the end of the tree.
  std::vector<device::ArenaBuffer<double>> interleaved;
  detail::LevelBackend backend;
  backend.begin_tree = [&](int t, const Tree* prev, Tree& tree) {
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
      return grower->begin_tree(tree, rootq);
    }
    {
      obs::ScopedSpan span("reset_layout");
      reset_working_layout(st);
    }
    st.tree = &tree;
    obs::ScopedSpan span("gradient_compute");
    const GHPair root = prim::reduce_sum(dev_, st.gh, "root_sum_gh");
    return ActiveNode{0, root.g, root.h, st.n_inst};
  };
  if (hist) {
    backend.find_splits = [&](const std::vector<ActiveNode>& active) {
      grower->plan_level(active);
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
      // Best bin boundary per node over the histograms.
      {
        obs::ScopedSpan span("hist_find_split");
        grower->prepare_offsets();
        grower->run_set_keys();
        grower->find_level();
      }
      return grower->best();
    };
    backend.apply_splits = [&](const LevelPlan& plan) {
      {
        obs::ScopedSpan span("hist_split_node");
        grower->apply_level(plan);
      }
      testing::check_instance_counts(st.node_of.span(), plan,
                                     "hist_split_node");
    };
  } else {
    backend.find_splits = [&](const std::vector<ActiveNode>& active) {
      st.active = active;
      interleaved.clear();
      if (param_.dense_layout) interleaved = dense_node_interleaving(st);
      obs::ScopedSpan span("find_split");
      return st.rle ? detail::find_splits_rle(st)
                    : detail::find_splits_sparse(st);
    };
    backend.apply_splits = [&](const LevelPlan& plan) {
      {
        obs::ScopedSpan span("split_node");
        if (st.rle) {
          detail::apply_splits_rle(st, plan);
        } else {
          detail::apply_splits_sparse(st, plan);
        }
      }
      testing::check_level_conservation(
          st, plan, st.rle ? "apply_splits_rle" : "apply_splits_sparse");
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
