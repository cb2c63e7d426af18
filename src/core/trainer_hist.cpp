// Device-side histogram method (see core/trainer_hist.h).
//
// Per tree: gradients are quantized to int64 fixed point (hist::GradQuant)
// and every row starts in the root; then each level runs
//
//   hist_build      per-(node, attribute) gradient histograms of the
//                   *smaller* sibling of each pair only, read from the
//                   slot-sorted row index: one block per (row chunk, tile
//                   of cells), accumulating a shared-memory-sized tile and
//                   writing it once — straight into the level's histogram
//                   when the slot fits one chunk, else into a partial copy
//                   that hist_merge folds in chunk order;
//   hist_subtract   the larger sibling's histogram derived as
//                   parent - sibling (exact in int64, so bitwise identical
//                   to accumulating it directly — self-checked under
//                   GBDT_CHECK_INVARIANTS);
//   hist_find_split the fused scan + gain/argmax machinery over bins
//                   instead of sorted values: segment s = slot * n_attr +
//                   attr holds exactly n_bins cells, so the histogram buffer
//                   itself is the segment layout;
//   hist_split_node rows of splitting nodes binary-search their CSR row for
//                   the split attribute and compare bin indices, then the
//                   row index is partitioned by next-level slot.
//
// Each level's host tables (build plan, subtraction triples, slot stats)
// reach the device in one upload, packed with the previous level's split
// commands.  All per-level scratch comes from the TrainState workspace
// arena; the only steady-state device allocations are the persistent
// per-instance buffers.
//
// The steps live in HistGrower so the multi-GPU trainer can drive K growers
// in lockstep, merging histograms between build and subtract;
// GpuGbdtTrainer (core/trainer.cpp) and the multi-GPU trainer sequence them
// as level-driver backends (core/level_driver.h).
#include "core/trainer_hist.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer_detail.h"
#include "obs/metrics.h"
#include "primitives/fused_split.h"
#include "primitives/reduce.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::ActiveNode;
using detail::GHPair;
using detail::TrainState;
using device::Device;

namespace {

/// The histogram layout's fixed (slot, attribute) grid: every pair is a
/// segment of n_bins cells, empty or not.
std::int64_t grid_segments(const TrainState& st) {
  return st.n_active() * st.n_attr;
}

}  // namespace

std::vector<hist::BinCuts> build_hist_cuts(const data::Dataset& ds,
                                           int n_bins) {
  // Per-attribute value columns (present entries only), then quantile cuts.
  std::vector<std::vector<float>> columns(
      static_cast<std::size_t>(ds.n_attributes()));
  for (const data::Entry& e : ds.entries()) {
    columns[static_cast<std::size_t>(e.attr)].push_back(e.value);
  }
  std::vector<hist::BinCuts> cuts;
  cuts.reserve(columns.size());
  for (auto& col : columns) {
    cuts.push_back(hist::build_cuts(std::move(col), n_bins));
  }
  return cuts;
}

BinnedMatrix build_binned_matrix(Device& dev, const data::Dataset& ds,
                                 int n_bins,
                                 const std::vector<hist::BinCuts>& cuts) {
  BinnedMatrix m;
  m.n_inst = ds.n_instances();
  m.n_attr = ds.n_attributes();
  m.n_bins = n_bins;
  m.cuts = cuts;
  // Rewrite the entry stream as (attr, bin) pairs and upload.
  const auto& entries = ds.entries();
  std::vector<std::int32_t> attr(entries.size());
  std::vector<std::uint16_t> bin(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    attr[k] = entries[k].attr;
    bin[k] = static_cast<std::uint16_t>(
        m.cuts[static_cast<std::size_t>(entries[k].attr)].bin_of(
            entries[k].value));
  }
  m.row_offsets = dev.to_device<std::int64_t>(ds.row_offsets());
  m.entry_attr = dev.to_device<std::int32_t>(attr);
  m.entry_bin = dev.to_device<std::uint16_t>(bin);
  return m;
}

BinnedMatrix build_binned_matrix(Device& dev, const data::Dataset& ds,
                                 int n_bins) {
  return build_binned_matrix(dev, ds, n_bins, build_hist_cuts(ds, n_bins));
}

// ---------------------------------------------------------------------------
// HistGrower
// ---------------------------------------------------------------------------


HistGrower::HistGrower(Device& dev, const GBDTParam& param, TrainState& st,
                       const BinnedMatrix& binned, bool distributed)
    : dev_(dev), param_(param), st_(st), binned_(binned),
      distributed_(distributed), n_bins_(param.n_bins),
      cps_(st.n_attr * param.n_bins),
      qg_(dev.alloc<std::int64_t>(static_cast<std::size_t>(st.n_inst))),
      qh_(dev.alloc<std::int64_t>(static_cast<std::size_t>(st.n_inst))),
      rows_(dev.alloc<std::int32_t>(static_cast<std::size_t>(st.n_inst))),
      rows_next_(dev.alloc<std::int32_t>(static_cast<std::size_t>(st.n_inst))),
      chunk_(hist::build_chunk_rows(dev.config(), st.n_inst)) {}

HistGrower::AbsMax HistGrower::local_abs_max() {
  // One pass over the pairs; max is order-free, so the values equal the two
  // per-array abs + arg_max passes this replaced.
  const GHPair m = prim::map_reduce(
      dev_, st_.gh, GHPair{},
      [](const GHPair& x) { return GHPair{std::abs(x.g), std::abs(x.h)}; },
      [](const GHPair& a, const GHPair& b) {
        return GHPair{std::max(a.g, b.g), std::max(a.h, b.h)};
      },
      "hist_max_abs");
  return AbsMax{m.g, m.h};
}

hist::QGH HistGrower::quantize(double max_abs_g, double max_abs_h,
                               std::int64_t global_n) {
  quant_g_ = hist::make_grad_quant(max_abs_g, global_n);
  quant_h_ = hist::make_grad_quant(max_abs_h, global_n);
  const double sg = quant_g_.scale;
  const double sh = quant_h_.scale;
  const std::int64_t n = st_.n_inst;
  auto gh = st_.gh.span();
  auto qg = qg_.span();
  auto qh = qh_.span();
  dev_.launch("hist_quantize_gh", device::grid_for(n, prim::kBlockDim),
              prim::kBlockDim,
              [&](device::BlockCtx& b) {
                b.for_each_thread([&](std::int64_t i) {
                  if (i >= n) return;
                  const auto u = static_cast<std::size_t>(i);
                  qg[u] = std::llround(gh[u].g * sg);
                  qh[u] = std::llround(gh[u].h * sh);
                });
                b.reads_tile(gh, n);
                b.writes_tile(qg, n);
                b.writes_tile(qh, n);
                b.mem_coalesced(prim::elems_in_block(b, n) *
                                (sizeof(GHPair) + 2 * sizeof(std::int64_t)));
              });
  return hist::QGH{
      prim::reduce_sum<std::int64_t>(dev_, qg_, "hist_root_sum_g"),
      prim::reduce_sum<std::int64_t>(dev_, qh_, "hist_root_sum_h"),
      st_.n_inst};
}

HistGrower::Columns HistGrower::pack(const LevelTables& level,
                                     hist::PackedTables& t) {
  std::vector<std::int64_t> q;
  q.reserve(3 * level.slotq.size());
  for (const hist::QGH& v : level.slotq) q.insert(q.end(), {v.g, v.h, v.cnt});
  Columns c;
  c.build = level.build.pack(t);
  c.der_parent = t.add(level.der_parent);
  c.der_sibling = t.add(level.der_sibling);
  c.der_derived = t.add(level.der_derived);
  c.slotq = t.add(q);
  return c;
}

std::span<const std::int64_t> HistGrower::column(
    hist::PackedTables::Column c) const {
  return hist::PackedTables::view(tables_.span(), c);
}

ActiveNode HistGrower::begin_tree(Tree& tree, const hist::QGH& global_root) {
  st_.tree = &tree;
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  level_ = LevelTables{};
  level_.build.chunk = chunk_;
  level_.build.add(0, st_.n_inst);
  level_.slotq.assign(1, global_root);
  level_.n_rows = st_.n_inst;
  hist::PackedTables t;
  cols_ = pack(level_, t);
  tables_ = st_.arena.alloc<std::int64_t>(t.words.size());
  slot_rows_ = st_.arena.alloc<std::int64_t>(2);
  // Every row in the root, in row order.  The root level's tables are a
  // handful of words, passed as kernel arguments rather than uploaded.
  const std::int64_t n = st_.n_inst;
  auto node_of = st_.node_of.span();
  auto rows = rows_.span();
  auto slot_rows = slot_rows_.span();
  auto tables = tables_.span();
  dev_.launch(
      "hist_begin_tree", device::grid_for(n, prim::kBlockDim), prim::kBlockDim,
      [&, words = std::move(t.words)](device::BlockCtx& b) {
        b.for_each_thread([&](std::int64_t i) {
          if (i >= n) return;
          node_of[static_cast<std::size_t>(i)] = 0;
          rows[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
        });
        b.writes_tile(node_of, n);
        b.writes_tile(rows, n);
        std::uint64_t extra = 0;
        if (b.block_idx() == 0) {
          slot_rows[0] = 0;
          slot_rows[1] = n;
          std::copy(words.begin(), words.end(), tables.begin());
          b.writes(slot_rows, 0, 2);
          b.writes(tables, 0, static_cast<std::int64_t>(words.size()));
          extra = 2 + words.size();
        }
        b.mem_coalesced(prim::elems_in_block(b, n) * 2 *
                            sizeof(std::int32_t) +
                        extra * sizeof(std::int64_t));
      });
  return ActiveNode{0, static_cast<double>(global_root.g) * quant_g_.inv,
                    static_cast<double>(global_root.h) * quant_h_.inv,
                    global_root.cnt};
}

void HistGrower::plan_level(const std::vector<ActiveNode>& active) {
  st_.active = active;
  hist_cur_ = st_.arena.alloc<hist::QGH>(
      static_cast<std::size_t>(st_.n_active() * cps_));
}

void HistGrower::build_level() {
  hist::build_histograms(dev_, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_attr.span(), binned_.entry_bin.span(),
                         qg_.span(), qh_.span(), rows_.span(),
                         slot_rows_.span(),
                         level_.build.tables(tables_.span(), cols_.build),
                         st_.n_attr, n_bins_, hist_cur_.span());
}

std::vector<std::span<hist::QGH>> HistGrower::accumulated_slots() {
  std::vector<std::span<hist::QGH>> out;
  out.reserve(level_.build.slot.size());
  auto hc = hist_cur_.span();
  for (const std::int64_t slot : level_.build.slot) {
    out.push_back(hc.subspan(
        static_cast<std::size_t>(slot) * static_cast<std::size_t>(cps_),
        static_cast<std::size_t>(cps_)));
  }
  return out;
}

bool HistGrower::has_derived() const { return !level_.der_derived.empty(); }

void HistGrower::subtract_level() {
  if (!distributed_) {
    static obs::Counter& subtractions =
        obs::Registry::global().counter("gbdt_hist_subtractions_total");
    subtractions.inc(level_.der_derived.size());
  }
  hist::subtract_histograms(dev_, hist_prev_.span(), hist_cur_.span(),
                            column(cols_.der_parent),
                            column(cols_.der_sibling),
                            column(cols_.der_derived), cps_);
}

/// Bitwise self-check of the subtraction trick: re-accumulates every derived
/// slot directly and compares cell-by-cell.  Runs only under
/// GBDT_CHECK_INVARIANTS on single-device growers (distributed shards hold
/// globally merged histograms a local re-accumulation cannot reproduce; the
/// fuzz oracle's bitwise mgpu_hist_vs_single leg covers that path); with
/// break_hist_subtraction armed it corrupts one derived cell first, so the
/// check must throw.
void HistGrower::maybe_verify_subtraction() {
  if (distributed_ || !testing::invariants_enabled()) return;
  if (level_.der_derived.empty()) return;
  if (testing::fault_injection().break_hist_subtraction) {
    // Test-only corruption, injected host-side (not a modeled access).
    hist_cur_[static_cast<std::size_t>(level_.der_derived[0]) *
              static_cast<std::size_t>(cps_)]
        .g += 1;
  }
  hist::BuildPlan plan;
  plan.chunk = chunk_;
  for (const std::int64_t slot : level_.der_derived) {
    plan.add(slot, std::min(st_.active[static_cast<std::size_t>(slot)].count,
                            st_.n_inst));
  }
  hist::PackedTables t;
  const hist::BuildPlan::Columns cols = plan.pack(t);
  auto block = detail::upload_pooled(st_.dev, st_.arena, t.words);
  auto direct = st_.arena.alloc<hist::QGH>(hist_cur_.size());
  hist::build_histograms(st_.dev, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_attr.span(), binned_.entry_bin.span(),
                         qg_.span(), qh_.span(), rows_.span(),
                         slot_rows_.span(), plan.tables(block.span(), cols),
                         st_.n_attr, n_bins_, direct.span());
  for (const std::int64_t slot : level_.der_derived) {
    const std::size_t base =
        static_cast<std::size_t>(slot) * static_cast<std::size_t>(cps_);
    for (std::int64_t c = 0; c < cps_; ++c) {
      const auto cu = base + static_cast<std::size_t>(c);
      if (!(hist_cur_[cu] == direct[cu])) {
        throw testing::InvariantViolation(
            "hist_subtract: derived histogram differs from direct "
            "accumulation (slot " +
            std::to_string(slot) + ", attr " + std::to_string(c / n_bins_) +
            ", bin " + std::to_string(c % n_bins_) + ")");
      }
    }
  }
}

void HistGrower::prepare_offsets() {
  // The histogram layout's fixed grids: segment s = slot * n_attr + attr
  // holds n_bins cells, node s holds n_attr segments.  One launch writes
  // both offset tables.
  const std::int64_t n_seg = grid_segments(st_);
  const std::int64_t n_node = st_.n_active() + 1;
  const std::int64_t n = n_seg + 1 + n_node;
  offsets_ = st_.arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto o = offsets_.span();
  const std::int64_t n_bins = n_bins_;
  const std::int64_t n_attr = st_.n_attr;
  dev_.launch("hist_offsets", device::grid_for(n, prim::kBlockDim),
              prim::kBlockDim, [&](device::BlockCtx& b) {
                b.for_each_thread([&](std::int64_t i) {
                  if (i >= n) return;
                  o[static_cast<std::size_t>(i)] =
                      i <= n_seg ? i * n_bins : (i - n_seg - 1) * n_attr;
                });
                b.writes_tile(o, n);
                const auto m = prim::elems_in_block(b, n);
                b.mem_coalesced(m * sizeof(std::int64_t));
                b.work(m);
              });
  st_.keys = st_.arena.alloc<std::int32_t>(
      static_cast<std::size_t>(st_.n_active() * cps_));
}

void HistGrower::run_set_keys(int stream) {
  const auto seg_offsets = offsets_.span().first(
      static_cast<std::size_t>(grid_segments(st_) + 1));
  prim::set_keys(dev_, seg_offsets, st_.keys,
                 st_.segs_per_block(grid_segments(st_), st_.n_active() * cps_),
                 stream);
}

void HistGrower::find_level() {
  const std::int64_t n_slots = st_.n_active();
  const std::int64_t n_seg = grid_segments(st_);
  best_.assign(static_cast<std::size_t>(n_slots), detail::BestSplit{});
  child_q_.assign(static_cast<std::size_t>(2 * n_slots), hist::QGH{});
  auto scan =
      st_.arena.alloc<hist::QGH>(static_cast<std::size_t>(n_slots * cps_));
  auto seg_tot = st_.arena.alloc<hist::QGH>(static_cast<std::size_t>(n_seg));
  auto hc = hist_cur_.span();
  const prim::CarriedScan<hist::QGH> prefix = prim::fused_gather_scan_totals(
      dev_, st_.arena, st_.keys, scan, seg_tot,
      [hc](device::BlockCtx& b, std::int64_t i) {
        b.reads(hc, i);
        b.mem_coalesced(sizeof(hist::QGH));
        return hc[static_cast<std::size_t>(i)];
      },
      "hist_scan");
  auto best_seg_val = st_.arena.alloc<double>(static_cast<std::size_t>(n_seg));
  auto best_seg_idx =
      st_.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  auto best_seg_dir =
      st_.arena.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  const double inv_g = quant_g_.inv;
  const double inv_h = quant_h_.inv;
  const double lambda = param_.lambda;
  const std::int64_t n_attr = st_.n_attr;
  const int n_bins = n_bins_;
  auto tot = seg_tot.span();
  const auto sq = column(cols_.slotq);
  const auto seg_offsets =
      offsets_.span().first(static_cast<std::size_t>(n_seg + 1));
  const auto fm = st_.feature_mask;
  prim::fused_gain_argmax(
      dev_, seg_offsets, prefix, best_seg_val, best_seg_idx, best_seg_dir,
      st_.segs_per_block(n_seg, n_slots * cps_),
      [hc, tot, sq, fm, n_attr, inv_g, inv_h, lambda](
          device::BlockCtx& b, std::int64_t s, std::int64_t e,
          std::int64_t seg_lo, std::int64_t /*seg_hi*/,
          const hist::QGH& left) {
        const auto u = static_cast<std::size_t>(e);
        b.reads(hc, e);
        b.mem_coalesced(sizeof(hist::QGH));
        if (e == seg_lo) {
          // Segment-invariant loads, once per segment.
          b.reads(tot, s);
          b.reads(sq, 3 * (s / n_attr), 3);
          if (!fm.empty()) b.reads(fm, s % n_attr);
          b.mem_irregular(1);
        }
        // Attributes outside this tree's feature bag yield no splits
        // (mask, not compaction: the segment layout is untouched).
        if (!fm.empty() && fm[static_cast<std::size_t>(s % n_attr)] == 0) {
          return prim::GainDir{};
        }
        // Empty bins carry no boundary (mirrors the CPU baseline's
        // skip); a zero-gain suppressed cell loses to any real split.
        if (hc[u].cnt == 0) return prim::GainDir{};
        const auto q = static_cast<std::size_t>(3 * (s / n_attr));
        const hist::QGH node{sq[q], sq[q + 1], sq[q + 2]};
        const hist::QGH pres = tot[static_cast<std::size_t>(s)];
        const std::int64_t miss = node.cnt - pres.cnt;
        b.flop(24);
        double gain_r = 0.0;  // missing values to the right child
        if (left.cnt > 0 && node.cnt - left.cnt > 0) {
          gain_r = split_gain(
              static_cast<double>(left.g) * inv_g,
              static_cast<double>(left.h) * inv_h,
              static_cast<double>(node.g - left.g) * inv_g,
              static_cast<double>(node.h - left.h) * inv_h, lambda);
        }
        double gain_l = 0.0;  // missing values folded into the left
        if (miss > 0 && pres.cnt - left.cnt > 0) {
          const std::int64_t lg = left.g + (node.g - pres.g);
          const std::int64_t lh = left.h + (node.h - pres.h);
          gain_l = split_gain(static_cast<double>(lg) * inv_g,
                              static_cast<double>(lh) * inv_h,
                              static_cast<double>(node.g - lg) * inv_g,
                              static_cast<double>(node.h - lh) * inv_h,
                              lambda);
        }
        if (gain_l > gain_r) return prim::GainDir{gain_l, 1};
        return prim::GainDir{gain_r, 0};
      },
      "hist_gain_argmax");
  const auto node_offs =
      offsets_.span().last(static_cast<std::size_t>(n_slots + 1));
  auto best_node_val =
      st_.arena.alloc<double>(static_cast<std::size_t>(n_slots));
  auto best_node_idx =
      st_.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_slots));
  prim::segmented_arg_max(dev_, best_seg_val, node_offs, best_node_val,
                          best_node_idx, 1, "hist_node_best");

  // Winner assembly: the scalar buffer reads below are host glue over the
  // simulated device (same idiom as the exact trainer).  Inputs are the
  // merged histograms and global slot stats, so every shard computes the
  // same winners bit for bit.
  for (std::int64_t s = 0; s < n_slots; ++s) {
    const auto su = static_cast<std::size_t>(s);
    const std::int64_t seg = best_node_idx[su];
    if (seg < 0) continue;
    const std::int64_t cell = best_seg_idx[static_cast<std::size_t>(seg)];
    if (cell < 0) continue;
    const double gain = best_node_val[su];
    if (!(gain > 0.0)) continue;
    const auto attr = static_cast<std::int32_t>(seg % st_.n_attr);
    const std::int64_t bin = cell - seg * n_bins;
    const bool dir = best_seg_dir[static_cast<std::size_t>(seg)] != 0;
    hist::QGH lq = prefix.at(cell, seg * n_bins_);
    const hist::QGH pres = seg_tot[static_cast<std::size_t>(seg)];
    const hist::QGH node = level_.slotq[su];
    if (dir) lq += node - pres;  // missing values go left
    const hist::QGH rq = node - lq;
    auto& bs = best_[su];
    bs.valid = true;
    bs.gain = gain;
    bs.attr = attr;
    bs.split_value = binned_.cuts[static_cast<std::size_t>(attr)]
                         .bin_low[static_cast<std::size_t>(bin)];
    bs.default_left = dir;
    bs.seg = seg;
    bs.pos = bin;
    bs.left = ActiveNode{-1, static_cast<double>(lq.g) * quant_g_.inv,
                         static_cast<double>(lq.h) * quant_h_.inv, lq.cnt};
    bs.right = ActiveNode{-1, static_cast<double>(rq.g) * quant_g_.inv,
                          static_cast<double>(rq.h) * quant_h_.inv, rq.cnt};
    child_q_[2 * su] = lq;
    child_q_[2 * su + 1] = rq;
  }
}

void HistGrower::apply_level(const detail::LevelPlan& plan) {
  offsets_ = device::ArenaBuffer<std::int64_t>{};  // read by find only
  const bool grow = !plan.children_are_leaves;
  // This level's split commands and, unless the children are leaves, the
  // next level's tables: each split pair accumulates its smaller child and
  // derives the other from this level's histogram.  Counts are global in
  // the multi-GPU path, so every shard picks the same sibling.
  std::vector<hist::HistSplitCmd> cmds(plan.per_slot.size());
  LevelTables next;
  next.build.chunk = chunk_;
  for (std::size_t s = 0; s < cmds.size(); ++s) {
    const auto& e = plan.per_slot[s];
    if (!e.split) continue;
    hist::HistSplitCmd& c = cmds[s] =
        hist::HistSplitCmd{e.attr, e.best_pos, e.left_id, e.right_id,
                           e.default_left ? 1 : 0, -1};
    if (!grow) continue;
    const std::int32_t l =
        plan.next_slot_of_tree[static_cast<std::size_t>(e.left_id)];
    const std::int32_t r = l + 1;
    c.left_slot = l;
    const std::int64_t l_cnt =
        plan.next_active[static_cast<std::size_t>(l)].count;
    const std::int64_t r_cnt =
        plan.next_active[static_cast<std::size_t>(r)].count;
    const std::int32_t small = l_cnt <= r_cnt ? l : r;
    // A shard's rows of a slot are bounded by its global count and by
    // the shard's own rows (on one device the count is exact).
    next.build.add(small, std::min({l_cnt, r_cnt, st_.n_inst}));
    next.der_parent.push_back(static_cast<std::int64_t>(s));
    next.der_sibling.push_back(small);
    next.der_derived.push_back(small == l ? r : l);
    next.slotq.push_back(child_q_[2 * s]);
    next.slotq.push_back(child_q_[2 * s + 1]);
    next.n_rows += l_cnt + r_cnt;
  }
  next.n_rows = std::min(next.n_rows, st_.n_inst);

  hist::PackedTables t;
  const hist::PackedTables::Column cmd_col =
      t.add(hist::HistSplitCmd::pack(cmds));
  const Columns next_cols = grow ? pack(next, t) : Columns{};
  auto block = detail::upload_pooled(dev_, st_.arena, t.words);
  auto next_slot_rows = st_.arena.alloc<std::int64_t>(
      grow ? plan.next_active.size() + 1 : 0);
  hist::split_rows(dev_, st_.arena, binned_.row_offsets.span(),
                   binned_.entry_attr.span(), binned_.entry_bin.span(),
                   hist::PackedTables::view(block.span(), cmd_col),
                   rows_.span(), slot_rows_.span(), level_.n_rows,
                   st_.node_of.span(), rows_next_.span(),
                   next_slot_rows.span());

  hist_prev_ = std::move(hist_cur_);
  if (!grow) {
    tables_ = device::ArenaBuffer<std::int64_t>{};
    return;
  }
  std::swap(rows_, rows_next_);
  slot_rows_ = std::move(next_slot_rows);
  level_ = std::move(next);
  cols_ = next_cols;
  tables_ = std::move(block);
  if (testing::invariants_enabled()) {
    std::vector<std::int32_t> nodes;
    nodes.reserve(plan.next_active.size());
    for (const ActiveNode& a : plan.next_active) nodes.push_back(a.tree_node);
    testing::check_row_index(rows_.span(), slot_rows_.span(),
                             st_.node_of.span(), nodes, "hist_row_index");
  }
}

void HistGrower::finish_tree() {
  st_.active.clear();
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  hist_cur_ = device::ArenaBuffer<hist::QGH>{};
  tables_ = device::ArenaBuffer<std::int64_t>{};
  slot_rows_ = device::ArenaBuffer<std::int64_t>{};
}

}  // namespace gbdt
