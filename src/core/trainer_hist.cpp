// Device-side histogram method (see core/trainer_hist.h).
//
// Per tree: gradients are quantized to int64 fixed point (hist::GradQuant),
// then each level runs
//
//   hist_build      per-(node, attribute) gradient histograms over the
//                   bin-index matrix, privatized per block and merged
//                   deterministically — and only for the *smaller* sibling
//                   of each pair;
//   hist_subtract   the larger sibling's histogram derived as
//                   parent - sibling (exact in int64, so bitwise identical
//                   to accumulating it directly — self-checked under
//                   GBDT_CHECK_INVARIANTS);
//   hist_find_split the PR 5 fused scan + gain/argmax machinery over bins
//                   instead of sorted values: segment s = slot * n_attr +
//                   attr holds exactly n_bins cells, so the histogram buffer
//                   itself is the segment layout;
//   hist_split_node instances of splitting nodes binary-search their CSR row
//                   for the split attribute and compare bin indices.
//
// All per-level scratch comes from the TrainState workspace arena; the only
// steady-state device allocations are the persistent per-instance buffers.
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
      qh_(dev.alloc<std::int64_t>(static_cast<std::size_t>(st.n_inst))) {}

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

ActiveNode HistGrower::begin_tree(Tree& tree, const hist::QGH& global_root) {
  prim::fill(dev_, st_.node_of, std::int32_t{0});
  st_.tree = &tree;
  slotq_.assign(1, global_root);
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  pair_parent_slot_.clear();
  return ActiveNode{0, static_cast<double>(global_root.g) * quant_g_.inv,
                    static_cast<double>(global_root.h) * quant_h_.inv,
                    global_root.cnt};
}

void HistGrower::make_accum_plan() {
  AccumPlan& plan = accum_;
  plan.accum_of_node.assign(
      static_cast<std::size_t>(st_.current_tree_nodes()), -1);
  plan.dest_slot.clear();
  plan.der_parent.clear();
  plan.der_sibling.clear();
  plan.der_derived.clear();
  if (pair_parent_slot_.empty()) {
    // First level (or no parent histograms): accumulate every slot.
    for (std::size_t s = 0; s < st_.active.size(); ++s) {
      plan.accum_of_node[static_cast<std::size_t>(st_.active[s].tree_node)] =
          static_cast<std::int32_t>(plan.dest_slot.size());
      plan.dest_slot.push_back(static_cast<std::int32_t>(s));
    }
    return;
  }
  // Deeper levels: active nodes arrive in sibling pairs (slots 2k, 2k+1);
  // accumulate the smaller child, derive the other from the parent.  Counts
  // are global in the multi-GPU path, so every shard picks the same sibling.
  for (std::size_t k = 0; k < pair_parent_slot_.size(); ++k) {
    const std::size_t l = 2 * k;
    const std::size_t r = 2 * k + 1;
    const std::size_t small =
        st_.active[l].count <= st_.active[r].count ? l : r;
    const std::size_t big = small == l ? r : l;
    plan.accum_of_node[static_cast<std::size_t>(st_.active[small].tree_node)] =
        static_cast<std::int32_t>(plan.dest_slot.size());
    plan.dest_slot.push_back(static_cast<std::int32_t>(small));
    plan.der_parent.push_back(pair_parent_slot_[k]);
    plan.der_sibling.push_back(static_cast<std::int32_t>(small));
    plan.der_derived.push_back(static_cast<std::int32_t>(big));
  }
}

void HistGrower::plan_level(const std::vector<ActiveNode>& active) {
  st_.active = active;
  hist_cur_ = st_.arena.alloc<hist::QGH>(
      static_cast<std::size_t>(st_.n_active() * cps_));
  make_accum_plan();
}

void HistGrower::build_level() {
  auto d_accum = detail::upload_pooled(dev_, st_.arena, accum_.accum_of_node);
  auto d_dest = detail::upload_pooled(dev_, st_.arena, accum_.dest_slot);
  hist::build_histograms(dev_, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_attr.span(), binned_.entry_bin.span(),
                         qg_.span(), qh_.span(), st_.node_of.span(),
                         d_accum.span(), d_dest.span(), st_.n_attr, n_bins_,
                         hist_cur_.span());
}

std::vector<std::span<hist::QGH>> HistGrower::accumulated_slots() {
  std::vector<std::span<hist::QGH>> out;
  out.reserve(accum_.dest_slot.size());
  auto hc = hist_cur_.span();
  for (const std::int32_t slot : accum_.dest_slot) {
    out.push_back(hc.subspan(
        static_cast<std::size_t>(slot) * static_cast<std::size_t>(cps_),
        static_cast<std::size_t>(cps_)));
  }
  return out;
}

bool HistGrower::has_derived() const { return !accum_.der_derived.empty(); }

void HistGrower::subtract_level() {
  if (!distributed_) {
    static obs::Counter& subtractions =
        obs::Registry::global().counter("gbdt_hist_subtractions_total");
    subtractions.inc(accum_.der_derived.size());
  }
  auto d_parent = detail::upload_pooled(dev_, st_.arena, accum_.der_parent);
  auto d_sibling = detail::upload_pooled(dev_, st_.arena, accum_.der_sibling);
  auto d_derived = detail::upload_pooled(dev_, st_.arena, accum_.der_derived);
  hist::subtract_histograms(dev_, hist_prev_.span(), hist_cur_.span(),
                            d_parent.span(), d_sibling.span(),
                            d_derived.span(), cps_);
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
  if (accum_.der_derived.empty()) return;
  if (testing::fault_injection().break_hist_subtraction) {
    // Test-only corruption, injected host-side (not a modeled access).
    hist_cur_[static_cast<std::size_t>(accum_.der_derived[0]) *
              static_cast<std::size_t>(cps_)]
        .g += 1;
  }
  const std::size_t n_derived = accum_.der_derived.size();
  std::vector<std::int32_t> chk_accum(
      static_cast<std::size_t>(st_.current_tree_nodes()), -1);
  std::vector<std::int32_t> chk_dest(n_derived);
  for (std::size_t k = 0; k < n_derived; ++k) {
    chk_accum[static_cast<std::size_t>(
        st_.active[static_cast<std::size_t>(accum_.der_derived[k])]
            .tree_node)] = static_cast<std::int32_t>(k);
    chk_dest[k] = static_cast<std::int32_t>(k);
  }
  auto d_accum = detail::upload_pooled(st_.dev, st_.arena, chk_accum);
  auto d_dest = detail::upload_pooled(st_.dev, st_.arena, chk_dest);
  auto direct =
      st_.arena.alloc<hist::QGH>(n_derived * static_cast<std::size_t>(cps_));
  hist::build_histograms(st_.dev, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_attr.span(), binned_.entry_bin.span(),
                         qg_.span(), qh_.span(), st_.node_of.span(),
                         d_accum.span(), d_dest.span(), st_.n_attr, n_bins_,
                         direct.span());
  for (std::size_t k = 0; k < n_derived; ++k) {
    const auto slot = static_cast<std::size_t>(accum_.der_derived[k]);
    for (std::int64_t c = 0; c < cps_; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      const hist::QGH sub =
          hist_cur_[slot * static_cast<std::size_t>(cps_) + cu];
      const hist::QGH acc = direct[k * static_cast<std::size_t>(cps_) + cu];
      if (!(sub == acc)) {
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
  seg_offsets_ = detail::device_node_offsets(st_, grid_segments(st_), n_bins_);
  st_.keys = st_.arena.alloc<std::int32_t>(
      static_cast<std::size_t>(st_.n_active() * cps_));
}

void HistGrower::run_set_keys(int stream) {
  prim::set_keys(dev_, seg_offsets_, st_.keys,
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
  auto d_slotq = detail::upload_pooled(dev_, st_.arena, slotq_);
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
  auto sq = d_slotq.span();
  const auto fm = st_.feature_mask;
  prim::fused_gain_argmax(
      dev_, seg_offsets_, prefix, best_seg_val, best_seg_idx, best_seg_dir,
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
          b.reads(sq, s / n_attr);
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
        const hist::QGH node = sq[static_cast<std::size_t>(s / n_attr)];
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
  auto node_offs = detail::device_node_offsets(st_, n_slots, st_.n_attr);
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
    const hist::QGH node = slotq_[su];
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
  // Release the offsets table first: with the back-to-back single-device
  // sequence this reproduces the pre-refactor arena lifetimes exactly.
  seg_offsets_ = device::ArenaBuffer<std::int64_t>{};
  std::vector<std::int32_t> slot_of_node(
      static_cast<std::size_t>(st_.tree->n_nodes()), -1);
  for (std::size_t s = 0; s < st_.active.size(); ++s) {
    slot_of_node[static_cast<std::size_t>(st_.active[s].tree_node)] =
        static_cast<std::int32_t>(s);
  }
  std::vector<hist::HistSplitCmd> cmds(plan.per_slot.size());
  for (std::size_t s = 0; s < cmds.size(); ++s) {
    const auto& e = plan.per_slot[s];
    if (!e.split) continue;
    cmds[s] = hist::HistSplitCmd{e.attr, static_cast<std::int32_t>(e.best_pos),
                                 e.left_id, e.right_id,
                                 static_cast<std::uint8_t>(e.default_left)};
  }
  auto d_slot = detail::upload_pooled(dev_, st_.arena, slot_of_node);
  auto d_cmds = detail::upload_pooled(dev_, st_.arena, cmds);
  hist::update_positions(dev_, binned_.row_offsets.span(),
                         binned_.entry_attr.span(), binned_.entry_bin.span(),
                         d_slot.span(), d_cmds.span(), st_.node_of.span());
}

void HistGrower::advance_level(const detail::LevelPlan& plan) {
  hist_prev_ = std::move(hist_cur_);
  pair_parent_slot_.clear();
  slotq_.clear();
  for (std::size_t s = 0; s < plan.per_slot.size(); ++s) {
    if (!plan.per_slot[s].split) continue;
    pair_parent_slot_.push_back(static_cast<std::int32_t>(s));
    slotq_.push_back(child_q_[2 * s]);
    slotq_.push_back(child_q_[2 * s + 1]);
  }
}

void HistGrower::finish_tree() {
  st_.active.clear();
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  hist_cur_ = device::ArenaBuffer<hist::QGH>{};
  pair_parent_slot_.clear();
}

}  // namespace gbdt
