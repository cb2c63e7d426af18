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
//                   itself is the segment layout, and its offsets and cell
//                   keys are one grid kept for the widest level yet;
//   hist_split_node rows of splitting nodes look the split attribute up in
//                   the window of their CSR row where it can sit (one
//                   probe on a full row) and compare its symbol with the
//                   split's, then the row index is partitioned by
//                   next-level slot.
//
// hist_find_split ends in the level's decision (hist_decide_level), which
// writes the device tree and the next level's tables, so no level crosses
// PCI-e; each tree is read back once.  All per-level scratch comes from the
// TrainState workspace arena.
//
// The steps live in HistGrower so the multi-GPU trainer can drive K growers
// in lockstep, merging histograms between build and subtract;
// GpuGbdtTrainer (core/trainer.cpp) and the multi-GPU trainer sequence them
// as level-driver backends (core/level_driver.h).
#include "core/trainer_hist.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/level_driver.h"
#include "core/trainer_detail.h"
#include "obs/metrics.h"
#include "primitives/fused_split.h"
#include "primitives/reduce.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::ActiveNode;
using detail::BestSplit;
using detail::GHPair;
using detail::TrainState;
using device::Device;

namespace {

/// A HistTables block's columns, writable: `n_split` split bins, room for
/// `n_pairs` split pairs' next-level tables, then the sizes.
struct TableColumns {
  enum Size { kSlots, kAccum, kItems, kParts, kMulti, kDerived, kRows, kN };
  std::span<std::int64_t> split_bin, slot, item, part, multi, der_parent,
      der_derived, slotq, sizes;

  [[nodiscard]] static std::size_t words(std::size_t n_split,
                                         std::size_t n_pairs) {
    return n_split + 12 * n_pairs + 1 + kN;
  }

  TableColumns(std::span<std::int64_t> block, std::size_t n_split,
               std::size_t n_pairs) {
    std::size_t at = 0;
    const auto column = [&block, &at](std::size_t len) {
      const std::span<std::int64_t> c = block.subspan(at, len);
      at += len;
      return c;
    };
    split_bin = column(n_split);
    slot = column(n_pairs);
    item = column(n_pairs + 1);
    part = column(n_pairs);
    multi = column(n_pairs);
    der_parent = column(n_pairs);
    der_derived = column(n_pairs);
    slotq = column(6 * n_pairs);
    sizes = column(kN);
  }

  [[nodiscard]] std::int64_t& size(Size k) const { return sizes[k]; }

  void clear() const {
    std::fill(sizes.begin(), sizes.end(), 0);
    item[0] = 0;
  }
  /// Accumulates slot `s` of at most `rows` rows in items of `chunk` rows.
  void add_build(std::int64_t s, std::int64_t rows, std::int64_t chunk) const {
    const auto a = static_cast<std::size_t>(size(kAccum)++);
    const std::int64_t items =
        std::max<std::int64_t>(1, (rows + chunk - 1) / chunk);
    slot[a] = s;
    item[a + 1] = size(kItems) = item[a] + items;
    part[a] = items > 1 ? size(kParts) : -1;
    if (items > 1) {
      multi[static_cast<std::size_t>(size(kMulti)++)] =
          static_cast<std::int64_t>(a);
      size(kParts) += items;
    }
  }
  void add_slot(const hist::QGH& q) const {
    const auto u = static_cast<std::size_t>(3 * size(kSlots)++);
    slotq[u] = q.g;
    slotq[u + 1] = q.h;
    slotq[u + 2] = q.cnt;
  }

  /// The tables once the device wrote `block`, trimmed to their sizes.
  [[nodiscard]] HistTables view(device::ArenaBuffer<std::int64_t> block,
                                std::int64_t chunk) const {
    const auto len = [this](Size k) { return std::size_t(size(k)); };
    HistTables t;
    t.block = std::move(block);
    t.split_bin = split_bin;
    t.build = hist::BuildTables{slot.first(len(kAccum)),
                                item.first(len(kAccum) + 1),
                                part.first(len(kAccum)),
                                multi.first(len(kMulti)),
                                chunk,
                                size(kItems),
                                size(kParts)};
    t.der_parent = der_parent.first(len(kDerived));
    t.der_sibling = slot.first(len(kDerived));  // the accumulated child
    t.der_derived = der_derived.first(len(kDerived));
    t.slotq = slotq.first(std::min(slotq.size(), 3 * len(kSlots)));
    t.n_slots = size(kSlots);
    t.n_rows = size(kRows);
    return t;
  }
};

/// Every symbol a * n_bins + bin of the matrix fits BinSymbol.
void check_symbol_width(const data::Dataset& ds, int n_bins) {
  const std::int64_t n_attr = ds.n_attributes();
  constexpr std::int64_t kSymbols =
      std::int64_t{std::numeric_limits<hist::BinSymbol>::max()} + 1;
  if (n_bins < 1 || n_attr > kSymbols / n_bins) {
    throw std::invalid_argument(
        "hist: n_attr (" + std::to_string(n_attr) + ") * n_bins (" +
        std::to_string(n_bins) + ") symbols do not fit a " +
        std::to_string(8 * sizeof(hist::BinSymbol)) + "-bit bin symbol");
  }
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
  check_symbol_width(ds, n_bins);
  BinnedMatrix m;
  m.n_inst = ds.n_instances();
  m.n_attr = ds.n_attributes();
  m.n_bins = n_bins;
  m.cuts = cuts;
  // Rewrite the entry stream as symbols (attr * n_bins + bin) and upload.
  const auto& entries = ds.entries();
  std::vector<hist::BinSymbol> sym(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const auto a = static_cast<std::size_t>(entries[k].attr);
    sym[k] = static_cast<hist::BinSymbol>(
        a * static_cast<std::size_t>(n_bins) +
        static_cast<std::size_t>(m.cuts[a].bin_of(entries[k].value)));
  }
  std::vector<float> cut_values(
      static_cast<std::size_t>(m.n_attr) * static_cast<std::size_t>(n_bins),
      0.f);
  for (std::size_t a = 0; a < m.cuts.size(); ++a) {
    std::copy(m.cuts[a].bin_low.begin(), m.cuts[a].bin_low.end(),
              cut_values.begin() +
                  static_cast<std::ptrdiff_t>(a * static_cast<std::size_t>(
                                                      n_bins)));
  }
  m.row_offsets = dev.to_device<std::int64_t>(ds.row_offsets());
  m.entry_sym = dev.to_device<hist::BinSymbol>(sym);
  m.cut_values = dev.to_device<float>(cut_values);
  return m;
}

BinnedMatrix build_binned_matrix(Device& dev, const data::Dataset& ds,
                                 int n_bins) {
  check_symbol_width(ds, n_bins);
  return build_binned_matrix(dev, ds, n_bins, build_hist_cuts(ds, n_bins));
}

HistSearch::Winner HistSearch::winner(device::BlockCtx& b,
                                      std::int64_t s) const {
  Winner out;
  const auto us = static_cast<std::size_t>(s);
  const std::int64_t seg = node_idx[us];
  b.reads(node_idx, s);
  b.mem_irregular(1);
  if (seg < 0) return out;
  const auto useg = static_cast<std::size_t>(seg);
  const std::int64_t cell = seg_idx[useg];
  b.reads(seg_idx, seg);
  b.mem_irregular(1);
  if (cell < 0) return out;
  const double gain = node_val[us];
  b.reads(node_val, s);
  b.mem_irregular(1);
  if (!(gain > 0.0)) return out;
  const auto attr = static_cast<std::int32_t>(seg % n_attr);
  const std::int64_t bin = cell - seg * n_bins;
  const bool dir = seg_dir[useg] != 0;
  hist::QGH lq = scan.at(cell, seg * n_bins);
  const hist::QGH pres = seg_tot[useg];
  const hist::QGH node{slotq[3 * us], slotq[3 * us + 1], slotq[3 * us + 2]};
  if (dir) lq += node - pres;  // missing values go left
  const hist::QGH rq = node - lq;
  const std::int64_t cut = attr * n_bins + bin;
  BestSplit& bs = out.split;
  bs.valid = true;
  bs.gain = gain;
  bs.attr = attr;
  bs.split_value = cut_values[static_cast<std::size_t>(cut)];
  bs.default_left = dir;
  bs.seg = seg;
  bs.pos = bin;
  bs.left = ActiveNode{-1, static_cast<double>(lq.g) * quant_g.inv,
                       static_cast<double>(lq.h) * quant_h.inv, lq.cnt};
  bs.right = ActiveNode{-1, static_cast<double>(rq.g) * quant_g.inv,
                        static_cast<double>(rq.h) * quant_h.inv, rq.cnt};
  out.left = lq;
  out.right = rq;
  b.reads(seg_dir, seg);
  b.reads(seg_tot, seg);
  b.reads(slotq, 3 * s, 3);
  b.reads(cut_values, cut);
  b.reads(scan.partial, cell);
  const bool carried = scan.carried(cell / prim::kBlockDim, seg * n_bins);
  if (carried) b.reads(scan.carries, cell / prim::kBlockDim);
  // Direction, present total, slot stats, cut value, the scan value and
  // its block carry: one transaction per gathered field.
  b.mem_irregular(5 + (carried ? 1 : 0));
  return out;
}

HistTables decide_hist_level(TrainState& st, const HistSearch& search,
                             bool children_are_leaves, std::int64_t chunk) {
  const auto slots = static_cast<std::size_t>(st.n_slots);
  const bool grow = !children_are_leaves;
  const std::size_t pairs = grow ? slots : 0;  // each slot may split
  const std::size_t words = TableColumns::words(slots, pairs);
  auto block = st.arena.alloc<std::int64_t>(words);
  const auto all = block.span();
  const TableColumns c(all, slots, pairs);
  const std::int64_t n_inst = st.n_inst;
  st.dev.launch(
      "hist_decide_level", 1, prim::kBlockDim, [&](device::BlockCtx& b) {
        c.clear();
        std::fill(c.split_bin.begin(), c.split_bin.end(), -1);
        std::int64_t rows = 0;
        HistSearch::Winner w;  // the current slot's, with its children's QGH
        const std::int64_t n_next = detail::decide_slots(
            b, st, children_are_leaves,
            [&](std::int64_t s, const ActiveNode& /*node*/) {
              w = search.winner(b, s);
              return w.split;
            },
            [&](std::int64_t s, const ActiveNode& /*node*/,
                const BestSplit& split, std::int64_t l) {
              c.split_bin[static_cast<std::size_t>(s)] = split.pos;
              if (!grow) return;
              // The pair accumulates its smaller child and derives the
              // other from this level's histogram.  A shard's rows of a
              // slot are bounded by its global count and by the shard's
              // own rows (on one device the count is exact).
              const std::int64_t small =
                  w.left.cnt <= w.right.cnt ? l : l + 1;
              const auto k =
                  static_cast<std::size_t>(c.size(TableColumns::kAccum));
              c.add_build(small,
                          std::min({w.left.cnt, w.right.cnt, n_inst}), chunk);
              c.der_parent[k] = s;
              c.der_derived[k] = small == l ? l + 1 : l;
              c.add_slot(w.left);
              c.add_slot(w.right);
              rows += w.left.cnt + w.right.cnt;
            });
        c.size(TableColumns::kSlots) = n_next;
        c.size(TableColumns::kDerived) = c.size(TableColumns::kAccum);
        c.size(TableColumns::kRows) = std::min(rows, n_inst);
        b.writes(all, 0, static_cast<std::int64_t>(words));
        b.mem_coalesced(words * sizeof(std::int64_t));  // the tables stream
      });
  return c.view(std::move(block), chunk);
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

void HistGrower::begin_tree(const hist::QGH& global_root) {
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  next_ = HistTables{};
  // The root level's tables: a handful of words, passed as kernel
  // arguments rather than uploaded.
  const std::int64_t n = st_.n_inst;
  std::vector<std::int64_t> words(TableColumns::words(0, 1));
  {
    const TableColumns c(words, 0, 1);
    c.clear();
    c.add_build(0, n, chunk_);
    c.add_slot(global_root);
    c.size(TableColumns::kRows) = n;
  }
  auto block = st_.arena.alloc<std::int64_t>(words.size());
  slot_rows_ = st_.arena.alloc<std::int64_t>(2);
  const TreeNode root = detail::child_node(
      ActiveNode{0, static_cast<double>(global_root.g) * quant_g_.inv,
                 static_cast<double>(global_root.h) * quant_h_.inv,
                 global_root.cnt},
      /*leaf=*/false, param_);
  // Every row in the root, in row order; block 0 writes the root's record
  // and the tables.
  auto node_of = st_.node_of.span();
  auto rows = rows_.span();
  auto slot_rows = slot_rows_.span();
  auto tables = block.span();
  auto nodes = st_.nodes.span();
  dev_.launch(
      "hist_begin_tree", device::grid_for(n, prim::kBlockDim), prim::kBlockDim,
      [&](device::BlockCtx& b) {
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
          nodes[0] = root;
          b.writes(slot_rows, 0, 2);
          b.writes(tables, 0, static_cast<std::int64_t>(words.size()));
          b.writes(nodes, 0);
          extra = (2 + words.size()) * sizeof(std::int64_t) + sizeof(TreeNode);
        }
        b.mem_coalesced(prim::elems_in_block(b, n) * 2 *
                            sizeof(std::int32_t) +
                        extra);
      });
  tables_ = TableColumns(tables, 0, 1).view(std::move(block), chunk_);
  st_.level_base = 0;
  st_.n_slots = 1;
}

void HistGrower::plan_level() {
  hist_cur_ = st_.arena.alloc<hist::QGH>(
      static_cast<std::size_t>(st_.n_slots * cps_));
}

void HistGrower::build_level() {
  hist::build_histograms(dev_, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_sym.span(), qg_.span(), qh_.span(),
                         rows_.span(), slot_rows_.span(), tables_.build,
                         binned_.n_attr, n_bins_, hist_cur_.span());
}

std::vector<std::span<hist::QGH>> HistGrower::accumulated_slots() {
  std::vector<std::span<hist::QGH>> out;
  out.reserve(tables_.build.slot.size());
  auto hc = hist_cur_.span();
  for (const std::int64_t slot : tables_.build.slot) {
    out.push_back(hc.subspan(
        static_cast<std::size_t>(slot) * static_cast<std::size_t>(cps_),
        static_cast<std::size_t>(cps_)));
  }
  return out;
}

bool HistGrower::has_derived() const { return !tables_.der_derived.empty(); }

void HistGrower::subtract_level() {
  if (!distributed_) {
    static obs::Counter& subtractions =
        obs::Registry::global().counter("gbdt_hist_subtractions_total");
    subtractions.inc(tables_.der_derived.size());
  }
  hist::subtract_histograms(dev_, hist_prev_.span(), hist_cur_.span(),
                            tables_.der_parent, tables_.der_sibling,
                            tables_.der_derived, cps_);
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
  const auto derived = tables_.der_derived;
  if (derived.empty()) return;
  if (testing::fault_injection().break_hist_subtraction) {
    // Test-only corruption, injected host-side (not a modeled access).
    hist_cur_[static_cast<std::size_t>(derived[0]) *
              static_cast<std::size_t>(cps_)]
        .g += 1;
  }
  // A build plan of the derived slots, each holding its tree node's rows.
  std::vector<std::int64_t> words(TableColumns::words(0, derived.size()));
  const TableColumns c(words, 0, derived.size());
  c.clear();
  for (const std::int64_t slot : derived) {
    const TreeNode& tn =
        st_.nodes[static_cast<std::size_t>(st_.level_base + slot)];
    c.add_build(slot, std::min(tn.n_instances, st_.n_inst), chunk_);
  }
  auto block = detail::upload_pooled(st_.dev, st_.arena, words);
  const auto plan = TableColumns(block.span(), 0, derived.size())
                        .view(std::move(block), chunk_);
  auto direct = st_.arena.alloc<hist::QGH>(hist_cur_.size());
  hist::build_histograms(st_.dev, st_.arena, binned_.row_offsets.span(),
                         binned_.entry_sym.span(), qg_.span(), qh_.span(),
                         rows_.span(), slot_rows_.span(), plan.build,
                         binned_.n_attr, n_bins_, direct.span());
  for (const std::int64_t slot : derived) {
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

void HistGrower::grow_grid() {
  if (st_.n_slots <= grid_slots_) return;
  grid_slots_ = std::max(st_.n_slots, 2 * grid_slots_);
  grid_offsets_.free();
  grid_keys_.free();
  // One launch writes both offset tables, then set_keys the cell keys.
  const std::int64_t n_seg = grid_slots_ * st_.n_attr;
  const std::int64_t n = n_seg + 1 + grid_slots_ + 1;
  grid_offsets_ = dev_.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto o = grid_offsets_.span();
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
  grid_keys_ = dev_.alloc<std::int32_t>(
      static_cast<std::size_t>(grid_slots_ * cps_));
  prim::set_keys(dev_, o.first(static_cast<std::size_t>(n_seg + 1)),
                 grid_keys_,
                 st_.segs_per_block(n_seg, grid_slots_ * cps_));
}

void HistGrower::find_level(bool children_are_leaves) {
  grow_grid();
  const std::int64_t n_slots = st_.n_slots;
  const std::int64_t n_seg = n_slots * st_.n_attr;
  const std::span<const std::int64_t> grid = grid_offsets_.span();
  const auto seg_offsets = grid.first(static_cast<std::size_t>(n_seg + 1));
  const auto node_offs =
      grid.subspan(static_cast<std::size_t>(grid_slots_ * st_.n_attr + 1),
                   static_cast<std::size_t>(n_slots + 1));
  auto scan =
      st_.arena.alloc<hist::QGH>(static_cast<std::size_t>(n_slots * cps_));
  auto seg_tot = st_.arena.alloc<hist::QGH>(static_cast<std::size_t>(n_seg));
  auto hc = hist_cur_.span();
  prim::CarriedScan<hist::QGH> prefix = prim::fused_gather_scan_totals(
      dev_, st_.arena, grid_keys_, scan, seg_tot,
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
  auto tot = seg_tot.span();
  const auto sq = tables_.slotq;
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
  auto best_node_val =
      st_.arena.alloc<double>(static_cast<std::size_t>(n_slots));
  auto best_node_idx =
      st_.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_slots));
  prim::segmented_arg_max(dev_, best_seg_val, node_offs, best_node_val,
                          best_node_idx, 1, "hist_node_best");

  // The decision reads the merged histograms' winners and the global slot
  // stats, so every shard decides the same level bit for bit.
  next_ = decide_hist_level(
      st_,
      HistSearch{best_node_val.span(), best_node_idx.span(),
                 best_seg_idx.span(), best_seg_dir.span(), std::move(prefix),
                 seg_tot.span(), sq, binned_.cut_values.span(), n_attr,
                 n_bins_, quant_g_, quant_h_},
      children_are_leaves, chunk_);
}

void HistGrower::apply_level(bool children_are_leaves) {
  const bool grow = !children_are_leaves;
  const std::int64_t next_base = st_.level_base + st_.n_slots;
  auto next_slot_rows = st_.arena.alloc<std::int64_t>(
      grow ? static_cast<std::size_t>(next_.n_slots) + 1 : 0);
  hist::split_rows(dev_, st_.arena, binned_.row_offsets.span(),
                   binned_.entry_sym.span(), binned_.n_attr, n_bins_,
                   std::span<const TreeNode>(st_.nodes.span())
                       .subspan(static_cast<std::size_t>(st_.level_base),
                                static_cast<std::size_t>(st_.n_slots)),
                   next_.split_bin, next_base, rows_.span(), slot_rows_.span(),
                   tables_.n_rows, st_.node_of.span(), rows_next_.span(),
                   next_slot_rows.span());

  hist_prev_ = std::move(hist_cur_);
  if (!grow) {
    tables_ = HistTables{};
    next_ = HistTables{};
    return;
  }
  std::swap(rows_, rows_next_);
  slot_rows_ = std::move(next_slot_rows);
  tables_ = std::move(next_);
  next_ = HistTables{};
  if (testing::invariants_enabled()) {
    std::vector<std::int32_t> nodes(static_cast<std::size_t>(tables_.n_slots));
    std::iota(nodes.begin(), nodes.end(), static_cast<std::int32_t>(next_base));
    testing::check_row_index(rows_.span(), slot_rows_.span(),
                             st_.node_of.span(), nodes, "hist_row_index");
  }
}

void HistGrower::finish_tree() {
  hist_prev_ = device::ArenaBuffer<hist::QGH>{};
  hist_cur_ = device::ArenaBuffer<hist::QGH>{};
  tables_ = HistTables{};
  next_ = HistTables{};
  slot_rows_ = device::ArenaBuffer<std::int64_t>{};
}

}  // namespace gbdt
