// Histogram-method primitives (quantized feature bins + per-node gradient
// histograms), the device side of the trainer in core/trainer_hist.cpp.
//
// Production GPU GBDT systems (XGBoost-GPU, LightGBM, ThunderGBM) reach large
// scale by quantizing each attribute into <= n_bins quantile buckets up front
// and accumulating per-(node, attribute) gradient histograms instead of
// scanning sorted value lists.  This header holds the shared pieces:
//
//  * BinCuts / build_cuts — host-side quantile binning (one implementation,
//    so the device trainer's symbol matrix can be verified against
//    BinCuts::bin_of directly);
//  * QGH — the histogram cell: gradient/hessian sums quantized to int64
//    fixed point plus an instance count.  Integer addition is exact and
//    associative, which is what makes the histogram-subtraction trick
//    (child = parent - sibling) *bitwise* identical to direct accumulation
//    regardless of the block decomposition — with double cells the
//    subtraction would drift in the last ulp and the trainer could not be
//    deterministic;
//  * the build plan (BuildTables): the accumulated slots as int64 columns
//    of the level's table block;
//  * BinSymbol — one 4-byte symbol per CSR entry, attribute * n_bins + bin:
//    the entry's histogram cell, so the build adds at the symbol itself and
//    the row split reads the attribute and the bin in one access;
//  * the `hist_`-labelled kernels over a row index sorted by tree node
//    (Mitchell 2018's row partitioner): the tiled build (each block
//    accumulates one shared-memory-sized tile of one slot's histogram over
//    a chunk of that slot's rows and writes it once), the merge of the
//    partial copies of slots that span several chunks, the subtraction
//    kernel, and the row split that moves rows to the children the device
//    tree names and partitions the index by next-level slot.  A kernel that
//    looks an attribute up in a row searches only the positions the row's
//    length leaves it (data::find_in_row: one probe on a full row), and
//    every probe, the hit included, is charged as one irregular
//    transaction.  gbdt_lint enforces the `hist_` label prefix for every
//    launch in this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "primitives/transform.h"

namespace gbdt::hist {

// ---- host-side quantile binning --------------------------------------------

/// Quantile bin edges of one attribute: bin_low[b] is the smallest value of
/// bin b, bins ordered by value descending (bin 0 = highest values) to match
/// the library's split convention (x >= split_value -> left).
struct BinCuts {
  std::vector<float> bin_low;

  [[nodiscard]] int bin_of(float v) const {
    // First bin whose low edge is <= v (bin_low is descending).
    const auto it = std::lower_bound(bin_low.begin(), bin_low.end(), v,
                                     [](float low, float x) { return low > x; });
    return it == bin_low.end() ? static_cast<int>(bin_low.size()) - 1
                               : static_cast<int>(it - bin_low.begin());
  }
};

/// Greedy quantile cuts over the column's values (any order), at most n_bins
/// buckets, boundaries only between distinct values.
///
/// Degenerate inputs are handled explicitly: a column with d <= n_bins
/// distinct values gets exactly one bin per distinct value, and when the
/// greedy chunking would swallow every value into a single bin (one dominant
/// run), a boundary is forced before the final run — so with n_bins >= 2 any
/// column with at least two distinct values always has at least one usable
/// split boundary.  All-equal columns legitimately produce a single bin (no
/// split exists), as does an explicit n_bins == 1 request.
inline BinCuts build_cuts(std::vector<float> values, int n_bins) {
  BinCuts cuts;
  if (values.empty()) {
    cuts.bin_low.push_back(0.f);
    return cuts;
  }
  std::sort(values.rbegin(), values.rend());  // descending
  std::size_t distinct = 1;
  for (std::size_t k = 1; k < values.size(); ++k) {
    if (values[k] != values[k - 1]) ++distinct;
  }
  const auto want = static_cast<std::size_t>(std::max(1, n_bins));
  if (distinct <= want) {
    // One bin per distinct value: each run's last element is its low edge.
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (k + 1 == values.size() || values[k + 1] != values[k]) {
        cuts.bin_low.push_back(values[k]);
      }
    }
    return cuts;
  }
  // Ceiling division: at most n_bins chunks (run extension below only makes
  // chunks bigger, never more numerous).
  const std::size_t per_bin = (values.size() + want - 1) / want;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t j = std::min(values.size(), i + per_bin);
    // Extend to the end of the run of equal values (a value never straddles
    // two bins).
    while (j < values.size() && values[j] == values[j - 1]) ++j;
    cuts.bin_low.push_back(values[j - 1]);
    i = j;
  }
  if (want > 1 && cuts.bin_low.size() == 1) {
    // A dominant run swallowed the whole column: cut before the final
    // (minimum-value) run so the boundary separates distinct values.
    // (With n_bins == 1 a single bin is the requested result, not a
    // degeneracy, so no boundary is forced.)
    std::size_t r = values.size() - 1;
    while (r > 0 && values[r - 1] == values[r]) --r;
    cuts.bin_low[0] = values[r - 1];
    cuts.bin_low.push_back(values.back());
  }
  return cuts;
}

/// One quantized CSR entry: attribute * n_bins + bin, which is also the
/// entry's cell in a slot's histogram row.  Rows keep their entries in
/// attribute order, so a row's symbols are strictly increasing.
using BinSymbol = std::uint32_t;

// ---- fixed-point gradient quantization -------------------------------------

/// One histogram cell: fixed-point gradient/hessian sums and the instance
/// count.  Also the element type of the fused find-split scan over bins
/// (default ctor + operator+= + operator== are what
/// prim::fused_gather_scan_totals requires).
struct QGH {
  std::int64_t g = 0;
  std::int64_t h = 0;
  std::int64_t cnt = 0;

  QGH& operator+=(const QGH& o) {
    g += o.g;
    h += o.h;
    cnt += o.cnt;
    return *this;
  }
  friend QGH operator+(QGH a, const QGH& b) { return a += b; }
  friend QGH operator-(QGH a, const QGH& b) {
    a.g -= b.g;
    a.h -= b.h;
    a.cnt -= b.cnt;
    return a;
  }
  friend bool operator==(const QGH&, const QGH&) = default;
};

inline constexpr int kQuantBits = 40;

/// Per-tree fixed-point scaling: q = llround(v * scale), v ~= q * inv.
struct GradQuant {
  double scale = 1.0;
  double inv = 1.0;
};

/// Scale mapping max |v| to 2^bits, with bits <= kQuantBits lowered until
/// n_inst * 2^bits < 2^62 so no per-node int64 sum can overflow.  Powers of
/// two keep scale * inv == 1 exactly, so dequantization is drift-free.
[[nodiscard]] inline GradQuant make_grad_quant(double max_abs,
                                               std::int64_t n_inst) {
  GradQuant q;
  if (!(max_abs > 0.0) || !std::isfinite(max_abs)) return q;
  int bits = kQuantBits;
  while (bits > 1 && static_cast<double>(n_inst) * std::ldexp(1.0, bits) >=
                         std::ldexp(1.0, 62)) {
    --bits;
  }
  q.scale = std::ldexp(1.0, bits) / max_abs;
  q.inv = max_abs * std::ldexp(1.0, -bits);
  return q;
}

// ---- build plan -------------------------------------------------------------

/// Rows one build item holds: `n` rows over min(ceil(n / kBlockDim),
/// 2 * SMs) blocks, so the root keeps every SM busy twice over without
/// giving a block fewer rows than it has threads.
[[nodiscard]] inline std::int64_t build_chunk_rows(
    const device::DeviceConfig& cfg, std::int64_t n) {
  const std::int64_t blocks = std::min<std::int64_t>(
      device::grid_for(n, prim::kBlockDim),
      2 * static_cast<std::int64_t>(cfg.num_sms));
  return std::max<std::int64_t>(1, (n + blocks - 1) / blocks);
}

/// Cells of one build block's shared-memory tile: as many whole attributes
/// (n_bins cells each) as DeviceConfig::shared_mem_per_block_bytes holds, or
/// the capacity itself when one attribute does not fit, and never more than
/// the slot's `cells_per_slot`.
[[nodiscard]] inline std::int64_t tile_cells(const device::DeviceConfig& cfg,
                                             std::int64_t n_bins,
                                             std::int64_t cells_per_slot) {
  const auto cap = static_cast<std::int64_t>(cfg.shared_mem_per_block_bytes /
                                             sizeof(QGH));
  if (cap < 1) {
    throw std::invalid_argument(
        "hist: shared memory per block holds no histogram cell");
  }
  const std::int64_t tile = n_bins <= cap ? cap / n_bins * n_bins : cap;
  return std::max<std::int64_t>(1, std::min(tile, cells_per_slot));
}

/// Device view of a level's build plan (spans into the level's table block,
/// which the split decision writes on the device).  Each accumulated slot's
/// rows split into build items of at most `chunk` rows, and one block runs
/// per (item, tile).  A slot with a single item writes its tiles straight
/// into its row of the output; only a slot with several items gives each
/// one a partial copy, which hist_merge folds in item order.
struct BuildTables {
  std::span<const std::int64_t> slot;   // [n_accum] slot = output row
  std::span<const std::int64_t> item;   // [n_accum + 1] first item, total
  std::span<const std::int64_t> part;   // [n_accum] first copy, -1: direct
  std::span<const std::int64_t> multi;  // [n_multi] accum indices w/ copies
  std::int64_t chunk = 1;
  std::int64_t n_items = 0;
  std::int64_t n_parts = 0;
};

// ---- device kernels --------------------------------------------------------

/// Accumulates the planned slots' per-(attribute, bin) gradient histograms
/// from the slot-sorted row index: slot s's rows are
/// rows[slot_rows[s], slot_rows[s + 1]).
///
/// Block (item, tile) walks its item's rows and accumulates the tile's cells
/// in shared memory (QGH cells, zeroed on entry, never larger than
/// DeviceConfig::shared_mem_per_block_bytes): an entry adds at its symbol
/// less the tile's first cell.  When a slot needs several tiles, each row
/// first looks up the tile's first attribute.  The block then writes the
/// tile once:
/// into the slot's row of `out` when the slot has one item, else into the
/// item's partial copy, which hist_merge folds in item order.  Cells are
/// int64, so neither the tile split nor the fold order can change a bit.
/// Every item writes all its cells, so no output is filled beforehand;
/// `out` needs max(slot)+1 rows of n_attr * n_bins cells, and only the
/// planned slots' rows are written.
inline void build_histograms(device::Device& dev,
                             device::WorkspaceArena& arena,
                             std::span<const std::int64_t> row_offsets,
                             std::span<const BinSymbol> entry_sym,
                             std::span<const std::int64_t> qg,
                             std::span<const std::int64_t> qh,
                             std::span<const std::int32_t> rows,
                             std::span<const std::int64_t> slot_rows,
                             const BuildTables& plan, std::int64_t n_attr,
                             std::int64_t n_bins, std::span<QGH> out) {
  const std::int64_t cps = n_attr * n_bins;
  if (plan.slot.empty() || cps == 0) return;
  const std::int64_t tile = tile_cells(dev.config(), n_bins, cps);
  const std::int64_t n_tiles = (cps + tile - 1) / tile;
  const bool whole_rows = n_tiles == 1;
  auto partials =
      arena.alloc<QGH>(static_cast<std::size_t>(plan.n_parts * cps));
  auto part = partials.span();

  dev.launch(
      "hist_build", plan.n_items * n_tiles, prim::kBlockDim,
      [&](device::BlockCtx& b) {
        const std::int64_t it = b.block_idx() / n_tiles;
        const std::int64_t c_lo = (b.block_idx() % n_tiles) * tile;
        const std::int64_t c_hi = std::min(c_lo + tile, cps);
        const std::int64_t a_lo = c_lo / n_bins;
        const auto a = static_cast<std::size_t>(
            std::upper_bound(plan.item.begin(), plan.item.end(), it) -
            plan.item.begin() - 1);
        const std::int64_t j = it - plan.item[a];
        const auto s = static_cast<std::size_t>(plan.slot[a]);
        const std::int64_t s_hi = slot_rows[s + 1];
        const std::int64_t lo = std::min(slot_rows[s] + j * plan.chunk, s_hi);
        const std::int64_t hi = std::min(lo + plan.chunk, s_hi);
        std::vector<QGH> acc(static_cast<std::size_t>(c_hi - c_lo));
        b.uses_shared(acc.size() * sizeof(QGH));
        std::uint64_t touched = 0;
        std::uint64_t probes = 0;
        std::uint64_t run_starts = 0;
        for (std::int64_t k = lo; k < hi; ++k) {
          const auto ku = static_cast<std::size_t>(k);
          const auto r = static_cast<std::size_t>(rows[ku]);
          // A row that continues its predecessor's id streams with it.
          run_starts += k == lo || rows[ku] != rows[ku - 1] + 1;
          const QGH gh{qg[r], qh[r], 1};
          std::int64_t e = row_offsets[r];
          const std::int64_t e_end = row_offsets[r + 1];
          if (!whole_rows) {
            // First entry of the tile's first attribute, or past it.
            const data::RowHit at =
                data::find_in_row(entry_sym, e, e_end, n_attr, a_lo, n_bins);
            probes += at.probes;
            e = at.pos;
          }
          const std::int64_t e_first = e;
          for (; e < e_end; ++e) {
            // The symbol is the cell; a tile may start or end mid-attribute.
            const std::int64_t c =
                entry_sym[static_cast<std::size_t>(e)] - c_lo;
            if (c >= c_hi - c_lo) break;
            if (c < 0) continue;
            acc[static_cast<std::size_t>(c)] += gh;
            ++touched;
          }
          b.reads(qg, static_cast<std::int64_t>(r));
          b.reads(qh, static_cast<std::int64_t>(r));
          b.reads(row_offsets, static_cast<std::int64_t>(r), 2);
          b.reads(entry_sym, e_first, std::min(e + 1, e_end) - e_first);
        }
        const std::int64_t first = plan.part[a];
        const auto dst = first < 0 ? out : part;
        const std::int64_t base =
            (first < 0 ? static_cast<std::int64_t>(s) : first + j) * cps +
            c_lo;
        std::copy(acc.begin(), acc.end(),
                  dst.begin() + static_cast<std::ptrdiff_t>(base));
        b.reads(plan.item, 0, static_cast<std::int64_t>(plan.item.size()));
        b.reads(plan.slot, static_cast<std::int64_t>(a));
        b.reads(plan.part, static_cast<std::int64_t>(a));
        b.reads(slot_rows, static_cast<std::int64_t>(s), 2);
        if (hi > lo) b.reads(rows, lo, hi - lo);
        b.writes(dst, base, c_hi - c_lo);
        const auto n = static_cast<std::uint64_t>(hi - lo);
        b.work(n + touched + probes + acc.size());
        // Per row: its index entry streams; the gathered (qg, qh, CSR
        // offsets) and the start of its entry range cost one transaction
        // each at a run start, stream otherwise — except that a tile of
        // some attributes starts a new entry range on every row.  The
        // histogram updates hit shared memory; the tile is written once.
        b.mem_irregular(3 * run_starts + (whole_rows ? run_starts : n) +
                        probes);
        b.mem_coalesced(n * sizeof(std::int32_t) + (n - run_starts) * 24 +
                        touched * sizeof(BinSymbol) +
                        acc.size() * sizeof(QGH));
      });

  if (plan.multi.empty()) return;
  // Fold the partial copies: one thread per cell of a multi-item slot sums
  // its items' copies in item order and writes the slot's output row.
  const auto n_multi = static_cast<std::int64_t>(plan.multi.size());
  const std::int64_t cells = n_multi * cps;
  dev.launch("hist_merge", device::grid_for(cells, prim::kBlockDim),
             prim::kBlockDim, [&](device::BlockCtx& b) {
               std::uint64_t folded = 0;
               b.for_each_thread([&](std::int64_t idx) {
                 if (idx >= cells) return;
                 const auto a = static_cast<std::size_t>(
                     plan.multi[static_cast<std::size_t>(idx / cps)]);
                 const std::int64_t c = idx % cps;
                 const std::int64_t first = plan.part[a];
                 const std::int64_t items = plan.item[a + 1] - plan.item[a];
                 QGH sum{};
                 for (std::int64_t j = 0; j < items; ++j) {
                   const std::int64_t p = (first + j) * cps + c;
                   sum += part[static_cast<std::size_t>(p)];
                   b.reads(part, p);
                 }
                 const std::int64_t d = plan.slot[a] * cps + c;
                 out[static_cast<std::size_t>(d)] = sum;
                 // Output rows are distinct per slot, so the stores stay
                 // block-disjoint; the auditor verifies it.
                 b.writes(out, d);
                 folded += static_cast<std::uint64_t>(items);
               });
               b.reads(plan.multi, 0, n_multi);
               for (const auto col : {plan.slot, plan.item, plan.part}) {
                 b.reads(col, 0, static_cast<std::int64_t>(col.size()));
               }
               const auto m = prim::elems_in_block(b, cells);
               b.work(folded);
               b.mem_coalesced((folded + m) * sizeof(QGH));
             });
}

/// Histogram-subtraction trick: for each derived slot k,
///   cur[derived[k]] = parent[parent_slot[k]] - cur[sibling_slot[k]]
/// cell-wise.  Exact in int64, so the derived histogram is bitwise identical
/// to accumulating the derived child directly (the property
/// tests/test_hist_device.cpp asserts).  `parent` is the previous level's
/// histogram buffer; `cur` holds the accumulated siblings and receives the
/// derived rows.
inline void subtract_histograms(device::Device& dev,
                                std::span<const QGH> parent,
                                std::span<QGH> cur,
                                std::span<const std::int64_t> parent_slot,
                                std::span<const std::int64_t> sibling_slot,
                                std::span<const std::int64_t> derived_slot,
                                std::int64_t cells_per_slot) {
  const auto n_derived = static_cast<std::int64_t>(derived_slot.size());
  const std::int64_t n = n_derived * cells_per_slot;
  if (n == 0) return;
  const std::int64_t grid = device::grid_for(n, prim::kBlockDim);
  dev.launch("hist_subtract", grid, prim::kBlockDim,
             [&](device::BlockCtx& b) {
               b.for_each_thread([&](std::int64_t idx) {
                 if (idx >= n) return;
                 const auto ku = static_cast<std::size_t>(idx / cells_per_slot);
                 const std::int64_t rest = idx % cells_per_slot;
                 const std::int64_t p =
                     parent_slot[ku] * cells_per_slot + rest;
                 const std::int64_t s =
                     sibling_slot[ku] * cells_per_slot + rest;
                 const std::int64_t d =
                     derived_slot[ku] * cells_per_slot + rest;
                 cur[static_cast<std::size_t>(d)] =
                     parent[static_cast<std::size_t>(p)] -
                     cur[static_cast<std::size_t>(s)];
                 b.reads(parent, p);
                 b.reads(cur, s);
                 // Derived rows are distinct from each other and from every
                 // sibling row, so the writes stay block-disjoint.
                 b.writes(cur, d);
               });
               b.reads(parent_slot, 0, n_derived);
               b.reads(sibling_slot, 0, n_derived);
               b.reads(derived_slot, 0, n_derived);
               const auto m = prim::elems_in_block(b, n);
               b.work(m);
               b.mem_coalesced(m * 3 * sizeof(QGH));
             });
}

/// Moves the rows of every splitting slot to their children and, when
/// `next_slot_rows` is non-empty, partitions the slot-sorted row index by
/// next-level slot into `next_rows` (stable, so each child's rows stay in
/// ascending order: Mitchell 2018's row partitioner).  Slot s's split is
/// the decided tree record `slots[s]` (a leaf does not split: its rows
/// leave the index) with `split_bin[s]`, the last bin on its left
/// (high-value) side; its children are next-level slots
/// slots[s].left - next_base and the one after.
///
///  - hist_update_positions: one thread per index position; a row of a
///    splitting slot looks the split attribute up in the window of its CSR
///    row where it can sit (data::find_in_row; one probe when the row holds
///    every attribute), compares the symbol with the split's last left
///    symbol (absent: the default direction) and writes its child into
///    node_of; it also records its side and each block's left count.
///    Mirrors the exact trainer's instance->node map contract, so SmartGD
///    and check_leaf_map work unchanged.
///  - hist_partition_offsets: one block scans the per-block left counts and
///    lays out the children's index ranges in next-slot order.
///  - hist_partition_scatter: each row moves to its child's range at its
///    stable rank.
///
/// `n_rows` bounds the index's length (the device's own is
/// slot_rows[n_slots]); `n_attr` and `n_bins` are the matrix's.
inline void split_rows(device::Device& dev, device::WorkspaceArena& arena,
                       std::span<const std::int64_t> row_offsets,
                       std::span<const BinSymbol> entry_sym,
                       std::int64_t n_attr, std::int64_t n_bins,
                       std::span<const TreeNode> slots,
                       std::span<const std::int64_t> split_bin,
                       std::int64_t next_base,
                       std::span<const std::int32_t> rows,
                       std::span<const std::int64_t> slot_rows,
                       std::int64_t n_rows, std::span<std::int32_t> node_of,
                       std::span<std::int32_t> next_rows,
                       std::span<std::int64_t> next_slot_rows) {
  constexpr std::uint8_t kRight = 0;
  constexpr std::uint8_t kLeft = 1;
  constexpr std::uint8_t kLeaf = 2;
  const auto n_slots = static_cast<std::int64_t>(slot_rows.size()) - 1;
  const bool partition = !next_slot_rows.empty();
  const std::int64_t grid = device::grid_for(n_rows, prim::kBlockDim);
  auto side_buf = arena.alloc<std::uint8_t>(
      partition ? static_cast<std::size_t>(n_rows) : 0);
  auto left_buf = arena.alloc<std::int64_t>(
      partition ? static_cast<std::size_t>(grid) : 0);
  auto side = side_buf.span();
  auto block_left = left_buf.span();
  // Index positions [lo, hi) of block b, and the slot holding position lo.
  const auto tile_of = [slot_rows, n_rows, n_slots](const device::BlockCtx& b,
                                                    std::int64_t& lo,
                                                    std::int64_t& hi) {
    hi = std::min({(b.block_idx() + 1) * b.block_dim(), n_rows,
                   slot_rows[static_cast<std::size_t>(n_slots)]});
    lo = std::min(b.block_idx() * b.block_dim(), hi);
    return std::upper_bound(slot_rows.begin(), slot_rows.end() - 1, lo) -
           slot_rows.begin() - 1;
  };

  dev.launch(
      "hist_update_positions", grid, prim::kBlockDim,
      [&](device::BlockCtx& b) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        std::int64_t s = tile_of(b, lo, hi);
        std::int64_t lefts = 0;
        std::uint64_t moved = 0;
        std::uint64_t probes = 0;
        std::uint64_t run_starts = 0;
        for (std::int64_t k = lo; k < hi; ++k) {
          while (slot_rows[static_cast<std::size_t>(s + 1)] <= k) ++s;
          const TreeNode& tn = slots[static_cast<std::size_t>(s)];
          std::uint8_t to = kLeaf;
          if (!tn.is_leaf()) {
            const auto ku = static_cast<std::size_t>(k);
            const auto r = static_cast<std::size_t>(rows[ku]);
            run_starts += k == lo || rows[ku] != rows[ku - 1] + 1;
            const data::RowHit hit =
                data::find_in_row(entry_sym, row_offsets[r], row_offsets[r + 1],
                                  n_attr, tn.attr, n_bins);
            probes += hit.probes;
            // The split's left side is symbols [attr * n_bins, that +
            // split_bin]; the hit is in [attr * n_bins, that + n_bins).
            const bool go_left =
                hit.found
                    ? entry_sym[static_cast<std::size_t>(hit.pos)] <=
                          tn.attr * n_bins +
                              split_bin[static_cast<std::size_t>(s)]
                    : tn.default_left;
            node_of[r] = go_left ? tn.left : tn.right;
            b.reads(row_offsets, static_cast<std::int64_t>(r), 2);
            if (hit.found) b.reads(entry_sym, hit.pos);
            // Rows are distinct, so the scattered stores stay
            // block-disjoint; the auditor verifies it.
            b.writes(node_of, static_cast<std::int64_t>(r));
            to = go_left ? kLeft : kRight;
            lefts += go_left;
            ++moved;
          }
          if (partition) side[static_cast<std::size_t>(k)] = to;
        }
        if (partition) {
          block_left[static_cast<std::size_t>(b.block_idx())] = lefts;
          b.writes(block_left, b.block_idx());
          b.writes(side, lo, hi - lo);
        }
        b.reads(slot_rows, 0, n_slots + 1);
        b.reads(slots, 0, n_slots);
        b.reads(split_bin, 0, n_slots);
        b.reads(rows, lo, hi - lo);
        const auto n = static_cast<std::uint64_t>(hi - lo);
        b.work(n + probes);
        // A moved row gathers its CSR offsets and scatters its node id: one
        // transaction each at a run start, streamed otherwise.  Every probe
        // of its row lookup, the hit included, is one transaction.
        b.mem_irregular(probes + 2 * run_starts);
        b.mem_coalesced(n * (sizeof(std::int32_t) + (partition ? 1 : 0)) +
                        (moved - run_starts) * 20);
      });
  if (!partition) return;

  auto lpre_buf =
      arena.alloc<std::int64_t>(static_cast<std::size_t>(n_slots + 1));
  auto slot_lpre = lpre_buf.span();
  dev.launch(
      "hist_partition_offsets", 1, prim::kBlockDim, [&](device::BlockCtx& b) {
        // Exclusive scan of the block left counts.
        std::int64_t total = 0;
        for (std::int64_t g = 0; g < grid; ++g) {
          const auto gu = static_cast<std::size_t>(g);
          const std::int64_t v = block_left[gu];
          block_left[gu] = total;
          total += v;
        }
        // Lefts before each slot's first position.
        std::uint64_t counted = 0;
        for (std::int64_t s = 0; s <= n_slots; ++s) {
          const std::int64_t pos = slot_rows[static_cast<std::size_t>(s)];
          const std::int64_t g = pos / prim::kBlockDim;
          std::int64_t l = g < grid ? block_left[static_cast<std::size_t>(g)]
                                    : total;
          for (std::int64_t k = g * prim::kBlockDim; k < pos && g < grid; ++k) {
            l += side[static_cast<std::size_t>(k)] == kLeft;
            ++counted;
          }
          slot_lpre[static_cast<std::size_t>(s)] = l;
        }
        // Children's ranges in next-slot order: left then right child of
        // each splitting slot, in slot order.
        std::int64_t at = 0;
        for (std::int64_t s = 0; s < n_slots; ++s) {
          const auto su = static_cast<std::size_t>(s);
          if (slots[su].is_leaf()) continue;
          const auto ls = static_cast<std::size_t>(slots[su].left - next_base);
          next_slot_rows[ls] = at;
          next_slot_rows[ls + 1] = at + slot_lpre[su + 1] - slot_lpre[su];
          at += slot_rows[su + 1] - slot_rows[su];
        }
        next_slot_rows[next_slot_rows.size() - 1] = at;
        b.reads(block_left, 0, grid);
        b.writes(block_left, 0, grid);
        b.reads(slot_rows, 0, n_slots + 1);
        b.reads(slots, 0, n_slots);
        b.reads(side, 0,
                std::min(n_rows, slot_rows[static_cast<std::size_t>(n_slots)]));
        b.writes(slot_lpre, 0, n_slots + 1);
        b.writes(next_slot_rows, 0,
                 static_cast<std::int64_t>(next_slot_rows.size()));
        const auto n = static_cast<std::uint64_t>(grid + 3 * (n_slots + 1));
        b.work(n + counted);
        b.mem_coalesced(n * sizeof(std::int64_t) + counted);
      });

  dev.launch(
      "hist_partition_scatter", grid, prim::kBlockDim,
      [&](device::BlockCtx& b) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        std::int64_t s = tile_of(b, lo, hi);
        std::int64_t lefts =
            hi > lo ? block_left[static_cast<std::size_t>(b.block_idx())] : 0;
        std::uint64_t moved = 0;
        for (std::int64_t k = lo; k < hi; ++k) {
          while (slot_rows[static_cast<std::size_t>(s + 1)] <= k) ++s;
          const auto ku = static_cast<std::size_t>(k);
          if (side[ku] == kLeaf) continue;
          const auto su = static_cast<std::size_t>(s);
          const auto ls = static_cast<std::size_t>(slots[su].left - next_base);
          const std::int64_t rank = lefts - slot_lpre[su];
          const std::int64_t d =
              side[ku] == kLeft
                  ? next_slot_rows[ls] + rank
                  : next_slot_rows[ls + 1] + (k - slot_rows[su]) - rank;
          next_rows[static_cast<std::size_t>(d)] = rows[ku];
          // Destinations are distinct ranks, so the stores stay
          // block-disjoint; the auditor verifies it.
          b.writes(next_rows, d);
          lefts += side[ku] == kLeft;
          ++moved;
        }
        if (hi > lo) {
          b.reads(block_left, b.block_idx());
          b.reads(side, lo, hi - lo);
          b.reads(rows, lo, hi - lo);
        }
        b.reads(slot_rows, 0, n_slots + 1);
        b.reads(slot_lpre, 0, n_slots + 1);
        b.reads(slots, 0, n_slots);
        b.reads(next_slot_rows, 0,
                static_cast<std::int64_t>(next_slot_rows.size()));
        const auto n = static_cast<std::uint64_t>(hi - lo);
        b.work(n);
        // The side flags and row ids stream in; each child's rows land in
        // one contiguous run.
        b.mem_coalesced(n * (1 + sizeof(std::int32_t)) +
                        moved * sizeof(std::int32_t));
      });
}

}  // namespace gbdt::hist
