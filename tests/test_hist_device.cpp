// Tests for the device-side histogram trainer (core/trainer_hist) and its
// kernel layer (primitives/histogram.h): the tiled build is bitwise equal to
// a host reference across bin counts, tile capacities, worker counts and
// skewed slots, the row partition is stable (and its invariant check
// fires on a misplaced row), rows with missing attributes split and build
// as the host does, a full row's lookup is charged one transaction, the
// histogram-subtraction trick is bitwise-identical to direct accumulation,
// the device symbol matrix round-trips through BinCuts::bin_of and refuses
// a width its symbols cannot hold, empty-node and single-bin edge cases,
// determinism across replayed runs, the subtraction self-check catches an
// injected fault, and an audit-armed end-to-end training run.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/access_audit.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "core/trainer_hist.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "device/workspace_arena.h"
#include "obs/metrics.h"
#include "primitives/histogram.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;
using hist::QGH;

data::Dataset make_data(unsigned seed, std::int64_t n = 1200,
                        std::int64_t d = 8, double density = 0.7) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = d;
  s.density = density;
  s.label_noise = 0.1;
  s.seed = seed;
  return generate(s);
}

GBDTParam hist_param(int bins = 32, int depth = 4, int trees = 4) {
  GBDTParam p;
  p.use_hist_trainer = true;
  p.n_bins = bins;
  p.depth = depth;
  p.n_trees = trees;
  return p;
}

/// Deterministic pseudo-random fixed-point gradients, independent of the
/// trainer so the kernel-layer tests control their own inputs.
std::vector<std::int64_t> fake_quantized(std::int64_t n, std::int64_t salt) {
  std::vector<std::int64_t> q(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto m = static_cast<std::uint64_t>(i + salt) * 2654435761u;
    q[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(m % 2001) - 1000;
  }
  return q;
}

// ---- kernel layer ----------------------------------------------------------

/// A slot-sorted row index on the device: the rows of each slot in
/// ascending order (rows whose slot is -1 left out) and the slots' ranges.
struct RowIndex {
  device::DeviceBuffer<std::int32_t> rows;
  device::DeviceBuffer<std::int64_t> slot_rows;
  std::vector<std::int64_t> counts;
};

RowIndex make_index(Device& dev, const std::vector<int>& slot_of_row,
                    int n_slots) {
  std::vector<std::vector<std::int32_t>> by_slot(
      static_cast<std::size_t>(n_slots));
  for (std::size_t r = 0; r < slot_of_row.size(); ++r) {
    if (slot_of_row[r] >= 0) {
      by_slot[static_cast<std::size_t>(slot_of_row[r])].push_back(
          static_cast<std::int32_t>(r));
    }
  }
  std::vector<std::int32_t> rows;
  std::vector<std::int64_t> slot_rows = {0};
  RowIndex idx;
  for (const auto& v : by_slot) {
    rows.insert(rows.end(), v.begin(), v.end());
    slot_rows.push_back(static_cast<std::int64_t>(rows.size()));
    idx.counts.push_back(static_cast<std::int64_t>(v.size()));
  }
  rows.resize(std::max<std::size_t>(rows.size(), 1));  // no empty upload
  idx.rows = dev.to_device<std::int32_t>(rows);
  idx.slot_rows = dev.to_device<std::int64_t>(slot_rows);
  return idx;
}

/// Builds the listed slots of `idx` into `out` (rows of n_attr * n_bins
/// cells), planning `chunk` rows per build item: a slot's rows split into
/// ceil(rows / chunk) items, and a slot of several items gets partial copies.
void build_slots(Device& dev, device::WorkspaceArena& arena,
                 const BinnedMatrix& binned,
                 const device::DeviceBuffer<std::int64_t>& qg,
                 const device::DeviceBuffer<std::int64_t>& qh,
                 const RowIndex& idx, const std::vector<std::int64_t>& slots,
                 std::int64_t chunk, std::span<QGH> out) {
  std::vector<std::int64_t> item{0}, part, multi;
  std::int64_t n_parts = 0;
  for (const std::int64_t s : slots) {
    const std::int64_t rows = idx.counts[static_cast<std::size_t>(s)];
    const std::int64_t items = std::max<std::int64_t>(1, (rows + chunk - 1) /
                                                             chunk);
    part.push_back(items > 1 ? n_parts : -1);
    if (items > 1) {
      multi.push_back(static_cast<std::int64_t>(part.size()) - 1);
      n_parts += items;
    }
    item.push_back(item.back() + items);
  }
  auto d_slot = dev.to_device<std::int64_t>(slots);
  auto d_item = dev.to_device<std::int64_t>(item);
  auto d_part = dev.to_device<std::int64_t>(part);
  auto d_multi = dev.to_device<std::int64_t>(multi);
  hist::build_histograms(
      dev, arena, binned.row_offsets.span(), binned.entry_sym.span(),
      qg.span(), qh.span(), idx.rows.span(), idx.slot_rows.span(),
      hist::BuildTables{d_slot.span(), d_item.span(), d_part.span(),
                        d_multi.span(), chunk, item.back(), n_parts},
      binned.n_attr, binned.n_bins, out);
}

/// Host reference: per-slot histograms of every row's present entries.
std::vector<QGH> reference_histograms(const data::Dataset& ds,
                                      const BinnedMatrix& binned,
                                      const std::vector<std::int64_t>& qg,
                                      const std::vector<std::int64_t>& qh,
                                      const std::vector<int>& slot_of_row,
                                      int n_slots) {
  const std::int64_t cps = binned.n_attr * binned.n_bins;
  std::vector<QGH> ref(static_cast<std::size_t>(n_slots * cps));
  for (std::int64_t r = 0; r < ds.n_instances(); ++r) {
    const int s = slot_of_row[static_cast<std::size_t>(r)];
    if (s < 0) continue;
    const QGH gh{qg[static_cast<std::size_t>(r)],
                 qh[static_cast<std::size_t>(r)], 1};
    for (const data::Entry& e : ds.instance(r)) {
      const int bin =
          binned.cuts[static_cast<std::size_t>(e.attr)].bin_of(e.value);
      ref[static_cast<std::size_t>(s * cps + e.attr * binned.n_bins + bin)] +=
          gh;
    }
  }
  return ref;
}

TEST(HistDevice, SubtractionBitwiseMatchesDirectAccumulation) {
  const auto ds = make_data(41, 900, 6);
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 16);
  const std::int64_t cps = binned.n_attr * binned.n_bins;
  const std::int64_t chunk = hist::build_chunk_rows(dev.config(), 900);

  auto qg = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 1));
  auto qh = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 7));

  // Parent level: every row in slot 0.  Current level: the rows split
  // across sibling slots 0 (every third row) and 1.
  const std::vector<int> root(static_cast<std::size_t>(ds.n_instances()), 0);
  std::vector<int> children(root.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    children[i] = (i % 3 == 0) ? 0 : 1;
  }
  const RowIndex parent_idx = make_index(dev, root, 1);
  const RowIndex child_idx = make_index(dev, children, 2);

  auto parent = arena.alloc<QGH>(static_cast<std::size_t>(cps));
  build_slots(dev, arena, binned, qg, qh, parent_idx, {0}, chunk,
              parent.span());
  // Sibling (slot 0) accumulated; slot 1 derived as parent - sibling.
  auto cur = arena.alloc<QGH>(static_cast<std::size_t>(2 * cps));
  build_slots(dev, arena, binned, qg, qh, child_idx, {0}, chunk, cur.span());
  {
    const std::vector<std::int64_t> ps = {0}, ss = {0}, der = {1};
    auto p = dev.to_device<std::int64_t>(ps);
    auto s = dev.to_device<std::int64_t>(ss);
    auto de = dev.to_device<std::int64_t>(der);
    hist::subtract_histograms(dev, parent.span(), cur.span(), p.span(),
                              s.span(), de.span(), cps);
  }
  // Direct accumulation of slot 1, for the bitwise comparison.
  auto direct = arena.alloc<QGH>(static_cast<std::size_t>(2 * cps));
  build_slots(dev, arena, binned, qg, qh, child_idx, {1}, chunk,
              direct.span());
  std::int64_t occupied = 0;
  for (std::int64_t c = cps; c < 2 * cps; ++c) {
    const QGH& want = direct[static_cast<std::size_t>(c)];
    const QGH& got = cur[static_cast<std::size_t>(c)];
    ASSERT_EQ(want.g, got.g) << "cell " << c;
    ASSERT_EQ(want.h, got.h) << "cell " << c;
    ASSERT_EQ(want.cnt, got.cnt) << "cell " << c;
    occupied += want.cnt > 0;
  }
  EXPECT_GT(occupied, 0);  // the comparison exercised real cells
}

TEST(HistDevice, BinIndexMatrixRoundTripsThroughBinOf) {
  const auto ds = make_data(42, 700, 5, 0.6);
  Device dev(DeviceConfig::titan_x_pascal());
  const auto binned = build_binned_matrix(dev, ds, 12);
  ASSERT_EQ(binned.n_inst, ds.n_instances());
  ASSERT_EQ(binned.n_attr, ds.n_attributes());
  ASSERT_EQ(static_cast<std::int64_t>(binned.cuts.size()), ds.n_attributes());

  // Each entry's symbol is its attribute * n_bins + BinCuts::bin_of.
  const auto sym = dev.to_host(binned.entry_sym);
  const auto& entries = ds.entries();
  ASSERT_EQ(sym.size(), entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const std::int64_t attr = sym[k] / binned.n_bins;
    const std::int64_t bin = sym[k] % binned.n_bins;
    ASSERT_EQ(attr, entries[k].attr) << "entry " << k;
    const auto& cuts = binned.cuts[static_cast<std::size_t>(entries[k].attr)];
    ASSERT_EQ(bin, cuts.bin_of(entries[k].value)) << "entry " << k;
  }
}

TEST(HistDevice, SymbolWidthGuardThrowsBeforeAnyAllocation) {
  // A one-row dataset whose width (say, one huge LibSVM index) makes
  // n_attr * n_bins overflow a 32-bit symbol: the build refuses it by name
  // before it sizes a cut column or a device buffer.
  data::Dataset ds(4);
  const std::vector<data::Entry> row = {{0, 1.f}, {3, 2.f}};
  ds.add_instance(row, 1.f);
  const int bins = 64;
  ds.set_n_attributes((std::int64_t{1} << 32) / bins + 1);
  Device dev(DeviceConfig::titan_x_pascal());
  try {
    (void)build_binned_matrix(dev, ds, bins);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n_attr"), std::string::npos) << what;
    EXPECT_NE(what.find("n_bins"), std::string::npos) << what;
  }
  EXPECT_THROW((void)build_binned_matrix(dev, ds, bins, {}),
               std::invalid_argument);
  EXPECT_EQ(dev.allocator().used(), 0u);
  EXPECT_EQ(dev.allocator().peak(), 0u);
}

TEST(HistDevice, EmptyNodeYieldsZeroHistogramAndOnlyDestRowsAreWritten) {
  const auto ds = make_data(43, 300, 4);
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 8);
  const std::int64_t cps = binned.n_attr * binned.n_bins;

  auto qg = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 3));
  auto qh = dev.to_device<std::int64_t>(fake_quantized(ds.n_instances(), 9));
  // Every row sits in slot 0; slot 2 is empty; slot 1 is not planned.
  const RowIndex idx = make_index(
      dev, std::vector<int>(static_cast<std::size_t>(ds.n_instances()), 0), 3);

  auto out = arena.alloc<QGH>(static_cast<std::size_t>(3 * cps));
  const QGH sentinel{7, 7, 7};
  prim::fill(dev, out, sentinel);
  build_slots(dev, arena, binned, qg, qh, idx, {0, 2},
              hist::build_chunk_rows(dev.config(), ds.n_instances()),
              out.span());

  std::int64_t populated_count = 0;
  for (std::int64_t c = 0; c < cps; ++c) {
    populated_count += out[static_cast<std::size_t>(c)].cnt;  // slot 0
    const QGH& skipped = out[static_cast<std::size_t>(cps + c)];
    EXPECT_TRUE(skipped == sentinel) << "unplanned cell " << c;
    const QGH& empty = out[static_cast<std::size_t>(2 * cps + c)];
    EXPECT_TRUE(empty == QGH{}) << "empty-slot cell " << c;
  }
  // Each present entry lands exactly once in slot 0.
  EXPECT_EQ(populated_count, static_cast<std::int64_t>(ds.entries().size()));
}

TEST(HistDevice, TiledBuildMatchesHostReference) {
  // 28 attributes: at 256 bins one slot's 7,168 cells need four 48 KB tiles;
  // a 1 KB capacity cuts every attribute over 42 bins across tiles.
  const auto ds = make_data(50, 900, 28, 0.8);
  const auto qg_h = fake_quantized(ds.n_instances(), 5);
  const auto qh_h = fake_quantized(ds.n_instances(), 11);
  constexpr int kSlots = 4;
  std::vector<int> spread(static_cast<std::size_t>(ds.n_instances()));
  for (std::size_t r = 0; r < spread.size(); ++r) {
    const int s = static_cast<int>((r * 7 + r / 5) % 5);
    spread[r] = s == 4 ? -1 : s;  // a fifth of the rows are in no slot
  }
  // Skewed: slot 1 holds every row, slots 0, 2 and 3 are empty.
  std::vector<int> skewed(spread.size(), 1);

  for (const int bins : {2, 64, 256}) {
    for (const std::size_t shared :
         {std::size_t{48} << 10, std::size_t{1024}}) {
      for (const unsigned workers : {1u, 4u}) {
        for (const std::vector<int>* slots : {&spread, &skewed}) {
          // 100 rows per item: every non-empty slot folds partial copies;
          // 1,000: every slot writes its tiles directly.
          for (const std::int64_t chunk : {100, 1000}) {
            SCOPED_TRACE("bins " + std::to_string(bins) + ", shared " +
                         std::to_string(shared) + ", workers " +
                         std::to_string(workers) +
                         (slots == &skewed ? ", skewed" : ", spread") +
                         ", chunk " + std::to_string(chunk));
            DeviceConfig cfg = DeviceConfig::titan_x_pascal();
            cfg.shared_mem_per_block_bytes = shared;
            Device dev(cfg, workers);
            device::WorkspaceArena arena(dev.allocator());
            const auto binned = build_binned_matrix(dev, ds, bins);
            const std::int64_t cps = binned.n_attr * binned.n_bins;
            auto qg = dev.to_device<std::int64_t>(qg_h);
            auto qh = dev.to_device<std::int64_t>(qh_h);
            const RowIndex idx = make_index(dev, *slots, kSlots);
            auto out =
                arena.alloc<QGH>(static_cast<std::size_t>(kSlots * cps));
            build_slots(dev, arena, binned, qg, qh, idx, {0, 1, 2, 3}, chunk,
                        out.span());
            const auto ref = reference_histograms(ds, binned, qg_h, qh_h,
                                                  *slots, kSlots);
            for (std::size_t c = 0; c < ref.size(); ++c) {
              ASSERT_TRUE(out[c] == ref[c]) << "cell " << c;
            }
            const auto& kernels = dev.timeline().kernels;
            const auto& build = kernels.at("hist_build");
            EXPECT_GT(build.stats.max_shared_bytes, 0u);
            EXPECT_LE(build.stats.max_shared_bytes, shared);
            EXPECT_EQ(kernels.contains("hist_merge"), chunk == 100);
            EXPECT_FALSE(kernels.contains("fill"));
            if (bins == 256 || shared == 1024) {
              EXPECT_LT(hist::tile_cells(cfg, binned.n_bins, cps), cps)
                  << "one tile held the whole slot";
            }
          }
        }
      }
    }
  }
}

TEST(HistDevice, SplitRowsPartitionsIndexStablyBySlot) {
  // 1,000 rows over four slots whose ranges start mid-block; slot 2 is a
  // leaf (its rows leave the index).  Node ids: slot s holds node 10 + s.
  const auto ds = make_data(51, 1000, 6, 0.7);
  Device dev(DeviceConfig::titan_x_pascal(), 4);
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 16);
  std::vector<int> slot_of_row(static_cast<std::size_t>(ds.n_instances()));
  for (std::size_t r = 0; r < slot_of_row.size(); ++r) {
    slot_of_row[r] = static_cast<int>((r * r + 3 * r) % 7) % 4;
  }
  const RowIndex idx = make_index(dev, slot_of_row, 4);
  std::vector<std::int32_t> node_h(slot_of_row.size());
  for (std::size_t r = 0; r < node_h.size(); ++r) {
    node_h[r] = 10 + slot_of_row[r];
  }
  auto node_of = dev.to_device<std::int32_t>(node_h);

  // Slots 0, 1, 3 split on attributes 0, 3, 5 at bin 7; children get next
  // slots (0, 1), (2, 3), (4, 5) and tree nodes 20 + next slot.  The
  // slots' decided tree records name the children; slot 2's is a leaf.
  std::vector<TreeNode> slots(4);
  std::vector<std::int64_t> split_bin(4, -1);
  const std::int32_t attr_of[4] = {0, 3, -1, 5};
  std::int32_t next = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    if (attr_of[s] < 0) continue;
    slots[s].attr = attr_of[s];
    slots[s].left = 20 + next;
    slots[s].right = 21 + next;
    slots[s].default_left = s == 1;
    split_bin[s] = 7;
    next += 2;
  }
  auto d_slots = dev.to_device<TreeNode>(slots);
  auto d_split_bin = dev.to_device<std::int64_t>(split_bin);
  auto next_rows =
      dev.alloc<std::int32_t>(static_cast<std::size_t>(ds.n_instances()));
  auto next_slot_rows = dev.alloc<std::int64_t>(7);
  hist::split_rows(dev, arena, binned.row_offsets.span(),
                   binned.entry_sym.span(), binned.n_attr, binned.n_bins,
                   d_slots.span(), d_split_bin.span(), /*next_base=*/20,
                   idx.rows.span(), idx.slot_rows.span(), ds.n_instances(),
                   node_of.span(), next_rows.span(), next_slot_rows.span());

  // Host reference: each child's rows in ascending order.
  std::vector<std::vector<std::int32_t>> want(6);
  for (std::size_t r = 0; r < slot_of_row.size(); ++r) {
    const auto s = static_cast<std::size_t>(slot_of_row[r]);
    if (attr_of[s] < 0) {
      EXPECT_EQ(node_of[r], 10 + slot_of_row[r]) << "leaf row " << r;
      continue;
    }
    int bin = -1;
    for (const data::Entry& e :
         ds.instance(static_cast<std::int64_t>(r))) {
      if (e.attr == attr_of[s]) {
        bin = binned.cuts[static_cast<std::size_t>(e.attr)].bin_of(e.value);
      }
    }
    const bool left = bin >= 0 ? bin <= 7 : slots[s].default_left;
    const std::int64_t child = slots[s].left - 20 + (left ? 0 : 1);
    EXPECT_EQ(node_of[r], 20 + child) << "row " << r;
    want[static_cast<std::size_t>(child)].push_back(
        static_cast<std::int32_t>(r));
  }
  std::int64_t at = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(next_slot_rows[c], at) << "child " << c;
    for (const std::int32_t r : want[c]) {
      ASSERT_EQ(next_rows[static_cast<std::size_t>(at++)], r) << "child " << c;
    }
  }
  EXPECT_EQ(next_slot_rows[6], at);
}

/// `n` rows over `d` attributes cycling through the shapes a row lookup
/// must handle: full, first or last attribute missing, a missing run in
/// the middle, empty, a single entry, and a sparse stride.
data::Dataset shaped_rows(std::int64_t n, std::int32_t d) {
  data::Dataset ds(d);
  std::vector<data::Entry> row;
  for (std::int64_t i = 0; i < n; ++i) {
    row.clear();
    const auto shape = i % 7;
    for (std::int32_t a = 0; a < d; ++a) {
      const bool keep = shape == 0 || (shape == 1 && a > 0) ||
                        (shape == 2 && a + 1 < d) ||
                        (shape == 3 && (a < d / 3 || a >= 2 * d / 3)) ||
                        (shape == 5 && a == static_cast<std::int32_t>(i % d)) ||
                        (shape == 6 && (a + i) % 4 == 0);
      if (keep) {
        const auto h = static_cast<std::uint64_t>(i * 131 + a * 17);
        row.push_back({a, static_cast<float>((h * 2654435761u) % 97)});
      }
    }
    ds.add_instance(row, static_cast<float>(i % 3));
  }
  return ds;
}

/// Slots 0..3 split on attributes 0, d - 1, d / 2 and 1 at bin `split`, the
/// children are next slots 2s and 2s + 1 (tree nodes 20 + next slot); each
/// row in slot r % 4, except every fifth row, which is in no slot.
struct SplitCase {
  std::vector<int> slot_of_row;
  std::vector<TreeNode> slots;
  std::vector<std::int64_t> split_bin;
};

SplitCase split_case(std::int64_t n, std::int32_t d, std::int64_t split) {
  SplitCase c;
  c.slot_of_row.resize(static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < c.slot_of_row.size(); ++r) {
    c.slot_of_row[r] = r % 5 == 4 ? -1 : static_cast<int>(r % 4);
  }
  const std::int32_t attr_of[4] = {0, d - 1, d / 2, 1};
  c.slots.resize(4);
  c.split_bin.assign(4, split);
  for (std::int32_t s = 0; s < 4; ++s) {
    auto& tn = c.slots[static_cast<std::size_t>(s)];
    tn.attr = attr_of[s];
    tn.left = 20 + 2 * s;
    tn.right = 21 + 2 * s;
    tn.default_left = s % 2 == 1;
  }
  return c;
}

TEST(HistDevice, RowsWithMissingAttributesSplitAndBuildAsTheHostDoes) {
  const std::int32_t d = 28;
  const auto ds = shaped_rows(700, d);
  const auto qg_h = fake_quantized(ds.n_instances(), 2);
  const auto qh_h = fake_quantized(ds.n_instances(), 13);
  for (const int bins : {8, 256}) {
    for (const std::size_t shared :
         {std::size_t{48} << 10, std::size_t{1024}}) {
      SCOPED_TRACE("bins " + std::to_string(bins) + ", shared " +
                   std::to_string(shared));
      DeviceConfig cfg = DeviceConfig::titan_x_pascal();
      cfg.shared_mem_per_block_bytes = shared;
      Device dev(cfg, 4);
      device::WorkspaceArena arena(dev.allocator());
      const auto binned = build_binned_matrix(dev, ds, bins);
      const std::int64_t cps = binned.n_attr * binned.n_bins;
      const SplitCase sc = split_case(ds.n_instances(), d, bins / 2 - 1);
      const RowIndex idx = make_index(dev, sc.slot_of_row, 4);

      // The tiled build (several tiles except at 8 bins in 48 KB).
      auto qg = dev.to_device<std::int64_t>(qg_h);
      auto qh = dev.to_device<std::int64_t>(qh_h);
      auto out = arena.alloc<QGH>(static_cast<std::size_t>(4 * cps));
      build_slots(dev, arena, binned, qg, qh, idx, {0, 1, 2, 3}, 100,
                  out.span());
      const auto ref =
          reference_histograms(ds, binned, qg_h, qh_h, sc.slot_of_row, 4);
      for (std::size_t c = 0; c < ref.size(); ++c) {
        ASSERT_TRUE(out[c] == ref[c]) << "cell " << c;
      }
      EXPECT_EQ(hist::tile_cells(cfg, bins, cps) < cps,
                bins == 256 || shared == 1024);

      // The row split: each row's child from the host's bin of its value.
      auto d_slots = dev.to_device<TreeNode>(sc.slots);
      auto d_split_bin = dev.to_device<std::int64_t>(sc.split_bin);
      auto node_of = dev.to_device<std::int32_t>(
          std::vector<std::int32_t>(sc.slot_of_row.size(), -1));
      auto next_rows =
          dev.alloc<std::int32_t>(static_cast<std::size_t>(ds.n_instances()));
      auto next_slot_rows = dev.alloc<std::int64_t>(9);
      hist::split_rows(dev, arena, binned.row_offsets.span(),
                       binned.entry_sym.span(), binned.n_attr, binned.n_bins,
                       d_slots.span(), d_split_bin.span(), /*next_base=*/20,
                       idx.rows.span(), idx.slot_rows.span(),
                       ds.n_instances(), node_of.span(), next_rows.span(),
                       next_slot_rows.span());
      std::int64_t present = 0;
      std::int64_t missing = 0;
      for (std::size_t r = 0; r < sc.slot_of_row.size(); ++r) {
        const int s = sc.slot_of_row[r];
        if (s < 0) {
          EXPECT_EQ(node_of[r], -1) << "row " << r;
          continue;
        }
        const TreeNode& tn = sc.slots[static_cast<std::size_t>(s)];
        int bin = -1;
        for (const data::Entry& e :
             ds.instance(static_cast<std::int64_t>(r))) {
          if (e.attr == tn.attr) {
            bin = binned.cuts[static_cast<std::size_t>(e.attr)].bin_of(e.value);
          }
        }
        (bin >= 0 ? present : missing) += 1;
        const bool left = bin >= 0 ? bin <= sc.split_bin[0] : tn.default_left;
        EXPECT_EQ(node_of[r], left ? tn.left : tn.right) << "row " << r;
      }
      EXPECT_GT(present, 0);
      EXPECT_GT(missing, 0);  // the default direction was exercised
    }
  }
}

TEST(HistDevice, FullRowLookupIsChargedOneTransaction) {
  // Every row holds all six attributes, so each moved row's lookup reads
  // exactly one entry.  The splits are on attributes 0, 5, 3 and 1, which a
  // binary search of the whole row finds in 2 or 3 probes.
  const std::int32_t d = 6;
  data::Dataset ds(d);
  for (std::int64_t i = 0; i < 900; ++i) {
    std::vector<data::Entry> row;
    for (std::int32_t a = 0; a < d; ++a) {
      row.push_back({a, static_cast<float>((i * 7 + a * 3) % 11)});
    }
    ds.add_instance(row, 0.f);
  }
  Device dev(DeviceConfig::titan_x_pascal(), 4);
  device::WorkspaceArena arena(dev.allocator());
  const auto binned = build_binned_matrix(dev, ds, 4);
  const SplitCase sc = split_case(ds.n_instances(), d, 1);
  const RowIndex idx = make_index(dev, sc.slot_of_row, 4);
  auto d_slots = dev.to_device<TreeNode>(sc.slots);
  auto d_split_bin = dev.to_device<std::int64_t>(sc.split_bin);
  auto node_of = dev.to_device<std::int32_t>(
      std::vector<std::int32_t>(sc.slot_of_row.size(), -1));
  auto next_rows =
      dev.alloc<std::int32_t>(static_cast<std::size_t>(ds.n_instances()));
  auto next_slot_rows = dev.alloc<std::int64_t>(9);
  const auto rows = dev.to_host(idx.rows);
  const auto n_rows = static_cast<std::int64_t>(sc.slot_of_row.size()) -
                      static_cast<std::int64_t>(sc.slot_of_row.size()) / 5;
  hist::split_rows(dev, arena, binned.row_offsets.span(),
                   binned.entry_sym.span(), binned.n_attr, binned.n_bins,
                   d_slots.span(), d_split_bin.span(), /*next_base=*/20,
                   idx.rows.span(), idx.slot_rows.span(), n_rows,
                   node_of.span(), next_rows.span(), next_slot_rows.span());

  // Every indexed row moves; a row that does not continue its block
  // predecessor's id also gathers its CSR offsets and scatters its node id
  // as one transaction each.
  std::uint64_t run_starts = 0;
  for (std::int64_t k = 0; k < n_rows; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    run_starts += k % prim::kBlockDim == 0 || rows[ku] != rows[ku - 1] + 1;
  }
  const auto& stats = dev.timeline().kernels.at("hist_update_positions").stats;
  EXPECT_EQ(stats.irregular_accesses,
            static_cast<std::uint64_t>(n_rows) + 2 * run_starts);
}

TEST(HistDevice, RowIndexCheckCatchesMisplacedRows) {
  // Rows 0..5; nodes 3 and 4 hold rows {0, 2, 5} and {1, 3, 4}.
  const std::vector<std::int32_t> node_of = {3, 4, 3, 4, 4, 3};
  const std::vector<std::int32_t> nodes = {3, 4};
  const std::vector<std::int64_t> slot_rows = {0, 3, 6};
  const std::vector<std::int32_t> good = {0, 2, 5, 1, 3, 4};
  const std::vector<std::int32_t> swapped = {1, 3, 4, 0, 2, 5};
  const std::vector<std::int32_t> unsorted = {2, 0, 5, 1, 3, 4};
  const std::vector<std::int64_t> short_slot = {0, 2, 6};
  testing::set_invariants_enabled(true);
  EXPECT_NO_THROW(
      testing::check_row_index(good, slot_rows, node_of, nodes, "t"));
  EXPECT_THROW(
      testing::check_row_index(swapped, slot_rows, node_of, nodes, "t"),
      testing::InvariantViolation);
  EXPECT_THROW(
      testing::check_row_index(unsorted, slot_rows, node_of, nodes, "t"),
      testing::InvariantViolation);
  EXPECT_THROW(
      testing::check_row_index(good, short_slot, node_of, nodes, "t"),
      testing::InvariantViolation);
  testing::set_invariants_enabled(false);
}

TEST(HistDevice, SubtractionSelfCheckCatchesInjectedFault) {
  const auto ds = make_data(44, 400, 5);
  auto p = hist_param(16, 3, 1);
  Device dev(DeviceConfig::titan_x_pascal());
  testing::set_invariants_enabled(true);
  testing::fault_injection() = {};
  testing::fault_injection().break_hist_subtraction = true;
  EXPECT_THROW((void)GpuGbdtTrainer(dev, p).train(ds),
               testing::InvariantViolation);
  testing::fault_injection() = {};
  testing::set_invariants_enabled(false);
}

// ---- trainer ---------------------------------------------------------------

TEST(HistDevice, SingleBinTrainingCompletes) {
  const auto ds = make_data(45, 500, 6, 0.5);
  auto p = hist_param(1, 3, 3);
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(ds);
  ASSERT_EQ(r.trees.size(), 3u);
  for (const auto& t : r.trees) {
    EXPECT_LE(t.depth(), 3);
    for (const auto& n : t.nodes()) {
      if (!n.is_leaf()) {
        EXPECT_GT(n.n_instances, 0);
      }
    }
  }
}

TEST(HistDevice, DeterministicAcrossReplayedRuns) {
  const auto ds = make_data(46);
  const auto p = hist_param();
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto a = GpuGbdtTrainer(dev1, p).train(ds);
  const auto b = GpuGbdtTrainer(dev2, p).train(ds);
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(a.trees[t], b.trees[t], 0.0)) << t;
  }
  EXPECT_EQ(a.train_scores, b.train_scores);
}

TEST(HistDevice, QualityTracksExactTrainer) {
  const auto ds = make_data(47, 2000, 12);
  auto p = hist_param(64, 4, 8);
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  p.use_hist_trainer = false;
  const auto exact = GpuGbdtTrainer(dev1, p).train(ds);
  p.use_hist_trainer = true;
  const auto h = GpuGbdtTrainer(dev2, p).train(ds);
  ASSERT_EQ(h.trees.size(), exact.trees.size());
  const double exact_rmse = rmse(exact.train_scores, ds.labels());
  const double hist_rmse = rmse(h.train_scores, ds.labels());
  EXPECT_LT(hist_rmse, exact_rmse * 1.35 + 0.05);
}

TEST(HistDevice, SubtractionCounterAdvancesWithDepth) {
  const auto ds = make_data(48, 800, 8);
  auto p = hist_param(16, 4, 2);
  auto& counter =
      obs::Registry::global().counter("gbdt_hist_subtractions_total");
  const auto before = counter.value();
  Device dev(DeviceConfig::titan_x_pascal());
  (void)GpuGbdtTrainer(dev, p).train(ds);
  EXPECT_GT(counter.value(), before);
}

TEST(HistDevice, AuditArmedTrainingRunsClean) {
  const auto ds = make_data(49, 600, 6);
  const auto p = hist_param(16, 3, 2);
  Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
  analysis::set_audit_enabled(true);
  try {
    const auto r = GpuGbdtTrainer(dev, p).train(ds);
    EXPECT_EQ(r.trees.size(), 2u);
  } catch (...) {
    analysis::set_audit_enabled(false);
    throw;
  }
  analysis::set_audit_enabled(false);
}

}  // namespace
}  // namespace gbdt
