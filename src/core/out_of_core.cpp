#include "core/out_of_core.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/level_driver.h"
#include "core/trainer_detail.h"
#include "data/csc_matrix.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::BestSplit;
using detail::GHPair;
using device::BlockCtx;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

namespace {

/// One streamed attribute-list entry.  Packing value and instance id into
/// one 8-byte record lets a chunk (or a split column) ship in a single
/// PCI-e transfer instead of one per array.
struct Entry {
  float value = 0.f;
  std::int32_t inst = 0;
};

/// One RLE run of a compressed chunk: `len` entries of `value` starting at
/// chunk-local entry `start`.
struct Run {
  float value = 0.f;
  std::int32_t len = 0;
  std::int64_t start = 0;
};

/// A host-resident column chunk, optionally pre-compressed with RLE.
struct Chunk {
  std::int64_t attr_lo = 0;
  std::int64_t attr_hi = 0;   // exclusive
  std::int64_t entry_lo = 0;  // into the host CSC arrays
  std::int64_t entry_hi = 0;
  // Where the chunk's n_cols + 1 local column offsets start in the resident
  // offset table.
  std::int64_t offs_base = 0;
  // RLE form (root order never changes, so this is computed once); empty
  // when the chunk ships raw entries.
  std::vector<Run> runs;

  [[nodiscard]] std::int64_t n_entries() const { return entry_hi - entry_lo; }
  [[nodiscard]] bool compressed() const { return !runs.empty(); }
};

/// A slot's best candidate: in one column (the enumerate kernel's output),
/// or over the level's columns so far (the fold's running best, which also
/// records the column's attribute).  A record is valid exactly when its
/// gain is > 0: a candidate only replaces a record it beats, starting from
/// gain 0.  40 bytes, so the level's table stays small.
struct ColumnBest {
  double gain = 0.0;
  double left_g = 0.0;
  double left_h = 0.0;
  float split_value = 0.f;
  std::int32_t left_cnt = 0;  // instance ids are int32, so counts fit
  std::int32_t attr = -1;
  std::uint8_t default_left = 0;
};
static_assert(sizeof(ColumnBest) == 40);

}  // namespace

OutOfCoreTrainer::OutOfCoreTrainer(device::Device& dev, GBDTParam param,
                                   std::size_t chunk_bytes,
                                   bool stream_compressed)
    : dev_(dev), param_(std::move(param)), chunk_bytes_(chunk_bytes),
      stream_compressed_(stream_compressed), loss_(make_loss(param_.loss)) {
  detail::validate_param(param_, /*hist=*/false);
  if (chunk_bytes_ < (std::size_t{1} << 16)) {
    throw std::invalid_argument("chunk_bytes too small");
  }
}

TrainReport OutOfCoreTrainer::train(const data::Dataset& ds) {
  obs::ScopedSpan train_span("ooc_train");
  const auto wall_start = std::chrono::steady_clock::now();
  const double modeled_start = dev_.elapsed_seconds();
  dev_.allocator().reset_peak();

  TrainReport report;
  report.base_score = param_.base_score;
  const std::int64_t n_inst = ds.n_instances();
  const std::int64_t n_attr = ds.n_attributes();
  if (n_inst == 0) throw std::invalid_argument("empty dataset");

  // ---- host-resident sorted columns (built once, never partitioned) ------
  const auto csc = data::build_csc_host(ds);
  // The packed (value, inst) stream every raw chunk and split column ships
  // from.
  std::vector<Entry> entries(csc.values.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    entries[e] = Entry{csc.values[e], csc.inst_ids[e]};
  }

  // Column chunks bounded by the device budget for streamed lists.
  std::vector<Chunk> chunks;
  {
    const auto max_entries =
        static_cast<std::int64_t>(chunk_bytes_ / 12);  // value+inst+slack
    std::int64_t a = 0;
    while (a < n_attr) {
      Chunk c;
      c.attr_lo = a;
      c.entry_lo = csc.col_offsets[static_cast<std::size_t>(a)];
      std::int64_t b = a + 1;
      while (b < n_attr &&
             csc.col_offsets[static_cast<std::size_t>(b) + 1] - c.entry_lo <=
                 max_entries) {
        ++b;
      }
      c.attr_hi = b;
      c.entry_hi = csc.col_offsets[static_cast<std::size_t>(b)];
      // Pre-compress the chunk's value stream (runs never cross columns).
      if (stream_compressed_) {
        for (std::int64_t e = c.entry_lo; e < c.entry_hi; ++e) {
          const auto u = static_cast<std::size_t>(e);
          const bool head =
              e == c.entry_lo || csc.values[u] != csc.values[u - 1] ||
              std::binary_search(csc.col_offsets.begin(),
                                 csc.col_offsets.end(),
                                 static_cast<std::int64_t>(e));
          if (head) {
            c.runs.push_back(Run{csc.values[u], 1, e - c.entry_lo});
          } else {
            ++c.runs.back().len;
          }
        }
        const double ratio =
            c.runs.empty() ? 1.0
                           : static_cast<double>(c.n_entries()) /
                                 static_cast<double>(c.runs.size());
        if (ratio < 1.5) {
          c.runs.clear();
          c.runs.shrink_to_fit();
        }
      }
      chunks.push_back(std::move(c));
      a = b;
    }
  }

  // ---- double-buffered chunk streaming setup ------------------------------
  // Uploads ride stream_copy one chunk ahead of stream_compute; events order
  // upload->consume (RAW) and consume->overwrite (WAR).  With
  // GBDT_SYNC_STREAMS=1 both names alias the default stream: the same
  // enqueue order executes serially, so trees are bitwise identical.
  const bool async_streams = device::stream_async_enabled();
  const int stream_copy =
      async_streams ? dev_.stream() : device::kDefaultStream;
  const int stream_compute =
      async_streams ? dev_.stream() : device::kDefaultStream;

  std::vector<const Chunk*> live;
  std::vector<std::int64_t> local_offs;
  std::size_t max_entries = 0;
  std::size_t max_runs = 0;
  std::int64_t max_cols = 0;
  for (Chunk& c : chunks) {
    if (c.n_entries() == 0) continue;
    live.push_back(&c);
    c.offs_base = static_cast<std::int64_t>(local_offs.size());
    for (std::int64_t a = c.attr_lo; a <= c.attr_hi; ++a) {
      local_offs.push_back(csc.col_offsets[static_cast<std::size_t>(a)] -
                           c.entry_lo);
    }
    max_entries =
        std::max(max_entries, static_cast<std::size_t>(c.n_entries()));
    max_runs = std::max(max_runs, c.runs.size());
    max_cols = std::max(max_cols, c.attr_hi - c.attr_lo);
  }
  // Every live chunk's column offsets, resident for the whole training run.
  const auto d_offs = dev_.to_device<std::int64_t>(local_offs);

  // Two reusable landing slots sized for the largest chunk (a split column
  // never exceeds the chunk holding it).  Compressed chunks land as inst ids
  // plus runs and are expanded into `entries` on the device.
  struct ChunkSlot {
    DeviceBuffer<Entry> entries;
    DeviceBuffer<std::int32_t> inst;
    DeviceBuffer<Run> runs;
  };
  const std::size_t n_slots_db = std::min<std::size_t>(2, live.size());
  std::vector<ChunkSlot> slots(n_slots_db);
  for (ChunkSlot& sl : slots) {
    sl.entries = dev_.alloc<Entry>(max_entries);
    if (max_runs > 0) {
      sl.inst = dev_.alloc<std::int32_t>(max_entries);
      sl.runs = dev_.alloc<Run>(max_runs);
    }
  }

  // Streams items 0..count-1 through the slots, shared by the find and
  // split steps: fill(k, slot) enqueues item k's upload on stream_copy,
  // consume(k, slot) its readers on stream_compute.  With two slots item
  // k+1 uploads while item k is consumed; a single slot is refilled only
  // after its readers.  slot_free[s] fires once slot s's last reader is
  // done, so it may be overwritten (and the arena blocks that reader used
  // reused).
  std::vector<int> slot_free(n_slots_db, -1);
  auto stream_through_slots = [&](std::size_t count, const auto& fill,
                                  const auto& consume) {
    std::vector<int> filled(count, -1);
    auto upload = [&](std::size_t k) {
      const std::size_t s = k % n_slots_db;
      if (async_streams && slot_free[s] >= 0) {
        // hb: last reader of slot s on stream_compute -> its refill (WAR)
        dev_.wait_event(stream_copy, slot_free[s]);
      }
      fill(k, slots[s]);
      if (async_streams) filled[k] = dev_.record_event(stream_copy);
    };
    const std::size_t ahead = n_slots_db > 1 ? 1 : 0;
    for (std::size_t k = 0; k < std::min(ahead, count); ++k) upload(k);
    for (std::size_t k = 0; k < count; ++k) {
      if (k + ahead < count) upload(k + ahead);
      const std::size_t s = k % n_slots_db;
      if (async_streams) {
        // hb: fill of slot s on stream_copy -> its readers (RAW)
        dev_.wait_event(stream_compute, filled[k]);
      }
      consume(k, slots[s]);
      if (async_streams) slot_free[s] = dev_.record_event(stream_compute);
    }
  };

  // ---- resident per-instance state ---------------------------------------
  detail::TrainState st(dev_, param_, *loss_);
  st.n_inst = n_inst;
  st.n_attr = n_attr;
  objective::RoundDriver round_driver(dev_, param_, ds);
  auto d_labels = dev_.to_device<float>(ds.labels());
  detail::alloc_instance_state(st);

  // ---- boosting loop (core/level_driver.h) --------------------------------
  // The tree is decided on the device like the in-core paths': slot s of
  // the level is tree node level_base + s, and only data crosses PCI-e —
  // chunks and split columns up, each level's records and each finished
  // tree down.
  detail::alloc_device_tree(st, n_inst);
  // The level's winner table: each slot's running best over the columns
  // streamed so far (records [0, n_slots)), then the current chunk's
  // per-(column, slot) winners.  It doubles only for a level wider than
  // any before it, like the histogram grid.
  DeviceBuffer<ColumnBest> d_best;
  std::int64_t best_slots = 0;
  detail::LevelBackend backend;
  backend.begin_tree = [&](int t, const Tree* prev) {
    obs::ScopedSpan span("gradient_compute");
    if (prev != nullptr) detail::update_predictions_smart(st);
    round_driver.begin_round(st, d_labels, t);
    prim::fill(dev_, st.node_of, std::int32_t{0});
    detail::begin_device_tree(st, "ooc_root_sum_gh");
  };

  // Streams every chunk once: enumerates each column's best split per slot
  // and folds the chunk's winners into the running best, then decides the
  // level and returns its records, read back in one transfer.
  const auto find_and_decide = [&](bool children_are_leaves) {
    obs::ScopedSpan find_span("find_split");
    const std::int64_t n_slots = st.n_slots;
    const std::int64_t base = st.level_base;
    if (n_slots > best_slots) {
      best_slots = std::max(n_slots, 2 * best_slots);
      d_best.free();
      d_best = dev_.alloc<ColumnBest>(
          static_cast<std::size_t>((max_cols + 1) * best_slots));
    }
    // Columns outside this tree's feature bag yield no splits, so a chunk
    // with none inside it is neither uploaded nor enumerated (host glue
    // over the mask the fold reads too).
    auto in_bag = [&](std::int64_t attr) {
      return st.feature_mask.empty() ||
             st.feature_mask[static_cast<std::size_t>(attr)] != 0;
    };
    std::vector<const Chunk*> visit;
    for (const Chunk* c : live) {
      for (std::int64_t a = c->attr_lo; a < c->attr_hi; ++a) {
        if (in_bag(a)) {
          visit.push_back(c);
          break;
        }
      }
    }

    // One transfer for a raw chunk, two for a compressed one.  The spans
    // handed to the async copies point into host arrays that outlive the
    // level.
    auto upload_chunk = [&](std::size_t k, ChunkSlot& sl) {
      const Chunk& c = *visit[k];
      const auto n = static_cast<std::size_t>(c.n_entries());
      const auto lo = static_cast<std::size_t>(c.entry_lo);
      obs::ScopedSpan io_span("chunk_io");
      if (c.compressed()) {
        dev_.copy_to_device_async(
            "stream_ooc_upload_inst", stream_copy,
            std::span<const std::int32_t>(csc.inst_ids).subspan(lo, n),
            sl.inst);
        dev_.copy_to_device_async("stream_ooc_upload_runs", stream_copy,
                                  std::span<const Run>(c.runs), sl.runs);
      } else {
        dev_.copy_to_device_async(
            "stream_ooc_upload_entries", stream_copy,
            std::span<const Entry>(entries).subspan(lo, n), sl.entries);
      }
    };

    const auto table = d_best.span();
    const auto nodes = std::span<const TreeNode>(st.nodes.span());
    stream_through_slots(visit.size(), upload_chunk, [&](std::size_t k,
                                                         ChunkSlot& sl) {
      const Chunk& c = *visit[k];
      const std::int64_t n = c.n_entries();
      const std::int64_t n_cols = c.attr_hi - c.attr_lo;
      const auto list = sl.entries.span().first(static_cast<std::size_t>(n));
      if (c.compressed()) {
        const auto n_runs = static_cast<std::int64_t>(c.runs.size());
        const auto runs = sl.runs.span().first(c.runs.size());
        const auto ids = sl.inst.span().first(static_cast<std::size_t>(n));
        dev_.launch_async(
            "stream_ooc_decompress", stream_compute,
            device::grid_for(n_runs, kBlockDim), kBlockDim,
            [runs, ids, out = list, n_runs](BlockCtx& b) {
              std::uint64_t written = 0;
              b.for_each_thread([&](std::int64_t r) {
                if (r >= n_runs) return;
                const Run run = runs[static_cast<std::size_t>(r)];
                for (std::int64_t e = run.start; e < run.start + run.len;
                     ++e) {
                  const auto u = static_cast<std::size_t>(e);
                  out[u] = Entry{run.value, ids[u]};
                }
                b.reads(ids, run.start, run.len);
                b.writes(out, run.start, run.len);
                written += static_cast<std::uint64_t>(run.len);
              });
              b.reads_tile(runs, n_runs);
              b.work(written);
              // Read each inst id, write each entry.
              b.mem_coalesced(
                  written * (sizeof(std::int32_t) + sizeof(Entry)) +
                  elems_in_block(b, n_runs) * sizeof(Run));
            });
      }

      const auto offs =
          d_offs.span().subspan(static_cast<std::size_t>(c.offs_base),
                                static_cast<std::size_t>(n_cols) + 1);
      const auto node_of = st.node_of.span();
      const auto out_best = table.subspan(
          static_cast<std::size_t>(n_slots),
          static_cast<std::size_t>(n_cols * n_slots));
      const auto gh = st.gh.span();

      // One logical block per column: two fused passes (present totals,
      // then candidate enumeration with both missing directions) against
      // per-slot running accumulators — the streaming analogue of node
      // interleaving.  A slot's statistics are its tree node's record.
      // Spans are captured by value: under schedule perturbation the body
      // runs at a later drain point.
      dev_.launch_async(
          "stream_ooc_enumerate", stream_compute, n_cols, kBlockDim,
          [list, offs, node_of, nodes, out_best, gh, n_slots, base,
           lambda = param_.lambda](BlockCtx& b) {
        const std::int64_t col = b.block_idx();
        const std::int64_t lo = offs[static_cast<std::size_t>(col)];
        const std::int64_t hi = offs[static_cast<std::size_t>(col) + 1];

        std::vector<GHPair> present(static_cast<std::size_t>(n_slots));
        std::vector<std::int64_t> present_cnt(
            static_cast<std::size_t>(n_slots), 0);
        for (std::int64_t e = lo; e < hi; ++e) {
          const auto iu = static_cast<std::size_t>(
              list[static_cast<std::size_t>(e)].inst);
          const std::int64_t slot = node_of[iu] - base;
          if (slot < 0) continue;
          present[static_cast<std::size_t>(slot)] += gh[iu];
          ++present_cnt[static_cast<std::size_t>(slot)];
        }

        std::vector<GHPair> acc(static_cast<std::size_t>(n_slots));
        std::vector<std::int64_t> acc_cnt(static_cast<std::size_t>(n_slots),
                                          0);
        std::vector<float> last(static_cast<std::size_t>(n_slots), 0.f);
        std::vector<ColumnBest> cb(static_cast<std::size_t>(n_slots));

        auto evaluate = [&](std::int64_t slot) {
          const auto su = static_cast<std::size_t>(slot);
          const TreeNode& tn = nodes[static_cast<std::size_t>(base + slot)];
          const GainStats node{tn.sum_g, tn.sum_h, tn.n_instances};
          const GainStats left{acc[su].g, acc[su].h, acc_cnt[su]};
          const GainStats pres{present[su].g, present[su].h, present_cnt[su]};
          const CandidateGain c = missing_aware_gain(left, pres, node, lambda);
          if (c.gain > cb[su].gain) {
            const bool dl = c.default_left;
            cb[su].gain = c.gain;
            cb[su].split_value = last[su];
            cb[su].default_left = dl ? 1 : 0;
            cb[su].left_g = left.g + (dl ? node.g - pres.g : 0.0);
            cb[su].left_h = left.h + (dl ? node.h - pres.h : 0.0);
            cb[su].left_cnt = static_cast<std::int32_t>(
                left.cnt + (dl ? node.cnt - pres.cnt : 0));
          }
        };

        std::uint64_t touched = 0;
        for (std::int64_t e = lo; e < hi; ++e) {
          const Entry en = list[static_cast<std::size_t>(e)];
          const auto iu = static_cast<std::size_t>(en.inst);
          const std::int64_t slot = node_of[iu] - base;
          if (slot < 0) continue;
          const auto su = static_cast<std::size_t>(slot);
          if (acc_cnt[su] > 0 && en.value != last[su]) evaluate(slot);
          acc[su] += gh[iu];
          ++acc_cnt[su];
          last[su] = en.value;
          ++touched;
        }
        // Final boundary of every slot (all present left, missing right).
        for (std::int64_t s = 0; s < n_slots; ++s) {
          if (acc_cnt[static_cast<std::size_t>(s)] > 0) evaluate(s);
          out_best[static_cast<std::size_t>(col * n_slots + s)] =
              cb[static_cast<std::size_t>(s)];
        }
        b.reads(offs, col, 2);
        b.reads(list, lo, hi - lo);
        b.reads(nodes, base, n_slots);
        b.writes(out_best, col * n_slots, n_slots);
        // Two fused passes: stream the chunk twice, gather (g,h) twice.
        b.work(4 * touched);
        b.mem_coalesced(2 * touched * sizeof(Entry));
        b.mem_irregular(2 * 2 * touched);  // node_of + (g,h) per pass
        b.flop(touched * 8);
      });

      // Fold the chunk's winners into each slot's running best: in-bag
      // columns in ascending attribute order, and a strict > keeps the
      // lowest attribute on ties, like the in-core argmax.  The level's
      // first chunk starts from no candidate.  On the compute stream, so
      // the next chunk's enumeration overwrites the winners only after it.
      dev_.launch_async(
          "stream_ooc_fold", stream_compute, 1, kBlockDim,
          [table, mask = st.feature_mask, n_slots, n_cols,
           attr_lo = c.attr_lo, first = k == 0](BlockCtx& b) {
            const auto best = table.first(static_cast<std::size_t>(n_slots));
            if (first) std::fill(best.begin(), best.end(), ColumnBest{});
            std::int64_t folded = 0;
            for (std::int64_t col = 0; col < n_cols; ++col) {
              const std::int64_t attr = attr_lo + col;
              if (!mask.empty() && mask[static_cast<std::size_t>(attr)] == 0) {
                continue;
              }
              ++folded;
              for (std::int64_t s = 0; s < n_slots; ++s) {
                const ColumnBest& cb =
                    table[static_cast<std::size_t>((col + 1) * n_slots + s)];
                ColumnBest& run = best[static_cast<std::size_t>(s)];
                if (cb.gain > run.gain) {
                  run = cb;
                  run.attr = static_cast<std::int32_t>(attr);
                }
              }
            }
            b.reads(mask, attr_lo, mask.empty() ? 0 : n_cols);
            b.reads(table, n_slots, n_cols * n_slots);
            if (!first) b.reads(table, 0, n_slots);
            b.writes(table, 0, n_slots);
            b.work(static_cast<std::uint64_t>(n_cols * n_slots));
            b.mem_coalesced(
                static_cast<std::uint64_t>((folded + 2) * n_slots) *
                    sizeof(ColumnBest) +
                (mask.empty() ? 0 : static_cast<std::uint64_t>(n_cols)));
          });
    });

    // Decide the level from the running best (nothing streamed: no slot has
    // a candidate).
    const auto best = std::span<const ColumnBest>(table).first(
        static_cast<std::size_t>(n_slots));
    const bool streamed = !visit.empty();
    dev_.launch("ooc_decide", 1, kBlockDim, [&](BlockCtx& b) {
      (void)detail::decide_slots(
          b, st, children_are_leaves,
          [&](std::int64_t s, const auto& node) {
            BestSplit w;
            if (!streamed) return w;
            const ColumnBest& r = best[static_cast<std::size_t>(s)];
            w.valid = r.gain > 0.0;
            w.gain = r.gain;
            w.attr = r.attr;
            w.split_value = r.split_value;
            w.default_left = r.default_left != 0;
            w.left = {-1, r.left_g, r.left_h, r.left_cnt};
            w.right = {-1, node.sum_g - r.left_g, node.sum_h - r.left_h,
                       node.count - r.left_cnt};
            return w;
          },
          [](std::int64_t, const auto&, const BestSplit&, std::int64_t) {});
      if (streamed) b.reads(best, 0, n_slots);
      b.mem_coalesced(static_cast<std::uint64_t>(n_slots) *
                      sizeof(ColumnBest));
    });
    return dev_.to_host(st.nodes, static_cast<std::size_t>(n_slots),
                        static_cast<std::size_t>(base));
  };

  // Moves the instances of the level's splitting nodes to their children:
  // the exact side from each distinct winning column, re-streamed from the
  // host once no matter how many nodes split on it, then the default child
  // for every instance still in a splitting node.
  const auto apply_splits = [&](const std::vector<std::int32_t>& attrs) {
    obs::ScopedSpan split_span("split_node");
    const auto nodes = std::span<const TreeNode>(st.nodes.span()).first(
        static_cast<std::size_t>(st.level_base + st.n_slots));
    const auto node_of = st.node_of.span();
    auto column_range = [&](std::int64_t attr) {
      const auto a = static_cast<std::size_t>(attr);
      return std::pair{csc.col_offsets[a], csc.col_offsets[a + 1]};
    };
    auto upload_column = [&](std::size_t j, ChunkSlot& sl) {
      const auto [lo, hi] = column_range(attrs[j]);
      const auto len = static_cast<std::size_t>(hi - lo);
      dev_.copy_to_device_async(
          "stream_ooc_upload_column", stream_copy,
          std::span<const Entry>(entries).subspan(
              static_cast<std::size_t>(lo), len),
          sl.entries);
    };
    stream_through_slots(attrs.size(), upload_column, [&](std::size_t j,
                                                          ChunkSlot& sl) {
      const std::int32_t attr = attrs[j];
      const auto [lo, hi] = column_range(attr);
      const std::int64_t len = hi - lo;
      const auto column =
          sl.entries.span().first(static_cast<std::size_t>(len));
      dev_.launch_async(
          "stream_ooc_exact_side", stream_compute,
          device::grid_for(len, kBlockDim), kBlockDim,
          [column, node_of, nodes, attr, len](BlockCtx& b) {
            b.for_each_thread([&](std::int64_t e) {
              if (e >= len) return;
              const Entry en = column[static_cast<std::size_t>(e)];
              auto& node = node_of[static_cast<std::size_t>(en.inst)];
              b.reads(node_of, en.inst);
              const TreeNode& tn = nodes[static_cast<std::size_t>(node)];
              // Only instances of a node that split on this attribute
              // move (a leaf's or a fresh child's attr is -1).
              if (tn.attr != attr) return;
              node = en.value >= tn.split_value ? tn.left : tn.right;
              // An instance appears once per column, so the scattered
              // node_of updates are block-disjoint; the auditor verifies
              // it.
              b.writes(node_of, en.inst);
            });
            b.reads_tile(column, len);
            b.reads(nodes, 0, static_cast<std::int64_t>(nodes.size()));
            const auto m = elems_in_block(b, len);
            b.mem_coalesced(m * sizeof(Entry));
            b.mem_irregular(m);
          });
    });
    detail::assign_default_children(st);
  };

  backend.split_level = [&](bool children_are_leaves) -> std::int64_t {
    // The decided records give the next level's size and the distinct
    // attributes the split step ships.
    std::int64_t n_next = 0;
    std::vector<std::int32_t> attrs;
    for (const TreeNode& tn : find_and_decide(children_are_leaves)) {
      if (tn.is_leaf()) continue;
      n_next += 2;
      attrs.push_back(tn.attr);
    }
    if (n_next == 0) return n_next;
    std::sort(attrs.begin(), attrs.end());
    attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
    apply_splits(attrs);
    testing::check_level_conservation(st, "ooc_level");
    detail::advance_level(st, n_next);
    return n_next;
  };
  backend.read_tree = [&] {
    // Charged with the decide kernels that wrote the tree.
    obs::ScopedSpan span("find_split");
    return detail::read_device_tree(st);
  };
  backend.end_tree = [&](const Tree& done) {
    testing::check_leaf_map(st.node_of.span(), done, ds, "ooc_leaf_map");
  };
  backend.finish = [&](const Tree& /*last*/) {
    obs::ScopedSpan final_span("gradient_compute");
    detail::update_predictions_smart(st);
    const auto final_pred = dev_.to_host(st.y_pred);
    return std::vector<double>(final_pred.begin(), final_pred.end());
  };
  report.train_scores = detail::grow_forest(backend, param_, report.trees);
  report.peak_device_bytes = dev_.allocator().peak();
  report.modeled_seconds = dev_.elapsed_seconds() - modeled_start;
  report.wall_seconds = detail::seconds_since(wall_start);
  return report;
}

std::uint64_t streamed_bytes(const device::Timeline& t) {
  std::uint64_t bytes = 0;
  for (const auto& [label, rec] : t.stream_transfers) {
    if (label.starts_with("stream_ooc_upload_")) bytes += rec.bytes;
  }
  return bytes;
}

std::uint64_t chunks_per_level(const device::Timeline& t,
                               const std::vector<Tree>& trees, int depth) {
  std::uint64_t uploads = 0;
  for (const char* label :
       {"stream_ooc_upload_entries", "stream_ooc_upload_inst"}) {
    const auto it = t.stream_transfers.find(label);
    if (it != t.stream_transfers.end()) uploads += it->second.count;
  }
  // The level loop enters one level past a tree's last split when it stops
  // early, and `depth` levels otherwise.
  std::uint64_t levels = 0;
  for (const Tree& tree : trees) {
    levels += static_cast<std::uint64_t>(
        tree.depth() < depth ? tree.depth() + 1 : depth);
  }
  return levels == 0 ? 0 : uploads / levels;
}

}  // namespace gbdt
