#include "core/out_of_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/level_driver.h"
#include "core/trainer_detail.h"
#include "data/csc_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/reduce.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::ActiveNode;
using detail::BestSplit;
using detail::GHPair;
using device::BlockCtx;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

namespace {

/// A host-resident column chunk, optionally pre-compressed with RLE.
struct Chunk {
  std::int64_t attr_lo = 0;
  std::int64_t attr_hi = 0;   // exclusive
  std::int64_t entry_lo = 0;  // into the host CSC arrays
  std::int64_t entry_hi = 0;
  bool compressed = false;
  // RLE form (root order never changes, so this is computed once).
  std::vector<float> run_values;
  std::vector<std::int32_t> run_lens;
  std::vector<std::int64_t> run_starts;  // exclusive scan of run_lens

  [[nodiscard]] std::int64_t n_entries() const { return entry_hi - entry_lo; }
};

/// Per-(column, slot) best-candidate record produced by the streaming walk.
struct ColumnBest {
  double gain = 0.0;
  float split_value = 0.f;
  std::uint8_t default_left = 0;
  double left_g = 0.0;
  double left_h = 0.0;
  std::int64_t left_cnt = 0;
  std::uint8_t valid = 0;
};

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

OutOfCoreReport OutOfCoreTrainer::train(const data::Dataset& ds) {
  obs::ScopedSpan train_span("ooc_train");
  static obs::Counter& chunks_streamed =
      obs::Registry::global().counter("gbdt_ooc_chunks_streamed_total");
  const auto wall_start = std::chrono::steady_clock::now();
  const double modeled_start = dev_.elapsed_seconds();
  const double busy_start = dev_.timeline().total_seconds();
  dev_.allocator().reset_peak();

  OutOfCoreReport report;
  report.base_score = param_.base_score;
  const std::int64_t n_inst = ds.n_instances();
  const std::int64_t n_attr = ds.n_attributes();
  if (n_inst == 0) throw std::invalid_argument("empty dataset");

  // ---- host-resident sorted columns (built once, never partitioned) ------
  const auto csc = data::build_csc_host(ds);
  report.in_core_bytes = csc.bytes();

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
            c.run_values.push_back(csc.values[u]);
            c.run_lens.push_back(1);
          } else {
            ++c.run_lens.back();
          }
        }
        const double ratio =
            c.run_values.empty()
                ? 1.0
                : static_cast<double>(c.n_entries()) /
                      static_cast<double>(c.run_values.size());
        c.compressed = ratio >= 1.5;
        if (c.compressed) {
          c.run_starts.resize(c.run_lens.size());
          std::int64_t start = 0;
          for (std::size_t r = 0; r < c.run_lens.size(); ++r) {
            c.run_starts[r] = start;
            start += c.run_lens[r];
          }
        } else {
          c.run_values.clear();
          c.run_values.shrink_to_fit();
          c.run_lens.clear();
          c.run_lens.shrink_to_fit();
        }
      }
      chunks.push_back(std::move(c));
      a = b;
    }
  }
  report.n_chunks = static_cast<int>(chunks.size());

  // ---- double-buffered chunk streaming setup ------------------------------
  // Uploads ride stream_copy one chunk ahead of stream_compute; events order
  // upload->consume (RAW) and enumerate->overwrite (WAR).  With
  // GBDT_SYNC_STREAMS=1 both names alias the default stream: the same
  // enqueue order executes serially, so trees are bitwise identical.
  const bool async_streams = device::stream_async_enabled();
  const int stream_copy =
      async_streams ? dev_.stream() : device::kDefaultStream;
  const int stream_compute =
      async_streams ? dev_.stream() : device::kDefaultStream;

  std::vector<const Chunk*> live;
  for (const Chunk& c : chunks) {
    if (c.n_entries() > 0) live.push_back(&c);
  }
  std::size_t max_entries = 0;
  std::size_t max_runs = 0;
  for (const Chunk* c : live) {
    max_entries =
        std::max(max_entries, static_cast<std::size_t>(c->n_entries()));
    if (c->compressed) max_runs = std::max(max_runs, c->run_values.size());
  }

  // Two reusable landing slots sized for the largest chunk; slot k%2 holds
  // chunk k while slot (k+1)%2 is being filled.
  struct ChunkSlot {
    DeviceBuffer<std::int32_t> inst;
    DeviceBuffer<float> values;
    DeviceBuffer<float> run_values;
    DeviceBuffer<std::int32_t> run_lens;
    DeviceBuffer<std::int64_t> run_starts;
  };
  const std::size_t n_slots_db = std::min<std::size_t>(2, live.size());
  std::vector<ChunkSlot> slots(n_slots_db);
  for (ChunkSlot& sl : slots) {
    sl.inst = dev_.alloc<std::int32_t>(max_entries);
    sl.values = dev_.alloc<float>(max_entries);
    if (max_runs > 0) {
      sl.run_values = dev_.alloc<float>(max_runs);
      sl.run_lens = dev_.alloc<std::int32_t>(max_runs);
      sl.run_starts = dev_.alloc<std::int64_t>(max_runs);
    }
  }

  // ---- resident per-instance state ---------------------------------------
  detail::TrainState st(dev_, param_, *loss_);
  st.n_inst = n_inst;
  st.n_attr = n_attr;
  objective::RoundDriver round_driver(dev_, param_, ds);
  auto d_labels = dev_.to_device<float>(ds.labels());
  detail::alloc_instance_state(st);

  // ---- boosting loop (core/level_driver.h) --------------------------------
  // The level's node tables: uploaded by the find step, read by both steps.
  device::ArenaBuffer<std::int32_t> d_slot_of;
  device::ArenaBuffer<detail::SlotStat> d_stats;
  detail::LevelBackend backend;
  backend.begin_tree = [&](int t, const Tree* prev, Tree& tree) {
    st.tree = &tree;
    obs::ScopedSpan span("gradient_compute");
    if (prev != nullptr) detail::update_predictions_smart(st, *prev);
    round_driver.begin_round(st, d_labels, t);
    prim::fill(dev_, st.node_of, std::int32_t{0});
    const GHPair root = prim::reduce_sum(dev_, st.gh, "ooc_root_sum_gh");
    return ActiveNode{0, root.g, root.h, n_inst};
  };

  backend.find_splits = [&](const std::vector<ActiveNode>& active) {
    st.active = active;
    const auto n_slots = st.n_active();
    std::vector<std::int32_t> slot_of(
        static_cast<std::size_t>(st.tree->n_nodes()), -1);
    for (std::size_t s = 0; s < active.size(); ++s) {
      slot_of[static_cast<std::size_t>(active[s].tree_node)] =
          static_cast<std::int32_t>(s);
    }
    // The previous level's tables go back to the arena first.
    d_stats.free();
    d_slot_of.free();
    d_slot_of = detail::upload_pooled(dev_, st.arena, slot_of);
    d_stats = detail::upload_slot_tables(st);
    std::vector<BestSplit> best(active.size());

    // ---- stream every chunk through the device once per level --------
    obs::ScopedSpan find_span("find_split");
    // Upload chunk k into slot k % n_slots_db on stream_copy.  The spans
    // handed to the async copies point into the host CSC / chunk arrays,
    // which outlive the level.
    std::vector<int> up_event(live.size(), -1);
    std::vector<int> last_use_event(n_slots_db, -1);
    auto upload_chunk = [&](std::size_t k) {
      const Chunk& c = *live[k];
      const auto n = static_cast<std::size_t>(c.n_entries());
      ChunkSlot& sl = slots[k % n_slots_db];
      obs::ScopedSpan io_span("chunk_io");
      chunks_streamed.inc();
      if (async_streams && last_use_event[k % n_slots_db] >= 0) {
        // hb: enumerate of the slot's previous chunk -> overwrite (WAR)
        dev_.wait_event(stream_copy, last_use_event[k % n_slots_db]);
      }
      dev_.copy_to_device_async(
          "stream_ooc_upload_inst", stream_copy,
          std::span<const std::int32_t>(csc.inst_ids)
              .subspan(static_cast<std::size_t>(c.entry_lo), n),
          sl.inst);
      if (c.compressed) {
        dev_.copy_to_device_async("stream_ooc_upload_run_values",
                                  stream_copy,
                                  std::span<const float>(c.run_values),
                                  sl.run_values);
        dev_.copy_to_device_async(
            "stream_ooc_upload_run_lens", stream_copy,
            std::span<const std::int32_t>(c.run_lens), sl.run_lens);
        dev_.copy_to_device_async(
            "stream_ooc_upload_run_starts", stream_copy,
            std::span<const std::int64_t>(c.run_starts), sl.run_starts);
        report.streamed_bytes +=
            c.run_values.size() * 16 + static_cast<std::uint64_t>(n) * 4;
      } else {
        dev_.copy_to_device_async(
            "stream_ooc_upload_values", stream_copy,
            std::span<const float>(csc.values)
                .subspan(static_cast<std::size_t>(c.entry_lo), n),
            sl.values);
        report.streamed_bytes += static_cast<std::uint64_t>(n) * 8;
      }
      if (async_streams) {
        up_event[k] = dev_.record_event(stream_copy);
      }
    };

    if (!live.empty()) upload_chunk(0);
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (k + 1 < live.size()) upload_chunk(k + 1);
      const Chunk& c = *live[k];
      const std::int64_t n = c.n_entries();
      const std::int64_t n_cols = c.attr_hi - c.attr_lo;
      ChunkSlot& sl = slots[k % n_slots_db];
      if (async_streams) {
        // hb: upload(k) on stream_copy -> decompress/enumerate (RAW)
        dev_.wait_event(stream_compute, up_event[k]);
      }
      if (c.compressed) {
        const auto n_runs = static_cast<std::int64_t>(c.run_values.size());
        const auto rv = sl.run_values.span().first(c.run_values.size());
        const auto rl = sl.run_lens.span().first(c.run_lens.size());
        const auto rs = sl.run_starts.span().first(c.run_starts.size());
        const auto out = sl.values.span().first(static_cast<std::size_t>(n));
        dev_.launch_async(
            "stream_ooc_decompress", stream_compute,
            device::grid_for(n_runs, kBlockDim), kBlockDim,
            [rv, rl, rs, out, n_runs](BlockCtx& b) {
              std::uint64_t written = 0;
              b.for_each_thread([&](std::int64_t r) {
                if (r >= n_runs) return;
                const auto ru = static_cast<std::size_t>(r);
                for (std::int32_t j = 0; j < rl[ru]; ++j) {
                  out[static_cast<std::size_t>(rs[ru] + j)] = rv[ru];
                }
                b.writes(out, rs[ru], rl[ru]);
                written += static_cast<std::uint64_t>(rl[ru]);
              });
              b.reads_tile(rv, n_runs);
              b.reads_tile(rl, n_runs);
              b.reads_tile(rs, n_runs);
              b.work(written);
              b.mem_coalesced(written * 4 + elems_in_block(b, n_runs) * 20);
            });
      }

      // Column offsets local to the chunk; uploaded on the compute stream
      // so the copy stream's lookahead is never stalled behind metadata.
      // local_offs outlives the per-chunk sync below.
      std::vector<std::int64_t> local_offs(
          static_cast<std::size_t>(n_cols) + 1);
      for (std::int64_t a2 = 0; a2 <= n_cols; ++a2) {
        local_offs[static_cast<std::size_t>(a2)] =
            csc.col_offsets[static_cast<std::size_t>(c.attr_lo + a2)] -
            c.entry_lo;
      }
      auto d_offs = st.arena.alloc<std::int64_t>(local_offs.size());
      dev_.copy_to_device_async("stream_ooc_upload_offs", stream_compute,
                                std::span<const std::int64_t>(local_offs),
                                d_offs.backing());

      // Per-(column, slot) winners, checked out per chunk (every entry is
      // written by ooc_enumerate, so the unzeroed checkout is safe).
      auto d_best = st.arena.alloc<ColumnBest>(
          static_cast<std::size_t>(n_cols) * static_cast<std::size_t>(n_slots));

      const auto values = sl.values.span().first(static_cast<std::size_t>(n));
      const auto inst = sl.inst.span().first(static_cast<std::size_t>(n));
      const auto offs = d_offs.span();
      const auto node_of = st.node_of.span();
      const auto so = d_slot_of.span();
      const auto stats = d_stats.span();
      const auto out_best = d_best.span();
      const auto gh = st.gh.span();

      // One logical block per column: two fused passes (present totals,
      // then candidate enumeration with both missing directions) against
      // per-slot running accumulators — the streaming analogue of node
      // interleaving.  Spans are captured by value: under schedule
      // perturbation the body runs at a later drain point.
      dev_.launch_async(
          "stream_ooc_enumerate", stream_compute, n_cols, kBlockDim,
          [values, inst, offs, node_of, so, stats, out_best, gh, n_slots,
           lambda = param_.lambda](BlockCtx& b) {
        const std::int64_t col = b.block_idx();
        const std::int64_t lo = offs[static_cast<std::size_t>(col)];
        const std::int64_t hi = offs[static_cast<std::size_t>(col) + 1];

        std::vector<GHPair> present(static_cast<std::size_t>(n_slots));
        std::vector<std::int64_t> present_cnt(
            static_cast<std::size_t>(n_slots), 0);
        for (std::int64_t e = lo; e < hi; ++e) {
          const auto iu = static_cast<std::size_t>(
              inst[static_cast<std::size_t>(e)]);
          const std::int32_t slot =
              so[static_cast<std::size_t>(node_of[iu])];
          if (slot < 0) continue;
          present[static_cast<std::size_t>(slot)] += gh[iu];
          ++present_cnt[static_cast<std::size_t>(slot)];
        }

        std::vector<GHPair> acc(static_cast<std::size_t>(n_slots));
        std::vector<std::int64_t> acc_cnt(static_cast<std::size_t>(n_slots),
                                          0);
        std::vector<float> last(static_cast<std::size_t>(n_slots), 0.f);
        std::vector<ColumnBest> cb(static_cast<std::size_t>(n_slots));

        auto evaluate = [&](std::int32_t slot) {
          const auto su = static_cast<std::size_t>(slot);
          const GainStats left{acc[su].g, acc[su].h, acc_cnt[su]};
          const GainStats pres{present[su].g, present[su].h, present_cnt[su]};
          const GainStats& node = stats[su];
          const CandidateGain c = missing_aware_gain(left, pres, node, lambda);
          if (c.gain > cb[su].gain) {
            const bool dl = c.default_left;
            cb[su].valid = 1;
            cb[su].gain = c.gain;
            cb[su].split_value = last[su];
            cb[su].default_left = dl ? 1 : 0;
            cb[su].left_g = left.g + (dl ? node.g - pres.g : 0.0);
            cb[su].left_h = left.h + (dl ? node.h - pres.h : 0.0);
            cb[su].left_cnt = left.cnt + (dl ? node.cnt - pres.cnt : 0);
          }
        };

        std::uint64_t touched = 0;
        for (std::int64_t e = lo; e < hi; ++e) {
          const auto iu = static_cast<std::size_t>(
              inst[static_cast<std::size_t>(e)]);
          const std::int32_t slot =
              so[static_cast<std::size_t>(node_of[iu])];
          if (slot < 0) continue;
          const auto su = static_cast<std::size_t>(slot);
          const float v = values[static_cast<std::size_t>(e)];
          if (acc_cnt[su] > 0 && v != last[su]) evaluate(slot);
          acc[su] += gh[iu];
          ++acc_cnt[su];
          last[su] = v;
          ++touched;
        }
        // Final boundary of every slot (all present left, missing right).
        for (std::int32_t s = 0; s < n_slots; ++s) {
          if (acc_cnt[static_cast<std::size_t>(s)] > 0) evaluate(s);
          out_best[static_cast<std::size_t>(col * n_slots + s)] =
              cb[static_cast<std::size_t>(s)];
        }
        b.reads(offs, col, 2);
        b.reads(values, lo, hi - lo);
        b.reads(inst, lo, hi - lo);
        b.writes(out_best, col * n_slots, n_slots);
        // Two fused passes: stream the chunk twice, gather (g,h) twice.
        b.work(4 * touched);
        b.mem_coalesced(2 * touched * 8);
        b.mem_irregular(2 * 2 * touched);  // node_of + (g,h) per pass
        b.flop(touched * 8);
      });

      if (async_streams) {
        // Recorded after enumerate: the slot may be overwritten (and the
        // arena blocks reused) once this fires.
        last_use_event[k % n_slots_db] = dev_.record_event(stream_compute);
      }
      // Host merge needs the winners; the copy stream keeps prefetching
      // chunk k+1 underneath this sync.
      dev_.sync(stream_compute);

      // Merge the chunk's winners into the per-node best (columns in
      // ascending attribute order; strict > keeps the lowest attribute on
      // ties, like the in-core argmax).
      for (std::int64_t col = 0; col < n_cols; ++col) {
        // Columns outside this tree's feature bag yield no splits (host
        // glue over the simulated device: the mask byte read mirrors the
        // scalar winner reads below).
        if (!st.feature_mask.empty() &&
            st.feature_mask[static_cast<std::size_t>(c.attr_lo + col)] == 0) {
          continue;
        }
        for (std::int64_t s = 0; s < n_slots; ++s) {
          const ColumnBest& cb =
              d_best[static_cast<std::size_t>(col * n_slots + s)];
          if (cb.valid == 0) continue;
          const auto su = static_cast<std::size_t>(s);
          BestSplit& b = best[su];
          if (cb.gain > b.gain) {
            const ActiveNode& node = active[su];
            b.valid = true;
            b.gain = cb.gain;
            b.attr = static_cast<std::int32_t>(c.attr_lo + col);
            b.split_value = cb.split_value;
            b.default_left = cb.default_left != 0;
            b.left = ActiveNode{-1, cb.left_g, cb.left_h, cb.left_cnt};
            b.right = ActiveNode{-1, node.sum_g - cb.left_g,
                                 node.sum_h - cb.left_h,
                                 node.count - cb.left_cnt};
          }
        }
      }
    }
    return best;
  };

  backend.apply_splits = [&](const detail::LevelPlan& plan) {
    // Defaults for every instance of a splitting node, then the exact side
    // from the winning column, re-streamed from the host.
    obs::ScopedSpan split_span("split_node");
    {
      auto d_default = detail::upload_default_children(st, plan);
      auto node_of = st.node_of.span();
      auto def = d_default.span();
      dev_.launch("ooc_assign_default", device::grid_for(n_inst, kBlockDim),
                  kBlockDim, [&](BlockCtx& b) {
                    b.for_each_thread([&](std::int64_t i) {
                      if (i >= n_inst) return;
                      const auto u = static_cast<std::size_t>(i);
                      const std::int32_t child =
                          def[static_cast<std::size_t>(node_of[u])];
                      if (child >= 0) node_of[u] = child;
                    });
                    b.reads_tile(node_of, n_inst);
                    b.writes_tile(node_of, n_inst);
                    b.reads(def, 0,
                            static_cast<std::int64_t>(def.size()));
                    b.mem_coalesced(elems_in_block(b, n_inst) * 8);
                  });
    }
    for (const auto& d : plan.per_slot) {
      if (!d.split) continue;
      const std::int64_t lo =
          csc.col_offsets[static_cast<std::size_t>(d.attr)];
      const std::int64_t hi =
          csc.col_offsets[static_cast<std::size_t>(d.attr) + 1];
      const std::int64_t len = hi - lo;
      if (len == 0) continue;
      auto d_v = dev_.to_device<float>(
          std::span<const float>(csc.values)
              .subspan(static_cast<std::size_t>(lo),
                       static_cast<std::size_t>(len)));
      auto d_i = dev_.to_device<std::int32_t>(
          std::span<const std::int32_t>(csc.inst_ids)
              .subspan(static_cast<std::size_t>(lo),
                       static_cast<std::size_t>(len)));
      report.streamed_bytes += static_cast<std::uint64_t>(len) * 8;
      const std::int32_t left_id = d.left_id;
      const std::int32_t right_id = d.right_id;
      const std::int32_t default_id =
          d.default_left ? d.left_id : d.right_id;
      const float split_value = d.split_value;
      auto v = d_v.span();
      auto ii = d_i.span();
      auto node_of = st.node_of.span();
      dev_.launch("ooc_exact_side", device::grid_for(len, kBlockDim),
                  kBlockDim, [&](BlockCtx& b) {
                    b.for_each_thread([&](std::int64_t e) {
                      if (e >= len) return;
                      const auto u = static_cast<std::size_t>(e);
                      auto& slot_ref =
                          node_of[static_cast<std::size_t>(ii[u])];
                      b.reads(node_of, ii[u]);
                      if (slot_ref != default_id &&
                          slot_ref != (d.default_left ? right_id : left_id)) {
                        return;  // instance not in this node
                      }
                      // Instances of other nodes share neither child id.
                      slot_ref = v[u] >= split_value ? left_id : right_id;
                      // An instance appears once per streamed column, so
                      // the scattered node_of updates are block-disjoint;
                      // the auditor verifies it.
                      b.writes(node_of, ii[u]);
                    });
                    b.reads_tile(v, len);
                    b.reads_tile(ii, len);
                    const auto m = elems_in_block(b, len);
                    b.mem_coalesced(m * 8);
                    b.mem_irregular(m);
                  });
    }

    testing::check_instance_counts(st.node_of.span(), plan, "ooc_level");
  };

  backend.end_tree = [&](const Tree& done) {
    d_stats.free();
    d_slot_of.free();
    testing::check_leaf_map(st.node_of.span(), done, ds, "ooc_leaf_map");
  };
  backend.finish = [&](const Tree& last) {
    obs::ScopedSpan final_span("gradient_compute");
    detail::update_predictions_smart(st, last);
    const auto final_pred = dev_.to_host(st.y_pred);
    return std::vector<double>(final_pred.begin(), final_pred.end());
  };
  report.train_scores = detail::grow_forest(backend, param_, report.trees);
  report.peak_device_bytes = dev_.allocator().peak();
  report.modeled_seconds = dev_.elapsed_seconds() - modeled_start;
  // Busy seconds are what a single serialized stream would have taken; the
  // gap to the makespan is the PCI-e time hidden under enumeration.
  const double busy_seconds = dev_.timeline().total_seconds() - busy_start;
  report.overlap_ratio =
      busy_seconds > 0.0
          ? std::max(0.0, 1.0 - report.modeled_seconds / busy_seconds)
          : 0.0;
  obs::Registry::global()
      .gauge("gbdt_device_overlap_ratio")
      .set(report.overlap_ratio);
  report.wall_seconds = detail::seconds_since(wall_start);
  return report;
}

}  // namespace gbdt
