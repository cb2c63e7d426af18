#include "multigpu/multi_trainer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/autotune.h"
#include "core/level_driver.h"
#include "core/trainer_detail.h"
#include "core/trainer_hist.h"
#include "data/csc_matrix.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/reduce.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt::multigpu {

using gbdt::detail::BestSplit;
using gbdt::detail::TrainState;
using device::Device;

namespace {

/// One device + its shard of the training matrix.
struct Shard {
  std::unique_ptr<Device> dev;
  std::unique_ptr<TrainState> state;
  std::int64_t n_local_attrs = 0;  // exact mode: columns held locally
  std::int64_t row_lo = 0;         // hist mode: global row range [lo, hi)
  std::int64_t row_hi = 0;
  int comm_stream = device::kDefaultStream;
};

/// Accumulates the max-over-shards modeled time of one parallel step into
/// the critical path.  Comm legs advance the per-device comm-stream clocks,
/// so a step wrapping a collective prices communication through the same
/// max — never double-counted as a separate additive term.  Every shard op
/// runs inside a step, so at K = 1 the critical path is the shard's clock.
class ParallelStep {
 public:
  ParallelStep(std::vector<Shard>& shards, double& critical)
      : shards_(shards), critical_(critical) {
    before_.reserve(shards.size());
    for (auto& s : shards_) before_.push_back(s.dev->elapsed_seconds());
  }
  ~ParallelStep() {
    double slowest = 0.0;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const double delta = shards_[k].dev->elapsed_seconds() - before_[k];
      slowest = std::max(slowest, delta);
    }
    critical_ += slowest;
  }
  ParallelStep(const ParallelStep&) = delete;
  ParallelStep& operator=(const ParallelStep&) = delete;

 private:
  std::vector<Shard>& shards_;
  double& critical_;
  std::vector<double> before_;
};

/// Fresh ShardLinks with a ready event recorded on each shard's default
/// stream, so the collectives' comm legs wait for every kernel enqueued so
/// far (hb edge; see allreduce.h detail::enqueue_leg).
std::vector<ShardLink> make_links(std::vector<Shard>& shards) {
  std::vector<ShardLink> links;
  links.reserve(shards.size());
  for (auto& sh : shards) {
    links.push_back(ShardLink{sh.dev.get(), sh.comm_stream,
                              sh.dev->record_event(device::kDefaultStream)});
  }
  return links;
}

}  // namespace

struct MultiGpuTrainer::Impl {
  device::DeviceConfig cfg;
  int n_devices;
  GBDTParam param;
  Interconnect link;
  std::unique_ptr<Loss> loss;

  Impl(device::DeviceConfig c, int n, GBDTParam p, Interconnect l)
      : cfg(std::move(c)), n_devices(n), param(std::move(p)), link(l),
        loss(make_loss(param.loss)) {
    if (n_devices < 1) throw std::invalid_argument("need >= 1 device");
    gbdt::detail::validate_param(param, param.use_hist_trainer);
    // The multi-GPU exact path shards by attribute over the sparse layout.
    param.use_rle = false;
    param.force_rle = false;
  }

  /// Each method builds `shards` and fills `report`'s trees, scores,
  /// critical-path seconds and `comm`.
  void train_exact(const data::Dataset& ds, std::vector<Shard>& shards,
                   MultiTrainReport& report);
  void train_hist(const data::Dataset& ds, std::vector<Shard>& shards,
                  MultiTrainReport& report);
};

MultiGpuTrainer::MultiGpuTrainer(device::DeviceConfig cfg, int n_devices,
                                 GBDTParam param, Interconnect link)
    : impl_(std::make_unique<Impl>(std::move(cfg), n_devices, std::move(param),
                                   link)) {}

MultiGpuTrainer::~MultiGpuTrainer() = default;

MultiTrainReport MultiGpuTrainer::train(const data::Dataset& ds) {
  MultiTrainReport report;
  if (impl_->param.autotune) {
    // Shards share one tuned configuration (they see the same shape).
    report.tuning =
        autotune::tune(impl_->cfg, autotune::problem_shape(ds), impl_->param);
    autotune::apply(report.tuning, impl_->param);
  }
  obs::ScopedSpan train_span("mgpu_train");
  const auto wall_start = std::chrono::steady_clock::now();
  if (ds.n_instances() == 0) throw std::invalid_argument("empty dataset");
  report.base_score = impl_->param.base_score;
  std::vector<Shard> shards(static_cast<std::size_t>(impl_->n_devices));
  if (impl_->param.use_hist_trainer) {
    impl_->train_hist(ds, shards, report);
  } else {
    impl_->train_exact(ds, shards, report);
  }
  for (const Shard& sh : shards) {
    report.device_seconds.push_back(sh.dev->elapsed_seconds());
    for (const auto& [label, rec] : sh.dev->timeline().stream_transfers) {
      auto& sum = report.stream_transfers[label];
      sum.count += rec.count;
      sum.bytes += rec.bytes;
      sum.seconds += rec.seconds;
    }
    report.peak_device_bytes =
        std::max(report.peak_device_bytes, sh.dev->allocator().peak());
  }
  report.wall_seconds = gbdt::detail::seconds_since(wall_start);
  return report;
}

// ---------------------------------------------------------------------------
// Exact method: round-robin attribute shards.
// ---------------------------------------------------------------------------

void MultiGpuTrainer::Impl::train_exact(const data::Dataset& ds,
                                        std::vector<Shard>& shards,
                                        MultiTrainReport& report) {
  const int K = n_devices;
  if (K > ds.n_attributes()) {
    throw std::invalid_argument("more devices than attributes");
  }
  const std::int64_t n_inst = ds.n_instances();
  const std::int64_t n_attr = ds.n_attributes();
  const bool streams = device::stream_async_enabled();

  // ---- build shards --------------------------------------------------------
  // Attribute a lives on device a % K as local a / K.
  {
    obs::ScopedSpan span("shard_build");
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      sh.dev = std::make_unique<Device>(cfg);
      sh.comm_stream =
          streams ? sh.dev->stream() : device::kDefaultStream;
      sh.n_local_attrs = (n_attr + (K - 1 - k)) / K;  // ceil((d - k) / K)
      sh.state = std::make_unique<TrainState>(*sh.dev, param, *loss);
      sh.state->n_inst = n_inst;
      sh.state->n_attr = sh.n_local_attrs;
    }
    // Per-shard datasets with remapped attribute ids.
    ParallelStep step(shards, report.modeled_seconds);
    std::vector<data::Entry> row;
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      data::Dataset local(sh.n_local_attrs);
      for (std::int64_t i = 0; i < n_inst; ++i) {
        row.clear();
        for (const auto& e : ds.instance(i)) {
          if (e.attr % K == k) row.push_back({e.attr / K, e.value});
        }
        local.add_instance(row, ds.labels()[static_cast<std::size_t>(i)]);
      }
      auto& st = *sh.state;
      auto csc = data::build_csc_device(*sh.dev, local);
      st.orig_values = std::move(csc.values);
      st.orig_inst = std::move(csc.inst_ids);
      gbdt::detail::build_root_segments(st, csc.col_offsets);
    }
  }

  // Replicated per-instance state + labels on every shard.
  std::vector<device::DeviceBuffer<float>> labels(static_cast<std::size_t>(K));
  {
    obs::ScopedSpan span("shard_build");
    ParallelStep step(shards, report.modeled_seconds);
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      labels[static_cast<std::size_t>(k)] =
          sh.dev->to_device<float>(ds.labels());
      gbdt::detail::alloc_instance_state(*sh.state);
      gbdt::detail::alloc_device_tree(*sh.state, n_inst);
    }
  }

  // One RoundDriver per shard: gradients are replicated (every shard holds
  // the full row set), the feature bag is drawn from the global attribute
  // space and remapped to each shard's local ids — so the allreduced winner
  // matches what a single device with the same bag would pick.
  std::vector<std::unique_ptr<objective::RoundDriver>> drivers;
  drivers.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    drivers.push_back(std::make_unique<objective::RoundDriver>(
        *shards[static_cast<std::size_t>(k)].dev, param, ds, K, k));
  }

  // ---- boosting loop (core/level_driver.h) --------------------------------
  // Every shard holds the whole tree on its device and decides each level
  // itself from the allreduced winners, so no level crosses PCI-e.
  gbdt::detail::LevelBackend backend;
  backend.begin_tree = [&](int t, const Tree* prev) {
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        auto& st = *shards[static_cast<std::size_t>(k)].state;
        if (prev != nullptr) gbdt::detail::update_predictions_smart(st);
        drivers[static_cast<std::size_t>(k)]->begin_round(
            st, labels[static_cast<std::size_t>(k)], t);
        gbdt::detail::reset_working_layout(st);
      }
    }

    // Gradients are replicated, so every shard reduces the same pairs in
    // the same order to the same bitwise root; no collective is needed to
    // agree on it.
    ParallelStep step(shards, report.modeled_seconds);
    for (auto& sh : shards) {
      gbdt::detail::begin_device_tree(*sh.state, "mgpu_root_sum_gh");
    }
  };

  backend.split_level = [&](bool children_are_leaves) -> std::int64_t {
    // 1. Local best splits per shard, assembled on the device into winner
    //    records whose attribute ids are global and whose owner is the
    //    shard, so the combine (max gain, ties to the lowest global
    //    attribute — the order a single device enumerates) is
    //    order-independent and either schedule converges on the same winner
    //    bit for bit.  A winner's seg/pos stay shard-local: only its owner
    //    applies them.
    std::vector<device::ArenaBuffer<BestSplit>> records;
    records.reserve(static_cast<std::size_t>(K));
    {
      obs::ScopedSpan span("find_split");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        auto& st = *shards[static_cast<std::size_t>(k)].state;
        gbdt::detail::find_splits_sparse(st);
        records.push_back(
            st.arena.alloc<BestSplit>(static_cast<std::size_t>(st.n_slots)));
        gbdt::detail::assemble_winners(st, records.back().span(), K, k);
      }
    }

    // 2. Allreduce the records in place, device to device.
    {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step(shards, report.modeled_seconds);
      auto links = make_links(shards);
      std::vector<std::span<BestSplit>> payloads;
      payloads.reserve(static_cast<std::size_t>(K));
      for (auto& r : records) payloads.push_back(r.span());
      report.comm += allreduce<BestSplit>("comm_cand", link, links, payloads,
                                          gbdt::detail::better_split);
    }

    // 3. Every shard decides the level from the same merged winners.
    {
      obs::ScopedSpan span("find_split");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        auto& st = *shards[static_cast<std::size_t>(k)].state;
        gbdt::detail::decide_on_device(st, children_are_leaves,
                                       records[static_cast<std::size_t>(k)]
                                           .span(),
                                       k, K);
        st.search = {};
      }
    }
    records.clear();
    const gbdt::detail::SplitTables& decided = shards[0].state->split_tables;
    const std::int64_t n_next = decided.n_next;
    if (n_next == 0) {
      for (auto& sh : shards) sh.state->split_tables = {};
      return n_next;
    }

    // 4. Mark instance sides: every shard applies the defaults; only the
    //    owner of a node's winning attribute knows the exact sides.
    {
      obs::ScopedSpan span("mark_sides");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& sh : shards) gbdt::detail::apply_mark_sides_sparse(*sh.state);
    }

    // 5. Synchronise node_of: instance i's authoritative value lives on
    //    the shard owning its (new) node's winning attribute.  Each shard
    //    receives one modeled leg per winning peer carrying that peer's
    //    rows (the decision's rows per owner), then a device kernel gathers
    //    the rows in place.
    if (K > 1) {
      obs::ScopedSpan span("node_sync");
      ParallelStep step(shards, report.modeled_seconds);
      const std::vector<std::int64_t>& rows_of_winner = decided.rows_of_owner;
      auto links = make_links(shards);
      std::vector<double> shard_secs(static_cast<std::size_t>(K), 0.0);
      for (int k = 0; k < K; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        bool waited = false;
        auto dst = shards[ku].state->node_of.span();
        for (int w = 0; w < K; ++w) {
          if (w == k || rows_of_winner[static_cast<std::size_t>(w)] == 0) {
            continue;
          }
          const auto bytes =
              static_cast<std::uint64_t>(
                  rows_of_winner[static_cast<std::size_t>(w)]) *
              sizeof(std::int32_t);
          const double secs = link.leg_seconds(bytes);
          detail::enqueue_leg(links[ku], waited, "stream_mgpu_node_sync",
                              secs, bytes, dst, detail::ChunkRange{0, 0},
                              detail::ChunkRange{0, dst.size()});
          report.comm.bytes += bytes;
          ++report.comm.messages;
          shard_secs[ku] += secs;
        }
      }
      report.comm.seconds +=
          *std::max_element(shard_secs.begin(), shard_secs.end());
      // Device-side masked gather replacing the old host-side O(K·n)
      // merge loop: w = owner[node_of[i]] picks the shard whose mark_sides
      // result is authoritative for row i.  Winner shards never rewrite
      // their own rows, so cross-device kernel order is free — and the
      // default stream joins each shard's comm legs.
      std::vector<std::span<const std::int32_t>> peers(
          static_cast<std::size_t>(K));
      for (int w = 0; w < K; ++w) {
        peers[static_cast<std::size_t>(w)] =
            shards[static_cast<std::size_t>(w)].state->node_of.span();
      }
      for (int k = 0; k < K; ++k) {
        auto& sh = shards[static_cast<std::size_t>(k)];
        auto& st = *sh.state;
        // The decision wrote the owner column next to the split tables.
        auto nof = st.node_of.span();
        auto own = st.split_tables.owner;
        const std::int64_t n = n_inst;
        const int me = k;
        sh.dev->launch(
            "mgpu_node_merge", device::grid_for(n, prim::kBlockDim),
            prim::kBlockDim, [&](device::BlockCtx& b) {
              b.for_each_thread([&](std::int64_t i) {
                if (i >= n) return;
                const auto u = static_cast<std::size_t>(i);
                const std::int32_t c = nof[u];
                const std::int64_t w = own[static_cast<std::size_t>(c)];
                if (w >= 0 && w != me) {
                  nof[u] = peers[static_cast<std::size_t>(w)][u];
                }
              });
              b.reads_tile(nof, n);
              b.writes_tile(nof, n);
              b.reads(own, 0, static_cast<std::int64_t>(own.size()));
              const std::uint64_t m = prim::elems_in_block(b, n);
              b.work(m);
              // own node read + peer gather + masked write
              b.mem_coalesced(m * 3 * sizeof(std::int32_t));
            });
      }
    }

    // node_of is replicated again: every shard's map must conserve the
    // decided level.
    for (auto& sh : shards) {
      testing::check_level_conservation(*sh.state, "mgpu_node_sync");
    }

    // 6. Local order-preserving partition of every shard's lists; when the
    //    children are leaves, node_sync was the lists' last reader.
    if (children_are_leaves) {
      for (auto& sh : shards) gbdt::detail::release_working_layout(*sh.state);
    } else {
      obs::ScopedSpan span("partition");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& sh : shards) gbdt::detail::apply_partition_sparse(*sh.state);
    }
    for (auto& sh : shards) gbdt::detail::advance_level(*sh.state, n_next);
    return n_next;
  };
  backend.read_tree = [&] {
    // Every shard holds the same tree; shard 0's comes back (charged with
    // the decide kernels that wrote it).
    obs::ScopedSpan span("find_split");
    ParallelStep step(shards, report.modeled_seconds);
    return gbdt::detail::read_device_tree(*shards[0].state);
  };
  backend.end_tree = [&](const Tree& tree) {
    // Every shard's replicated instance->leaf map must match the tree.
    for (auto& sh : shards) {
      testing::check_leaf_map(sh.state->node_of.span(), tree, ds,
                              "mgpu_leaf_map");
    }
  };
  backend.finish = [&](const Tree& /*last*/) {
    // Fold the last tree into the replicated predictions; shard 0's come
    // back.
    ParallelStep step(shards, report.modeled_seconds);
    {
      obs::ScopedSpan span("gradient_compute");
      for (auto& sh : shards) {
        gbdt::detail::update_predictions_smart(*sh.state);
      }
    }
    const auto final_pred = shards[0].dev->to_host(shards[0].state->y_pred);
    return std::vector<double>(final_pred.begin(), final_pred.end());
  };
  report.train_scores = gbdt::detail::grow_forest(backend, param, report.trees);
}

// ---------------------------------------------------------------------------
// Histogram method: row shards, global cuts, per-level histogram allreduce.
// ---------------------------------------------------------------------------

void MultiGpuTrainer::Impl::train_hist(const data::Dataset& ds,
                                       std::vector<Shard>& shards,
                                       MultiTrainReport& report) {
  const int K = n_devices;
  if (static_cast<std::int64_t>(K) > ds.n_instances()) {
    throw std::invalid_argument("more devices than instances");
  }
  if (param.subsample < 1.0 || param.feature_bag != 0) {
    throw std::invalid_argument(
        "multi-GPU hist: row/feature sampling is not supported (shards own "
        "row ranges; a per-tree row mask would unbalance them)");
  }
  if (param.objective == ObjectiveKind::kRanking) {
    throw std::invalid_argument(
        "multi-GPU hist: ranking objectives need query groups spanning "
        "shards; train single-device instead");
  }
  const std::int64_t n_inst = ds.n_instances();
  const std::int64_t n_attr = ds.n_attributes();
  gbdt::detail::check_hist_memory(param, n_attr, cfg.global_mem_bytes);
  const int n_bins = param.n_bins;
  const bool streams = device::stream_async_enabled();

  // ---- row shards binned against the *global* quantile cuts ---------------
  std::vector<BinnedMatrix> binned(static_cast<std::size_t>(K));
  std::vector<device::DeviceBuffer<float>> labels(static_cast<std::size_t>(K));
  {
    obs::ScopedSpan span("shard_build");
    const std::vector<hist::BinCuts> cuts = build_hist_cuts(ds, n_bins);
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      sh.dev = std::make_unique<Device>(cfg);
      if (streams) sh.comm_stream = sh.dev->stream();
      const auto r =
          detail::chunk_range(static_cast<std::size_t>(n_inst), K, k);
      sh.row_lo = static_cast<std::int64_t>(r.lo);
      sh.row_hi = static_cast<std::int64_t>(r.hi);
      sh.state = std::make_unique<TrainState>(*sh.dev, param, *loss);
      sh.state->n_inst = sh.row_hi - sh.row_lo;
      sh.state->n_attr = n_attr;
    }
    ParallelStep step(shards, report.modeled_seconds);
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      data::Dataset local(n_attr);
      std::vector<data::Entry> row;
      for (std::int64_t i = sh.row_lo; i < sh.row_hi; ++i) {
        const auto inst = ds.instance(i);
        row.assign(inst.begin(), inst.end());
        local.add_instance(row, ds.labels()[static_cast<std::size_t>(i)]);
      }
      binned[static_cast<std::size_t>(k)] =
          build_binned_matrix(*sh.dev, local, n_bins, cuts);
      labels[static_cast<std::size_t>(k)] =
          sh.dev->to_device<float>(local.labels());
      gbdt::detail::alloc_instance_state(*sh.state);
      gbdt::detail::alloc_device_tree(*sh.state, n_inst);
    }
  }

  std::vector<HistGrower> growers;
  growers.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    auto& sh = shards[static_cast<std::size_t>(k)];
    growers.emplace_back(*sh.dev, param, *sh.state,
                         binned[static_cast<std::size_t>(k)],
                         /*distributed=*/true);
  }

  // ---- boosting loop (core/level_driver.h) --------------------------------
  // The histograms and slot stats are global once merged, so every shard
  // decides each level the same on its own device tree.
  gbdt::detail::LevelBackend backend;
  backend.begin_tree = [&](int /*t*/, const Tree* prev) {
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        auto& st = *shards[static_cast<std::size_t>(k)].state;
        if (prev != nullptr) gbdt::detail::update_predictions_smart(st);
        gbdt::detail::compute_gradients(st, labels[static_cast<std::size_t>(k)]);
      }
    }

    // Quantization scales must agree across shards: allreduce the |g|/|h|
    // maxima (max) and the quantized root sums (+) so every shard holds the
    // global values the single-device trainer would compute.
    std::vector<std::array<double, 2>> maxima(static_cast<std::size_t>(K));
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        const auto mx = growers[static_cast<std::size_t>(k)].local_abs_max();
        maxima[static_cast<std::size_t>(k)] = std::array<double, 2>{mx.g, mx.h};
      }
    }
    if (K > 1) {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step(shards, report.modeled_seconds);
      auto links = make_links(shards);
      std::vector<std::span<double>> payloads;
      payloads.reserve(static_cast<std::size_t>(K));
      for (auto& m : maxima) payloads.push_back(std::span<double>(m));
      report.comm += allreduce<double>(
          "comm_absmax", link, links, payloads,
          [](double a, double b) { return std::max(a, b); });
    }
    std::vector<hist::QGH> rootq(static_cast<std::size_t>(K));
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step(shards, report.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        rootq[static_cast<std::size_t>(k)] =
            growers[static_cast<std::size_t>(k)].quantize(
                maxima[0][0], maxima[0][1], n_inst);
      }
    }
    if (K > 1) {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step(shards, report.modeled_seconds);
      auto links = make_links(shards);
      std::vector<std::span<hist::QGH>> payloads;
      payloads.reserve(static_cast<std::size_t>(K));
      for (auto& q : rootq) {
        payloads.push_back(std::span<hist::QGH>(&q, 1));
      }
      report.comm += allreduce<hist::QGH>("comm_rootq", link, links,
                                          payloads, std::plus<hist::QGH>());
    }

    // The root stats are global, so every shard writes the same root.
    ParallelStep step(shards, report.modeled_seconds);
    for (auto& g : growers) g.begin_tree(rootq[0]);
  };

  backend.split_level = [&](bool children_are_leaves) -> std::int64_t {
    for (auto& g : growers) g.plan_level();
    {
      obs::ScopedSpan span("hist_build");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& g : growers) g.build_level();
    }
    if (K > 1) {
      // Histogram allreduce: one collective per accumulated slot, payload
      // = that slot's cps cells, on each shard's comm stream behind an
      // event recorded after hist_build.
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step(shards, report.modeled_seconds);
      auto links = make_links(shards);
      std::vector<std::vector<std::span<hist::QGH>>> slots(
          static_cast<std::size_t>(K));
      for (int k = 0; k < K; ++k) {
        slots[static_cast<std::size_t>(k)] =
            growers[static_cast<std::size_t>(k)].accumulated_slots();
      }
      // One level's slots sum first, then join the training's total.
      AllreduceReport level;
      std::vector<std::span<hist::QGH>> payloads(static_cast<std::size_t>(K));
      for (std::size_t j = 0; j < slots[0].size(); ++j) {
        for (int k = 0; k < K; ++k) {
          payloads[static_cast<std::size_t>(k)] =
              slots[static_cast<std::size_t>(k)][j];
        }
        level += allreduce<hist::QGH>("comm_hist", link, links, payloads,
                                      std::plus<hist::QGH>());
      }
      report.comm += level;
    }
    if (growers[0].has_derived()) {
      obs::ScopedSpan span("hist_subtract");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& g : growers) g.subtract_level();
    }
    {
      obs::ScopedSpan span("hist_find_split");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& g : growers) g.find_level(children_are_leaves);
    }
    const std::int64_t n_next = growers[0].n_next();
    if (n_next == 0) return n_next;
    {
      obs::ScopedSpan span("hist_split_node");
      ParallelStep step(shards, report.modeled_seconds);
      for (auto& g : growers) g.apply_level(children_are_leaves);
    }
    for (auto& sh : shards) gbdt::detail::advance_level(*sh.state, n_next);
    return n_next;
  };
  backend.read_tree = [&] {
    // Every shard holds the same tree; shard 0's comes back (charged with
    // the decide kernels that wrote it).
    obs::ScopedSpan span("hist_find_split");
    ParallelStep step(shards, report.modeled_seconds);
    return gbdt::detail::read_device_tree(*shards[0].state);
  };
  // No conservation or leaf-map check runs here: each shard's instance->
  // node map holds only its own rows, while the tree's counts are global.
  backend.end_tree = [&](const Tree& /*tree*/) {
    for (auto& g : growers) g.finish_tree();
  };
  backend.finish = [&](const Tree& /*last*/) {
    // Fold the last tree into the per-shard predictions and concatenate the
    // row ranges back into dataset order.
    ParallelStep step(shards, report.modeled_seconds);
    {
      obs::ScopedSpan span("gradient_compute");
      for (auto& sh : shards) gbdt::detail::update_predictions_smart(*sh.state);
    }
    std::vector<double> scores;
    scores.reserve(static_cast<std::size_t>(n_inst));
    for (int k = 0; k < K; ++k) {
      auto& sh = shards[static_cast<std::size_t>(k)];
      const auto pred = sh.dev->to_host(sh.state->y_pred);
      scores.insert(scores.end(), pred.begin(), pred.end());
    }
    return scores;
  };
  report.train_scores = gbdt::detail::grow_forest(backend, param, report.trees);
}

}  // namespace gbdt::multigpu
