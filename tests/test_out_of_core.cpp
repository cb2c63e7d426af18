// Tests for the out-of-core (column-streaming) trainer: equivalence with the
// in-core exact trainer, bounded device footprint, RLE-compressed streaming,
// PCI-e traffic accounting and transfer structure, feature-bag chunk
// skipping, and the double-buffered upload pipeline (async-vs-sync bitwise
// equality, overlap, race cleanliness).  Streamed bytes, chunk counts and
// overlap are read off the device timeline.  OutOfCoreDedupe runs under the
// race_smoke label.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>

#include "analysis/hb_race.h"
#include "core/metrics.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/csc_matrix.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "obs/metrics.h"

namespace gbdt {
namespace {

using data::SyntheticSpec;
using device::Device;
using device::DeviceConfig;

/// Restores the process-wide stream/race toggles on scope exit so test
/// order never leaks state.
struct ToggleGuard {
  bool async = device::stream_async_enabled();
  bool race = analysis::race_detect_enabled();
  ~ToggleGuard() {
    device::set_stream_async_enabled(async);
    analysis::set_race_detect_enabled(race);
  }
};

data::Dataset make_data(unsigned seed, std::int64_t n = 1200,
                        std::int64_t d = 14, double density = 0.7,
                        int distinct = 0) {
  SyntheticSpec s;
  s.n_instances = n;
  s.n_attributes = d;
  s.density = density;
  s.distinct_values = distinct;
  s.seed = seed;
  return generate(s);
}

GBDTParam small_param() {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 4;
  return p;
}

/// Process-wide counter value (tests read deltas around one training run).
std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Labeled async transfers of one device: count (0 when never issued).
std::uint64_t transfers(const Device& dev, const std::string& label) {
  const auto& t = dev.timeline().stream_transfers;
  const auto it = t.find(label);
  return it == t.end() ? 0 : it->second.count;
}

/// Internal nodes over the forest: the nodes a split step split.
std::uint64_t splits(const std::vector<Tree>& trees) {
  std::uint64_t n = 0;
  for (const Tree& t : trees) {
    for (std::int32_t id = 0; id < t.n_nodes(); ++id) {
      n += t.node(id).is_leaf() ? 0 : 1;
    }
  }
  return n;
}

/// Sum over every tree and depth of the distinct attributes the internal
/// nodes at that depth split on: the split step's column uploads.
std::uint64_t distinct_winning_attributes(const std::vector<Tree>& trees) {
  std::uint64_t total = 0;
  for (const Tree& t : trees) {
    std::vector<std::int32_t> level{0};
    while (!level.empty()) {
      std::set<std::int32_t> attrs;
      std::vector<std::int32_t> next;
      for (std::int32_t id : level) {
        const TreeNode& n = t.node(id);
        if (n.is_leaf()) continue;
        attrs.insert(n.attr);
        next.push_back(n.left);
        next.push_back(n.right);
      }
      total += attrs.size();
      level = std::move(next);
    }
  }
  return total;
}

TEST(OutOfCore, MatchesInCoreTrainer) {
  for (unsigned seed : {71u, 72u}) {
    const auto ds = make_data(seed);
    GBDTParam p = small_param();
    p.use_rle = false;
    Device dev1(DeviceConfig::titan_x_pascal());
    const auto in_core = GpuGbdtTrainer(dev1, p).train(ds);
    Device dev2(DeviceConfig::titan_x_pascal());
    const auto ooc = OutOfCoreTrainer(dev2, p).train(ds);

    ASSERT_EQ(ooc.trees.size(), in_core.trees.size());
    int identical = 0;
    for (std::size_t t = 0; t < ooc.trees.size(); ++t) {
      identical += Tree::same_structure(in_core.trees[t], ooc.trees[t], 1e-6);
    }
    // Accumulation associations differ (streaming l2r vs blocked scans), so
    // exact gain ties may break differently; structural equality must hold
    // for essentially every tree with the fit as backstop.
    EXPECT_GE(identical, static_cast<int>(ooc.trees.size()) - 1) << seed;
    EXPECT_NEAR(rmse(in_core.train_scores, ds.labels()),
                rmse(ooc.train_scores, ds.labels()), 1e-6)
        << seed;
  }
}

TEST(OutOfCore, TrainsWithinTinyDeviceWhereInCoreOoms) {
  SyntheticSpec s;
  s.n_instances = 20000;
  s.n_attributes = 40;
  s.density = 1.0;
  s.seed = 73;
  const auto ds = generate(s);
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 2;
  p.use_rle = false;

  auto cfg = DeviceConfig::titan_x_pascal();
  cfg.global_mem_bytes = 3u << 20;  // 3 MiB device; lists are ~6.4 MiB
  {
    Device dev(cfg);
    EXPECT_THROW((void)GpuGbdtTrainer(dev, p).train(ds),
                 device::DeviceOutOfMemory);
  }
  Device dev(cfg);
  OutOfCoreTrainer ooc(dev, p, /*chunk_bytes=*/1 << 20);
  const auto r = ooc.train(ds);  // streams in ~1 MiB chunks
  EXPECT_EQ(r.trees.size(), 2u);
  EXPECT_GT(chunks_per_level(dev.timeline(), r.trees, p.depth), 4u);
  EXPECT_LT(r.peak_device_bytes, cfg.global_mem_bytes);
  EXPECT_GT(data::build_csc_host(ds).bytes(), cfg.global_mem_bytes);
}

TEST(OutOfCore, StreamedBytesGrowWithDepthAndTrees) {
  const auto ds = make_data(74);
  GBDTParam p1 = small_param();
  p1.n_trees = 1;
  p1.depth = 2;
  GBDTParam p2 = small_param();
  p2.n_trees = 4;
  p2.depth = 5;
  Device dev1(DeviceConfig::titan_x_pascal());
  Device dev2(DeviceConfig::titan_x_pascal());
  (void)OutOfCoreTrainer(dev1, p1).train(ds);
  (void)OutOfCoreTrainer(dev2, p2).train(ds);
  EXPECT_GT(streamed_bytes(dev2.timeline()),
            3 * streamed_bytes(dev1.timeline()));
}

TEST(OutOfCore, CompressedStreamingShipsFewerBytes) {
  // Highly repetitive values: RLE-compressed chunks ship the run arrays
  // instead of the full value stream (the paper's PCI-e argument).
  const auto ds = make_data(75, 8000, 10, 1.0, /*distinct=*/3);
  const auto p = small_param();
  Device dev1(DeviceConfig::titan_x_pascal());
  const auto raw = OutOfCoreTrainer(dev1, p, 1 << 20, false).train(ds);
  Device dev2(DeviceConfig::titan_x_pascal());
  const auto rle = OutOfCoreTrainer(dev2, p, 1 << 20, true).train(ds);
  EXPECT_LT(streamed_bytes(dev2.timeline()),
            streamed_bytes(dev1.timeline()) * 2 / 3);
  // Same forest either way: compression is lossless.
  ASSERT_EQ(raw.trees.size(), rle.trees.size());
  for (std::size_t t = 0; t < raw.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(raw.trees[t], rle.trees[t], 0.0)) << t;
  }
}

TEST(OutOfCore, IncompressibleDataSkipsCompression) {
  const auto ds = make_data(76, 2000, 8, 1.0, /*distinct=*/0);
  const auto p = small_param();
  Device dev1(DeviceConfig::titan_x_pascal());
  (void)OutOfCoreTrainer(dev1, p, 1 << 20, false).train(ds);
  Device dev2(DeviceConfig::titan_x_pascal());
  (void)OutOfCoreTrainer(dev2, p, 1 << 20, true).train(ds);
  // Continuous values never pass the 1.5x gate; identical traffic.
  EXPECT_EQ(streamed_bytes(dev1.timeline()), streamed_bytes(dev2.timeline()));
}

TEST(OutOfCore, AsyncPipelineMatchesSyncHatchBitwise) {
  // The double-buffered upload pipeline must produce the identical forest to
  // the GBDT_SYNC_STREAMS escape hatch: same enqueue order, serial schedule.
  ToggleGuard guard;
  const auto ds = make_data(81, 4000, 12, 0.9);
  const auto p = small_param();

  device::set_stream_async_enabled(true);
  Device dev_async(DeviceConfig::titan_x_pascal());
  const auto async_r =
      OutOfCoreTrainer(dev_async, p, 1 << 18).train(ds);

  device::set_stream_async_enabled(false);
  Device dev_sync(DeviceConfig::titan_x_pascal());
  const auto sync_r = OutOfCoreTrainer(dev_sync, p, 1 << 18).train(ds);

  ASSERT_EQ(async_r.trees.size(), sync_r.trees.size());
  for (std::size_t t = 0; t < async_r.trees.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(async_r.trees[t], sync_r.trees[t], 0.0))
        << t;
  }
  ASSERT_EQ(async_r.train_scores.size(), sync_r.train_scores.size());
  for (std::size_t i = 0; i < async_r.train_scores.size(); ++i) {
    ASSERT_EQ(async_r.train_scores[i], sync_r.train_scores[i]) << i;
  }
  EXPECT_EQ(streamed_bytes(dev_async.timeline()),
            streamed_bytes(dev_sync.timeline()));

  // Upload time hides under enumeration only when the streams are real.
  // The serial ratio is makespan-vs-sum rounding noise, not overlap.
  EXPECT_GT(dev_async.overlap_ratio(), 0.01);
  EXPECT_LT(dev_sync.overlap_ratio(), 1e-9);
  EXPECT_LT(async_r.modeled_seconds, sync_r.modeled_seconds);
}

TEST(OutOfCore, AsyncPipelineIsRaceClean) {
  // With the happens-before detector armed every upload/compute edge of the
  // double-buffer must be covered; a missing wait_event throws here.
  ToggleGuard guard;
  device::set_stream_async_enabled(true);
  analysis::set_race_detect_enabled(true);
  const auto ds = make_data(82, 3000, 10, 0.8, /*distinct=*/4);
  Device dev(DeviceConfig::titan_x_pascal());
  TrainReport r;
  EXPECT_NO_THROW(r = OutOfCoreTrainer(dev, small_param(), 1 << 18).train(ds));
  EXPECT_GT(r.trees.size(), 0u);
}

TEST(OutOfCore, SchedulePerturbationIsBitwiseStable) {
  // Deferred, seeded-random-but-legal drain orders must not change the data
  // the pipeline produces — the event edges fully determine it.
  ToggleGuard guard;
  device::set_stream_async_enabled(true);
  const auto ds = make_data(83, 2500, 10, 0.9);
  const auto p = small_param();

  Device dev_eager(DeviceConfig::titan_x_pascal());
  const auto eager = OutOfCoreTrainer(dev_eager, p, 1 << 18).train(ds);

  for (std::uint64_t seed : {1ull, 99ull}) {
    Device dev(DeviceConfig::titan_x_pascal());
    dev.set_schedule_fuzz(seed);
    const auto fuzzed = OutOfCoreTrainer(dev, p, 1 << 18).train(ds);
    dev.clear_schedule_fuzz();
    ASSERT_EQ(fuzzed.train_scores.size(), eager.train_scores.size());
    for (std::size_t i = 0; i < fuzzed.train_scores.size(); ++i) {
      ASSERT_EQ(fuzzed.train_scores[i], eager.train_scores[i])
          << "seed " << seed << " instance " << i;
    }
    ASSERT_EQ(fuzzed.trees.size(), eager.trees.size());
    for (std::size_t t = 0; t < fuzzed.trees.size(); ++t) {
      EXPECT_TRUE(Tree::same_structure(fuzzed.trees[t], eager.trees[t], 0.0))
          << "seed " << seed << " tree " << t;
    }
  }
}

TEST(OutOfCore, RejectsBadConfig) {
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  EXPECT_THROW(OutOfCoreTrainer(dev, p, 100), std::invalid_argument);
  p.depth = 0;
  EXPECT_THROW(OutOfCoreTrainer(dev, p), std::invalid_argument);
  OutOfCoreTrainer ok(dev, GBDTParam{});
  data::Dataset empty(3);
  EXPECT_THROW((void)ok.train(empty), std::invalid_argument);
}

TEST(OutOfCore, MissingValuesRouteByLearnedDefault) {
  // Same construction as the in-core missing-value test: missing instances
  // behave like the high group, so the learned default must send them left.
  data::Dataset ds(2);
  for (int i = 0; i < 100; ++i) {
    const std::vector<data::Entry> high{{0, 10.f},
                                        {1, static_cast<float>(i % 7)}};
    ds.add_instance(high, 1.f);
    const std::vector<data::Entry> low{{0, -10.f},
                                       {1, static_cast<float>(i % 5)}};
    ds.add_instance(low, -1.f);
    const std::vector<data::Entry> missing{{1, static_cast<float>(i % 3)}};
    ds.add_instance(missing, 1.f);
  }
  Device dev(DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 1;
  p.n_trees = 1;
  p.eta = 1.0;
  const auto r = OutOfCoreTrainer(dev, p).train(ds);
  const auto& root = r.trees[0].node(0);
  ASSERT_FALSE(root.is_leaf());
  EXPECT_EQ(root.attr, 0);
  EXPECT_TRUE(root.default_left);
}

TEST(OutOfCore, OneTransferPerChunkPerLevel) {
  // Dense 2000-entry columns in 64 KiB chunks (5461 entries): two columns
  // per chunk, four live chunks.  A raw chunk ships its packed (value, inst)
  // entries in one transfer, a compressed one its inst ids and one run
  // array.  Column offsets stay resident, so nothing else streams per chunk;
  // the split step adds only its column uploads.  The tree stays on the
  // device: per level one read of the decided records comes back, per tree
  // one read of the finished tree, and no table goes up.
  for (const bool compress : {false, true}) {
    const auto ds = make_data(91, 2000, 8, 1.0, compress ? 3 : 0);
    const std::uint64_t levels_before = counter("gbdt_levels_grown_total");
    Device dev(DeviceConfig::titan_x_pascal());
    const auto r =
        OutOfCoreTrainer(dev, small_param(), 1 << 16, compress).train(ds);
    const std::uint64_t levels =
        counter("gbdt_levels_grown_total") - levels_before;
    ASSERT_EQ(chunks_per_level(dev.timeline(), r.trees, small_param().depth),
              4u);
    const std::uint64_t per_chunk_level = levels * 4;
    EXPECT_EQ(transfers(dev, "stream_ooc_upload_entries"),
              compress ? 0 : per_chunk_level);
    EXPECT_EQ(transfers(dev, "stream_ooc_upload_inst"),
              compress ? per_chunk_level : 0);
    EXPECT_EQ(transfers(dev, "stream_ooc_upload_runs"),
              compress ? per_chunk_level : 0);
    std::set<std::string> labels;
    for (const auto& [label, rec] : dev.timeline().stream_transfers) {
      labels.insert(label);
    }
    const std::set<std::string> expected =
        compress ? std::set<std::string>{"stream_ooc_upload_column",
                                         "stream_ooc_upload_inst",
                                         "stream_ooc_upload_runs"}
                 : std::set<std::string>{"stream_ooc_upload_column",
                                         "stream_ooc_upload_entries"};
    EXPECT_EQ(labels, expected) << "compress=" << compress;
    // Every transfer, labelled and blocking: the streamed ones, a records
    // read per level and a tree read per tree, plus the run's column
    // offsets and labels up and its scores down.
    std::uint64_t streamed = 0;
    for (const auto& [label, rec] : dev.timeline().stream_transfers) {
      streamed += rec.count;
    }
    EXPECT_EQ(dev.timeline().transfers,
              streamed + levels + r.trees.size() + 3)
        << "compress=" << compress;
  }
}

TEST(OutOfCore, SplitStepUploadsEachWinningColumnOnce) {
  // Per level, the split step uploads each distinct winning attribute's
  // column once, however many nodes split on it.
  const auto ds = make_data(92, 3000, 6, 0.8);
  GBDTParam p = small_param();
  p.depth = 5;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = OutOfCoreTrainer(dev, p, 1 << 16).train(ds);
  const std::uint64_t uploads = transfers(dev, "stream_ooc_upload_column");
  EXPECT_EQ(uploads, distinct_winning_attributes(r.trees));
  // Six attributes over up to 16 splitting nodes a level: nodes share.
  EXPECT_LT(uploads, splits(r.trees));
}

TEST(OutOfCore, AllocatorCallsDoNotGrowWithTrees) {
  // Chunks, split columns and every per-level table land in the two chunk
  // slots or the arena, so streaming and the split step allocate nothing
  // per tree.  The only per-tree allocation is prim::reduce_sum's partials
  // for the root sums, which the in-core trainer pays the same way.
  const auto ds = make_data(93, 2000, 10, 0.8);
  auto allocs = [&](bool out_of_core, int n_trees) {
    GBDTParam p = small_param();
    p.n_trees = n_trees;
    p.use_rle = false;
    Device dev(DeviceConfig::titan_x_pascal());
    const std::uint64_t before = counter("gbdt_device_alloc_calls_total");
    if (out_of_core) {
      (void)OutOfCoreTrainer(dev, p, 1 << 16).train(ds);
    } else {
      (void)GpuGbdtTrainer(dev, p).train(ds);
    }
    return counter("gbdt_device_alloc_calls_total") - before;
  };
  const std::uint64_t ooc_growth = allocs(true, 8) - allocs(true, 2);
  EXPECT_EQ(ooc_growth, allocs(false, 8) - allocs(false, 2));
  EXPECT_EQ(ooc_growth, 6u);  // the six extra trees' root sums
}

TEST(OutOfCore, PeakIsResidentStateTreeAndOneWinnerTable) {
  // Dense 2000-entry columns in 64 KiB chunks (5461 entries): two columns
  // per chunk, four raw chunks.  Nothing goes up per level or per tree, so
  // the peak is the resident state, the two landing slots, the device tree
  // and the one table that holds each slot's running best and the current
  // chunk's per-(column, slot) winners in 40-byte records.  The table
  // doubles with the level width, so it ends at the widest level rounded
  // up to a power of two.
  const std::size_t rows = 2000;
  const auto ds = make_data(96, static_cast<std::int64_t>(rows), 8, 1.0);
  const GBDTParam p = small_param();
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = OutOfCoreTrainer(dev, p, 1 << 16, false).train(ds);
  ASSERT_GE(r.trees.size(), 2u);  // a later tree's root sum meets the table
  std::size_t widest = 1;
  for (const Tree& t : r.trees) {
    std::vector<std::int32_t> level{0};
    for (int d = 0; d < p.depth && !level.empty(); ++d) {
      widest = std::max(widest, level.size());
      std::vector<std::int32_t> next;
      for (const std::int32_t id : level) {
        const TreeNode& n = t.node(id);
        if (n.is_leaf()) continue;
        next.push_back(n.left);
        next.push_back(n.right);
      }
      level = std::move(next);
    }
  }
  const std::size_t column_offsets = 4 * 3 * sizeof(std::int64_t);
  const std::size_t landing_slots = 2 * 2 * rows * 8;  // (value, inst)
  // gh pairs, predictions, labels and the instance->node map.
  const std::size_t per_instance = rows * (16 + 4 + 4 + 4);
  const std::size_t root_partials = ((rows + 255) / 256) * 16;
  const std::size_t tree = ((std::size_t{1} << (p.depth + 1)) - 1) *
                           sizeof(TreeNode);
  const std::size_t winners = (2 + 1) * std::bit_ceil(widest) * 40;
  EXPECT_EQ(r.peak_device_bytes, column_offsets + landing_slots +
                                     per_instance + root_partials + tree +
                                     winners);
}

TEST(OutOfCore, FeatureBagSkipsChunksOutsideTheBag) {
  // One 3000-entry column per 64 KiB chunk (5461 entries), so a bag of 3 of
  // 12 attributes streams 3 of the 12 chunks a level.
  const auto ds = make_data(94, 3000, 12, 1.0);
  GBDTParam p = small_param();
  p.depth = 3;
  p.use_rle = false;
  GBDTParam bagged = p;
  bagged.feature_bag = 3;
  bagged.sampling_seed = 7;

  struct Run {
    TrainReport report;
    std::uint64_t levels = 0;
    std::uint64_t chunks = 0;  // per level
    std::uint64_t chunk_uploads = 0;
    std::uint64_t streamed_bytes = 0;
    std::uint64_t chunk_bytes = 0;  // streamed by the find step
  };
  auto run = [&](const GBDTParam& q) {
    Run out;
    const std::uint64_t levels_before = counter("gbdt_levels_grown_total");
    Device dev(DeviceConfig::titan_x_pascal());
    out.report = OutOfCoreTrainer(dev, q, 1 << 16, false).train(ds);
    out.levels = counter("gbdt_levels_grown_total") - levels_before;
    out.chunks = chunks_per_level(dev.timeline(), out.report.trees, q.depth);
    out.streamed_bytes = streamed_bytes(dev.timeline());
    const auto& t = dev.timeline().stream_transfers;
    out.chunk_uploads = t.at("stream_ooc_upload_entries").count;
    out.chunk_bytes =
        out.streamed_bytes - t.at("stream_ooc_upload_column").bytes;
    return out;
  };
  const Run full = run(p);
  const Run bag = run(bagged);
  ASSERT_EQ(full.chunks, 12u);
  EXPECT_EQ(full.chunk_uploads, full.levels * 12);
  EXPECT_EQ(bag.chunk_uploads, bag.levels * 3);
  // Find-step bytes per level fall exactly with the bag (equal columns).
  EXPECT_EQ(bag.chunk_bytes * full.levels * 12,
            full.chunk_bytes * bag.levels * 3);
  EXPECT_LT(bag.streamed_bytes, full.streamed_bytes / 2);

  // The sampled_ooc oracle leg's tolerance against the in-core sampled
  // trainer: trees equal within 1e-7, or the same fit within 1e-2 RMSE
  // where an exact gain tie broke differently.
  Device dev_in(DeviceConfig::titan_x_pascal());
  const auto in_core = GpuGbdtTrainer(dev_in, bagged).train(ds);
  ASSERT_EQ(bag.report.trees.size(), in_core.trees.size());
  bool identical = true;
  for (std::size_t t = 0; t < in_core.trees.size(); ++t) {
    identical = identical && Tree::same_structure(in_core.trees[t],
                                                  bag.report.trees[t], 1e-7);
  }
  if (!identical) {
    EXPECT_NEAR(rmse(in_core.train_scores, ds.labels()),
                rmse(bag.report.train_scores, ds.labels()), 1e-2);
  }
}

TEST(OutOfCoreDedupe, SharedWinningColumnsStayBitwiseAcrossSchedules) {
  // Depth 6 grows up to 32 nodes a level over 3 or 6 attributes, so most
  // split steps upload a column that many nodes share, through the same two
  // slots the chunks stream through (one 4000-entry column per 64 KiB
  // chunk).  Race-armed async, the sync hatch and two seeded
  // interleavings must train the identical forest, raw and compressed.
  ToggleGuard guard;
  analysis::set_race_detect_enabled(true);
  GBDTParam p;
  p.depth = 6;
  p.n_trees = 2;
  for (const std::int64_t d : {3, 6}) {
    for (const bool compress : {false, true}) {
      const auto ds = make_data(95, 4000, d, 1.0, compress ? 12 : 0);
      struct Run {
        TrainReport report;
        std::uint64_t streamed_bytes = 0;
        std::uint64_t chunks = 0;  // per level
      };
      auto train = [&](bool async, std::uint64_t fuzz_seed) {
        device::set_stream_async_enabled(async);
        Device dev(DeviceConfig::titan_x_pascal());
        if (fuzz_seed != 0) dev.set_schedule_fuzz(fuzz_seed);
        Run out;
        out.report = OutOfCoreTrainer(dev, p, 1 << 16, compress).train(ds);
        if (fuzz_seed != 0) dev.clear_schedule_fuzz();
        out.streamed_bytes = streamed_bytes(dev.timeline());
        out.chunks =
            chunks_per_level(dev.timeline(), out.report.trees, p.depth);
        return out;
      };
      const Run ref_run = train(true, 0);
      const TrainReport& ref = ref_run.report;
      ASSERT_EQ(ref_run.chunks, static_cast<std::uint64_t>(d));
      EXPECT_LT(2 * distinct_winning_attributes(ref.trees), splits(ref.trees))
          << "d=" << d;

      const std::vector<std::pair<bool, std::uint64_t>> schedules{
          {false, 0}, {true, 1}, {true, 99}};
      for (const auto& [async, seed] : schedules) {
        const Run other_run = train(async, seed);
        const TrainReport& other = other_run.report;
        const std::string where = "d=" + std::to_string(d) +
                                  " compress=" + std::to_string(compress) +
                                  " async=" + std::to_string(async) +
                                  " seed=" + std::to_string(seed);
        ASSERT_EQ(other.trees.size(), ref.trees.size()) << where;
        for (std::size_t t = 0; t < ref.trees.size(); ++t) {
          EXPECT_TRUE(Tree::same_structure(other.trees[t], ref.trees[t], 0.0))
              << where << " tree " << t;
        }
        ASSERT_EQ(other.train_scores, ref.train_scores) << where;
        EXPECT_EQ(other_run.streamed_bytes, ref_run.streamed_bytes) << where;
      }
    }
  }
}

}  // namespace
}  // namespace gbdt
