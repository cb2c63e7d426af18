// Tests for the observability subsystem (src/obs/): trace-span aggregation
// over real simulated-device work, the lock-free metrics registry under
// concurrent kernel-body writers, the JSON document layer, the schema of
// emitted run reports, and the gbdt_bench --compare regression gate.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/oracle.h"

namespace {

using namespace gbdt;
using obs::Json;

void burn_kernel(device::Device& dev, const char* label, std::int64_t n) {
  dev.launch(label, device::grid_for(n, 128), 128, [&](device::BlockCtx& b) {
    b.for_each_thread([&](std::int64_t) {});
    b.mem_coalesced(static_cast<std::uint64_t>(n));
  });
}

// ---- trace spans ----------------------------------------------------------

TEST(ObsTrace, AttributesKernelsToInnermostSpanAndAggregates) {
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  obs::ObsSession session;
  session.activate();
  const double before = dev.elapsed_seconds();
  {
    obs::ScopedSpan outer("outer");
    burn_kernel(dev, "outer_work", 1 << 14);
    {
      obs::ScopedSpan inner("inner");
      burn_kernel(dev, "inner_work", 1 << 15);
    }
    {
      obs::ScopedSpan inner("inner");  // same name: merges with the sibling
      burn_kernel(dev, "inner_work", 1 << 15);
    }
  }
  const double modeled = dev.elapsed_seconds() - before;
  session.deactivate();

  const obs::Span* outer = session.root().child("outer");
  ASSERT_NE(outer, nullptr);
  const obs::Span* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->children().size(), 1u);  // the two "inner" opens merged
  EXPECT_EQ(outer->stats().invocations, 1u);
  EXPECT_EQ(inner->stats().invocations, 2u);
  EXPECT_EQ(outer->stats().launches, 1u);
  EXPECT_EQ(inner->stats().launches, 2u);

  // Self seconds exclude children; totals include them; everything modeled
  // inside the spans accounts for the device's elapsed-time delta.
  EXPECT_GT(outer->stats().modeled_self_seconds(), 0.0);
  EXPECT_GT(inner->stats().modeled_self_seconds(), 0.0);
  EXPECT_NEAR(outer->modeled_total_seconds(),
              outer->stats().modeled_self_seconds() +
                  inner->stats().modeled_self_seconds(),
              1e-12);
  EXPECT_NEAR(outer->modeled_total_seconds(), modeled, 1e-12);

  // Per-kernel-label aggregation inside the span.
  ASSERT_EQ(inner->stats().kernels.size(), 1u);
  EXPECT_EQ(inner->stats().kernels[0].first, "inner_work");
  EXPECT_EQ(inner->stats().kernels[0].second.launches, 2u);
  EXPECT_GT(inner->stats().kernels[0].second.stats.thread_work, 0u);
}

TEST(ObsTrace, RecordsTransfersAndPeakDeviceMemory) {
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  obs::ObsSession session;
  session.activate();
  std::size_t bytes = 0;
  {
    obs::ScopedSpan span("ship");
    const std::vector<float> host(1 << 16, 1.0f);
    auto buf = dev.to_device<float>(host);
    bytes = buf.bytes();
  }
  session.deactivate();
  const obs::Span* ship = session.root().child("ship");
  ASSERT_NE(ship, nullptr);
  EXPECT_GE(ship->stats().transfer_bytes, bytes);
  EXPECT_GT(ship->stats().transfer_seconds, 0.0);
  EXPECT_EQ(ship->stats().transfers, 1u);
  EXPECT_EQ(session.root().transfers_total(), 1u);
  EXPECT_EQ(ship->to_json().find("transfers")->number_or(0.0), 1.0);
  EXPECT_GE(session.root().peak_device_bytes_total(), bytes);
}

TEST(ObsTrace, InactiveSessionRecordsNothing) {
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  obs::ObsSession session;  // never activated
  {
    obs::ScopedSpan span("ghost");
    burn_kernel(dev, "ghost_work", 1 << 12);
  }
  EXPECT_TRUE(session.root().children().empty());
  EXPECT_FALSE(obs::tracing_active());
}

TEST(ObsTrace, SecondActivationThrows) {
  obs::ObsSession a;
  obs::ObsSession b;
  a.activate();
  EXPECT_THROW(b.activate(), std::logic_error);
  a.deactivate();
  b.activate();  // fine once the first released the slot
  b.deactivate();
}

// ---- metrics registry -----------------------------------------------------

TEST(ObsMetrics, CountersSurviveConcurrentKernelWriters) {
  // Kernel bodies run on ThreadPool::run_chunks workers; every block
  // increments the same counter.  The sharded relaxed-atomic write path must
  // not lose updates.
  auto& reg = obs::Registry::global();
  obs::Counter& hits = reg.counter("test_obs_block_hits_total");
  obs::Gauge& weight = reg.gauge("test_obs_block_weight");
  obs::Histogram& sizes = reg.histogram("test_obs_block_sizes");
  const std::uint64_t before_hits = hits.value();
  const double before_weight = weight.value();
  const std::uint64_t before_count = sizes.count();

  device::Device dev(device::DeviceConfig::titan_x_pascal());
  constexpr std::int64_t kGrid = 512;
  for (int round = 0; round < 4; ++round) {
    dev.launch("test_metric_writers", kGrid, 64, [&](device::BlockCtx& b) {
      hits.inc();
      weight.add(0.5);
      sizes.observe(static_cast<double>(b.block_idx()));
      b.work(1);
    });
  }
  EXPECT_EQ(hits.value() - before_hits, 4u * kGrid);
  EXPECT_NEAR(weight.value() - before_weight, 4.0 * kGrid * 0.5, 1e-9);
  EXPECT_EQ(sizes.count() - before_count, 4u * kGrid);

  // Same name returns the same instance; labels distinguish.
  EXPECT_EQ(&reg.counter("test_obs_block_hits_total"), &hits);
  EXPECT_NE(&reg.counter("test_obs_block_hits_total", {{"k", "v"}}), &hits);
}

// Registration reallocates the registry's entry list, so lookups must not
// read an entry after its lock is released.  Three threads register fresh
// counters, gauges and histograms while looking up (and writing) metrics
// that already exist and reading the JSON view; under the sanitizer lanes a
// lookup that dereferenced a moved entry fails as a use-after-free.
TEST(ObsMetrics, ConcurrentRegistrationAndLookupAgree) {
  auto& reg = obs::Registry::global();
  obs::Counter& shared = reg.counter("test_obs_race_shared_total");
  const std::uint64_t before = shared.value();
  constexpr int kThreads = 3;
  constexpr int kPerThread = 200;
  std::vector<std::vector<obs::Counter*>> mine(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &mine, t] {
      const std::string prefix = "test_obs_race_t" + std::to_string(t) + "_";
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id = std::to_string(i);
        obs::Counter& c = reg.counter(prefix + "total_" + id);
        c.inc();
        mine[static_cast<std::size_t>(t)].push_back(&c);
        reg.gauge(prefix + "gauge_" + id).set(i);
        reg.histogram(prefix + "hist_" + id).observe(1e-3);
        reg.counter("test_obs_race_shared_total").inc();
        if (i % 50 == 0) (void)reg.to_json();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.value() - before,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    const std::string prefix = "test_obs_race_t" + std::to_string(t) + "_";
    for (int i = 0; i < kPerThread; ++i) {
      obs::Counter& c = reg.counter(prefix + "total_" + std::to_string(i));
      EXPECT_EQ(&c, mine[static_cast<std::size_t>(t)]
                        [static_cast<std::size_t>(i)]);
      EXPECT_EQ(c.value(), 1u);
    }
  }
}

TEST(ObsMetrics, RegistryReportsJson) {
  auto& reg = obs::Registry::global();
  reg.counter("test_obs_report_total").inc(7);
  const Json doc = reg.to_json();
  const Json* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* c = counters->find("test_obs_report_total");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->number_or(0.0), 7.0);
}

// ---- JSON layer -----------------------------------------------------------

TEST(ObsJson, DumpParseRoundtrip) {
  Json doc = Json::object();
  doc["string"] = "line\nbreak \"quoted\" \\slash";
  doc["int"] = 42;
  doc["neg"] = -3.5;
  doc["flag"] = true;
  doc["nil"] = Json();
  auto arr = Json::array();
  arr.push_back(1.0);
  arr.push_back("two");
  auto nested = Json::object();
  nested["deep"] = 1e-9;
  arr.push_back(std::move(nested));
  doc["arr"] = std::move(arr);

  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.find("string")->str(), "line\nbreak \"quoted\" \\slash");
  EXPECT_EQ(back.find("int")->number_or(0), 42.0);
  EXPECT_EQ(back.find("neg")->number_or(0), -3.5);
  EXPECT_TRUE(back.find("flag")->bool_or(false));
  EXPECT_TRUE(back.find("nil")->is_null());
  EXPECT_EQ(back.find("arr")->size(), 3u);
  EXPECT_EQ(back.find("arr")->items()[1].str(), "two");
  EXPECT_NEAR(back.find("arr")->items()[2].find("deep")->number_or(0), 1e-9,
              1e-18);
  // Insertion order survives the roundtrip (greppable, diffable reports).
  EXPECT_EQ(back.members().front().first, "string");
}

// ---- run report schema ----------------------------------------------------

TEST(ObsReport, WritesSchemaVersionedRunReport) {
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  obs::ObsSession session;
  session.activate();
  {
    obs::ScopedSpan span("phase_a");
    burn_kernel(dev, "work_a", 1 << 13);
  }
  session.deactivate();

  const std::string path = "/tmp/test_obs_run_report.json";
  ASSERT_TRUE(session.write_report(path));
  std::string err;
  const Json doc = obs::read_json_file(path, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  EXPECT_EQ(doc.find("schema")->str(), "gbdt-obs-run-v1");
  const Json* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  const Json* children = trace->find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->size(), 1u);
  const Json& phase = children->items()[0];
  EXPECT_EQ(phase.find("name")->str(), "phase_a");
  EXPECT_GT(phase.find("kernel_seconds")->number_or(0.0), 0.0);
  EXPECT_GE(phase.find("invocations")->number_or(0.0), 1.0);
  ASSERT_NE(doc.find("metrics"), nullptr);
  std::remove(path.c_str());
}

// ---- gbdt_bench --compare gate --------------------------------------------

#ifdef GBDT_BENCH_PATH

/// Runs gbdt_bench with `args`; its stdout goes to `out_path` when given.
int run_tool(const std::string& args, const std::string& out_path = "") {
  const std::string cmd = std::string(GBDT_BENCH_PATH) + " " + args + " > " +
                          (out_path.empty() ? "/dev/null" : out_path) +
                          " 2>&1";
  const int rc = std::system(cmd.c_str());
  return rc == -1 ? -1 : (WIFEXITED(rc) ? WEXITSTATUS(rc) : -1);
}

/// A one-case suite; `find_split` is that case's `find_split` span seconds
/// in its phases map (the other spans stay fixed and sum to 0.25).  With
/// `wall_clock` the case is marked as one whose modeled seconds follow
/// host wall-clock batching.
void write_suite(const std::string& path, double modeled,
                 double find_split = 0.75, int split_transfers = -1,
                 int split_blocks = -1, bool wall_clock = false) {
  Json c = Json::object();
  c["name"] = "ds1";
  if (wall_clock) c["modeled_follows_wall_clock"] = true;
  auto metrics = Json::object();
  metrics["modeled_seconds"] = modeled;
  c["metrics"] = std::move(metrics);
  auto phases = Json::object();
  phases["train"] = 0.125;
  phases["split_node"] = 0.0625;
  phases["find_split"] = find_split;
  phases["gradient_compute"] = 0.0625;
  c["phases"] = std::move(phases);
  if (split_transfers >= 0) {
    // A trace whose split_node span made `split_transfers` transfers.
    Json split = Json::object();
    split["name"] = "split_node";
    split["transfers"] = split_transfers;
    if (split_blocks >= 0) {
      // One kernel label with `split_blocks` blocks and twice as many
      // irregular transactions.
      Json k = Json::object();
      k["blocks"] = split_blocks;
      k["irregular_accesses"] = 2 * split_blocks;
      split["kernels"] = Json::object();
      split["kernels"]["partition_count"] = std::move(k);
    }
    Json train = Json::object();
    train["name"] = "train";
    train["transfers"] = 1;
    train["children"] = Json::array();
    train["children"].push_back(std::move(split));
    Json root = Json::object();
    root["name"] = "run";
    root["transfers"] = 0;
    root["children"] = Json::array();
    root["children"].push_back(std::move(train));
    c["trace"] = std::move(root);
  }
  auto cases = Json::array();
  cases.push_back(std::move(c));
  auto bench = Json::object();
  bench["schema"] = "gbdt-bench-v1";
  bench["cases"] = std::move(cases);
  Json doc = Json::object();
  doc["schema"] = "gbdt-bench-suite-v1";
  doc["benches"] = Json::object();
  doc["benches"]["t2"] = std::move(bench);
  ASSERT_TRUE(obs::write_json_file(path, doc));
}

TEST(ObsBenchCompare, ExitsNonzeroOnInjectedRegression) {
  const std::string now = "/tmp/test_obs_suite_now.json";
  const std::string old_same = "/tmp/test_obs_suite_old_same.json";
  const std::string old_fast = "/tmp/test_obs_suite_old_fast.json";
  write_suite(now, 1.0);
  write_suite(old_same, 1.0);
  // The "new" run is 2x slower, all of it in find_split: a regression.
  write_suite(old_fast, 0.5, /*find_split=*/0.25);

  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + now), 0);
  EXPECT_EQ(
      run_tool("--compare-only --json=" + now + " --compare=" + old_same), 0);
  const std::string out = "/tmp/test_obs_compare_out.txt";
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old_fast,
                     out),
            1);
  {
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // The regression names the span that moved, and only that span.
    EXPECT_NE(text.find("REGRESSED"), std::string::npos) << text;
    EXPECT_NE(text.find("span find_split"), std::string::npos) << text;
    EXPECT_EQ(text.find("span split_node"), std::string::npos) << text;
  }
  std::remove(out.c_str());
  // A generous threshold lets the same pair pass.
  EXPECT_EQ(run_tool("--compare-only --threshold=150 --json=" + now +
                     " --compare=" + old_fast),
            0);
  // Unreadable inputs are usage errors, not regressions.
  EXPECT_EQ(run_tool("--compare-only --json=/nonexistent.json --compare=" +
                     old_fast),
            2);
  std::remove(now.c_str());
  std::remove(old_same.c_str());
  std::remove(old_fast.c_str());
}

// Serving cases whose batches close on host time are reported, not gated:
// a moved marked case passes, the same move on an unmarked case fails.
TEST(ObsBenchCompare, PrintsWallClockBatchedCasesWithoutGating) {
  const std::string now = "/tmp/test_obs_suite_wall_now.json";
  const std::string old = "/tmp/test_obs_suite_wall_old.json";
  const std::string out = "/tmp/test_obs_compare_wall_out.txt";
  write_suite(now, 1.0, 0.75, -1, -1, /*wall_clock=*/true);
  write_suite(old, 0.5, 0.25, -1, -1, /*wall_clock=*/true);
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old,
                     out),
            0);
  {
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("UNGATED   t2/ds1"), std::string::npos) << text;
    EXPECT_EQ(text.find("REGRESSED"), std::string::npos) << text;
  }
  write_suite(now, 1.0);
  write_suite(old, 0.5, 0.25);
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old),
            1);
  std::remove(now.c_str());
  std::remove(old.c_str());
  std::remove(out.c_str());
}

// A case the old report has and a bench of the new one dropped is listed
// and counted, ungated; a bench the new report did not run lists nothing.
TEST(ObsBenchCompare, ListsCasesGoneFromTheNewReport) {
  const std::string now = "/tmp/test_obs_suite_gone_now.json";
  const std::string old = "/tmp/test_obs_suite_gone_old.json";
  const std::string out = "/tmp/test_obs_compare_gone_out.txt";
  write_suite(now, 1.0);
  write_suite(old, 1.0);
  std::string err;
  Json doc = obs::read_json_file(old, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  Json dropped = doc.find("benches")->find("t2")->find("cases")->items()[0];
  dropped["name"] = "ds_dropped";
  doc["benches"]["t2"]["cases"].push_back(dropped);
  Json not_run = *doc.find("benches")->find("t2");
  doc["benches"]["t_not_run"] = std::move(not_run);
  ASSERT_TRUE(obs::write_json_file(old, doc));
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old,
                     out),
            0);
  {
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("GONE      t2/ds_dropped"), std::string::npos) << text;
    EXPECT_EQ(text.find("GONE      t2/ds1"), std::string::npos) << text;
    EXPECT_EQ(text.find("t_not_run"), std::string::npos) << text;
    EXPECT_NE(text.find("1 gone"), std::string::npos) << text;
  }
  std::remove(now.c_str());
  std::remove(old.c_str());
  std::remove(out.c_str());
}

TEST(ObsBenchCompare, ListsSpansWhoseTransferCountsChanged) {
  const std::string now = "/tmp/test_obs_suite_xfer_now.json";
  const std::string old = "/tmp/test_obs_suite_xfer_old.json";
  const std::string out = "/tmp/test_obs_compare_xfer_out.txt";
  write_suite(now, 1.0, 0.75, /*split_transfers=*/240);
  write_suite(old, 1.0, 0.75, /*split_transfers=*/720);
  // Fewer transfers at the same modeled seconds is not a regression.
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old,
                     out),
            0);
  {
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("TRANSFERS t2/ds1"), std::string::npos) << text;
    // Each span counts its subtree: train = 1 + split_node.
    EXPECT_NE(text.find("transfers 720 -> 240"), std::string::npos) << text;
    EXPECT_NE(text.find("transfers 721 -> 241"), std::string::npos) << text;
  }
  // Reports without transfer counts (or unchanged ones) list nothing.
  write_suite(old, 1.0);
  EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old,
                     out),
            0);
  {
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.find("TRANSFERS"), std::string::npos) << text;
  }
  std::remove(now.c_str());
  std::remove(old.c_str());
  std::remove(out.c_str());
}

TEST(ObsBenchCompare, ListsSpansWhoseBlockAndIrregularCountsChanged) {
  const std::string now = "/tmp/test_obs_suite_blocks_now.json";
  const std::string old = "/tmp/test_obs_suite_blocks_old.json";
  const std::string out = "/tmp/test_obs_compare_blocks_out.txt";
  const auto compare_text = [&] {
    EXPECT_EQ(run_tool("--compare-only --json=" + now + " --compare=" + old,
                       out),
              0);
    std::ifstream in(out);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  write_suite(now, 1.0, 0.75, 240, /*split_blocks=*/1000);
  write_suite(old, 1.0, 0.75, 240, /*split_blocks=*/5000);
  {
    const std::string text = compare_text();
    EXPECT_NE(text.find("BLOCKS    t2/ds1"), std::string::npos) << text;
    EXPECT_NE(text.find("IRREGULAR t2/ds1"), std::string::npos) << text;
    // Each span counts its subtree: split_node and train (no kernels of
    // its own) both list the change.
    EXPECT_NE(text.find("span split_node"), std::string::npos) << text;
    EXPECT_NE(text.find("span train"), std::string::npos) << text;
    EXPECT_NE(text.find("blocks 5000 -> 1000"), std::string::npos) << text;
    EXPECT_NE(text.find("irregular 10000 -> 2000"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("TRANSFERS"), std::string::npos) << text;
  }
  // An older report without per-kernel counts lists no block changes.
  write_suite(old, 1.0, 0.75, 240);
  {
    const std::string text = compare_text();
    EXPECT_EQ(text.find("BLOCKS"), std::string::npos) << text;
    EXPECT_EQ(text.find("IRREGULAR"), std::string::npos) << text;
  }
  std::remove(now.c_str());
  std::remove(old.c_str());
  std::remove(out.c_str());
}

#endif  // GBDT_BENCH_PATH

// ---- workspace-arena allocation metric ------------------------------------

// gbdt_device_alloc_calls_total counts DeviceAllocator::acquire calls.  With
// the workspace arena pooling per-level scratch, a full training run costs
// the dataset/base buffers plus one acquire per (type, size class) high-water
// mark — ~O(1) per level, far below the one-acquire-per-scratch-buffer-
// per-level (~20 x levels) the trainers paid before the arena.
TEST(ObsMetrics, ArenaHoldsDeviceAllocCallsNearConstantPerLevel) {
  data::SyntheticSpec spec;
  spec.n_instances = 400;
  spec.n_attributes = 9;
  spec.density = 0.7;
  spec.distinct_values = 5;
  spec.seed = 18;
  const auto ds = data::generate(spec);

  auto& alloc_calls =
      obs::Registry::global().counter("gbdt_device_alloc_calls_total");

  GBDTParam p;
  p.depth = 5;
  p.n_trees = 2;
  const std::uint64_t before = alloc_calls.value();
  {
    device::Device dev(device::DeviceConfig::titan_x_pascal());
    (void)GpuGbdtTrainer(dev, p).train(ds);
  }
  const std::uint64_t run_calls = alloc_calls.value() - before;
  const auto levels =
      static_cast<std::uint64_t>(p.depth) * static_cast<std::uint64_t>(p.n_trees);
  EXPECT_LT(run_calls, 8 * levels)
      << "device allocations per level regressed; arena pooling broken?";
}

// gbdt_trees_trained_total / gbdt_levels_grown_total mean the same on every
// trainer path: one per tree and one per level entered (a level whose nodes
// all become leaves counts; the multi-GPU trainers count logical trees, not
// shards).
TEST(ObsMetrics, TreeAndLevelCountersAgreeAcrossTrainerPaths) {
  data::SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 6;
  spec.density = 0.8;
  spec.distinct_values = 12;
  spec.seed = 23;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  p.gamma = 0.5;  // lets some trees stop before the depth limit

  auto& trees_total =
      obs::Registry::global().counter("gbdt_trees_trained_total");
  auto& levels_total =
      obs::Registry::global().counter("gbdt_levels_grown_total");
  // Levels the driver enters for a finished tree: every split level, plus
  // the level where nothing split when the tree stopped early.
  const auto levels_of = [&](const std::vector<Tree>& trees) {
    std::uint64_t n = 0;
    for (const Tree& t : trees) {
      n += static_cast<std::uint64_t>(t.depth() < p.depth ? t.depth() + 1
                                                          : p.depth);
    }
    return n;
  };
  const auto check = [&](const char* path, const auto& train) {
    const std::uint64_t trees_before = trees_total.value();
    const std::uint64_t levels_before = levels_total.value();
    const std::vector<Tree> trees = train();
    ASSERT_EQ(trees.size(), static_cast<std::size_t>(p.n_trees)) << path;
    EXPECT_EQ(trees_total.value() - trees_before, trees.size()) << path;
    EXPECT_EQ(levels_total.value() - levels_before, levels_of(trees)) << path;
  };

  const auto cfg = device::DeviceConfig::titan_x_pascal();
  check("exact", [&] {
    device::Device dev(cfg);
    return GpuGbdtTrainer(dev, p).train(ds).trees;
  });
  check("rle", [&] {
    device::Device dev(cfg);
    GBDTParam rle = p;
    rle.force_rle = true;
    return GpuGbdtTrainer(dev, rle).train(ds).trees;
  });
  check("hist", [&] {
    device::Device dev(cfg);
    GBDTParam hist = p;
    hist.use_hist_trainer = true;
    return GpuGbdtTrainer(dev, hist).train(ds).trees;
  });
  check("out_of_core", [&] {
    device::Device dev(cfg);
    return OutOfCoreTrainer(dev, p).train(ds).trees;
  });
  check("mgpu_exact", [&] {
    return multigpu::MultiGpuTrainer(cfg, 2, p).train(ds).trees;
  });
  check("mgpu_hist", [&] {
    GBDTParam hist = p;
    hist.use_hist_trainer = true;
    return multigpu::MultiGpuTrainer(cfg, 2, hist).train(ds).trees;
  });
}

// The reports and the span tree are one accounting: each trainer's span
// subtree holds exactly the device's kernel + transfer seconds of the call,
// the in-core reports' modeled seconds are that same number, and the
// out-of-core device's overlap ratio is derived from it.  Multi-GPU: the
// merge and node-sync spans carry exactly the report's comm bytes and
// messages, for every collective, shard count and method.
TEST(ObsTrace, TrainerSpanTreeReconcilesWithReportsAndDeviceClock) {
  data::SyntheticSpec spec;
  spec.n_instances = 2000;
  spec.n_attributes = 16;
  spec.density = 0.9;
  spec.distinct_values = 6;
  spec.seed = 31;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  const auto cfg = device::DeviceConfig::titan_x_pascal();

  // Trains on a fresh device under its own session, checks that the
  // `span_name` subtree holds exactly the device's kernel + transfer
  // seconds, and returns {that total, the report}.
  const auto traced = [&](const char* path, const char* span_name,
                          const auto& train) {
    device::Device dev(cfg);
    obs::ObsSession session;
    session.activate();
    const auto report = train(dev);
    session.deactivate();
    const double busy = dev.timeline().total_seconds();
    const obs::Span* span = session.root().child(span_name);
    const double total = span == nullptr ? 0.0 : span->modeled_total_seconds();
    EXPECT_GT(busy, 0.0) << path;
    EXPECT_NEAR(total, busy, 1e-9 * busy) << path;
    return std::pair{total, report};
  };
  const auto in_core = [&](const char* path, const auto& train) {
    const auto [total, report] = traced(path, "train", train);
    EXPECT_NEAR(report.modeled_seconds, total, 1e-9 * total) << path;
  };

  in_core("exact_sparse", [&](device::Device& dev) {
    return GpuGbdtTrainer(dev, p).train(ds);
  });
  in_core("rle_forced", [&](device::Device& dev) {
    GBDTParam rle = p;
    rle.force_rle = true;
    auto r = GpuGbdtTrainer(dev, rle).train(ds);
    EXPECT_TRUE(r.used_rle);
    return r;
  });
  in_core("hist", [&](device::Device& dev) {
    GBDTParam hist = p;
    hist.use_hist_trainer = true;
    return GpuGbdtTrainer(dev, hist).train(ds);
  });

  // Out of core: several 64 KiB chunks, so uploads overlap enumeration.
  double overlap = 0.0;
  const auto [total, report] =
      traced("out_of_core", "ooc_train", [&](device::Device& dev) {
        auto r = OutOfCoreTrainer(dev, p, std::size_t{1} << 16).train(ds);
        overlap = dev.overlap_ratio();
        return r;
      });
  EXPECT_NEAR(overlap, 1.0 - report.modeled_seconds / total, 1e-9);
  EXPECT_GT(overlap, 0.0);

  // Multi-GPU: every comm leg runs under an allreduce_merge or node_sync
  // span, and those spans run no other transfer.
  GBDTParam hist = p;
  hist.use_hist_trainer = true;
  for (const GBDTParam* param : {&p, &hist}) {
    // The ring everywhere, the tree wherever it prices lower, and PCI-e.
    for (const auto& link :
         {gbdt::testing::kBandwidthOnlyLink,
          gbdt::testing::kLatencyBoundLink,
          multigpu::Interconnect::pcie3()}) {
      for (const int k : {2, 3, 4}) {
        const std::string where =
            std::string(param->use_hist_trainer ? "hist" : "exact") + " " +
            std::to_string(link.bandwidth_gbps) + " GB/s " +
            std::to_string(link.latency_us) + " us K=" + std::to_string(k);
        obs::ObsSession session;
        session.activate();
        const auto r =
            multigpu::MultiGpuTrainer(cfg, k, *param, link).train(ds);
        session.deactivate();
        std::uint64_t bytes = 0;
        std::uint64_t transfers = 0;
        const auto add = [&](const auto& self, const obs::Span& s) -> void {
          if (s.name() == "allreduce_merge" || s.name() == "node_sync") {
            bytes += s.stats().transfer_bytes;
            transfers += s.stats().transfers;
          }
          for (const auto& c : s.children()) self(self, *c);
        };
        add(add, session.root());
        EXPECT_GT(r.comm.messages, 0u) << where;
        EXPECT_EQ(bytes, r.comm.bytes) << where;
        EXPECT_EQ(transfers, r.comm.messages) << where;
      }
    }
  }
}

// ---- split-step launch and transfer counts ---------------------------------

/// Launches of kernel `label` in `span`'s subtree.
std::uint64_t launches_of(const obs::Span& span, const std::string& label) {
  std::uint64_t n = 0;
  for (const auto& [name, agg] : span.stats().kernels) {
    if (name == label) n += agg.launches;
  }
  for (const auto& c : span.children()) n += launches_of(*c, label);
  return n;
}

// The node-split step of the exact trainers: the last level's children are
// leaves, so only n_trees x (depth - 1) levels partition; the split step
// reads the device-decided tables, so it makes no PCI-e transfer (the one
// per tree is find_split's tree read-back); and the partition's replay pass
// moves the lists itself, so no separate scatter kernel runs.
TEST(ObsTrace, SplitStepPartitionsAllButTheLastLevelWithoutTransfers) {
  data::SyntheticSpec spec;
  spec.n_instances = 1500;
  spec.n_attributes = 8;
  spec.density = 0.9;
  spec.seed = 37;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  const auto trees = static_cast<std::uint64_t>(p.n_trees);
  const auto partitioned =
      static_cast<std::uint64_t>(p.n_trees * (p.depth - 1));
  const auto cfg = device::DeviceConfig::titan_x_pascal();

  // Trains under a fresh session; every tree must reach the depth limit, so
  // every level splits.
  const auto traced = [&](const char* path, obs::ObsSession& session,
                          const auto& train) {
    session.activate();
    const std::vector<Tree> trees = train();
    session.deactivate();
    ASSERT_EQ(trees.size(), static_cast<std::size_t>(p.n_trees)) << path;
    for (const Tree& t : trees) EXPECT_EQ(t.depth(), p.depth) << path;
    const obs::Span& root = session.root();
    EXPECT_EQ(launches_of(root, "apply_scatter"), 0u) << path;
    EXPECT_EQ(launches_of(root, "rle_scatter_inst"), 0u) << path;
  };

  for (const bool rle : {false, true}) {
    const char* path = rle ? "rle_forced" : "exact_sparse";
    obs::ObsSession session;
    traced(path, session, [&] {
      device::Device dev(cfg);
      GBDTParam q = p;
      q.force_rle = rle;
      const auto report = GpuGbdtTrainer(dev, q).train(ds);
      EXPECT_EQ(report.used_rle, rle) << path;
      return report.trees;
    });
    const obs::Span* train = session.root().child("train");
    ASSERT_NE(train, nullptr) << path;
    const obs::Span* split = train->child("split_node");
    ASSERT_NE(split, nullptr) << path;
    EXPECT_EQ(launches_of(*split, "partition_count"), partitioned) << path;
    EXPECT_EQ(split->transfers_total(), 0u) << path;
    const obs::Span* find = train->child("find_split");
    ASSERT_NE(find, nullptr) << path;
    EXPECT_EQ(find->transfers_total(), trees) << path;
  }

  // Sharded exact: every shard marks sides and partitions its own lists;
  // node_sync (peer legs, owner table) sits between the two halves.
  constexpr int kShards = 2;
  obs::ObsSession session;
  traced("mgpu_exact", session, [&] {
    return multigpu::MultiGpuTrainer(cfg, kShards, p).train(ds).trees;
  });
  const obs::Span* train = session.root().child("mgpu_train");
  ASSERT_NE(train, nullptr);
  const obs::Span* mark = train->child("mark_sides");
  const obs::Span* partition = train->child("partition");
  ASSERT_NE(mark, nullptr);
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(launches_of(*partition, "partition_count"),
            kShards * partitioned);
  EXPECT_EQ(mark->transfers_total() + partition->transfers_total(), 0u);
  const obs::Span* find = train->child("find_split");
  ASSERT_NE(find, nullptr);
  EXPECT_EQ(find->transfers_total(), trees);
}

// Every device array is written once where it can be.  The exact trainers
// read the root lists in place, with no per-tree copy.  Directly-Split-RLE
// writes each candidate with its keep flag (no zero fill, no flag pass) and
// scans the run starts in place.  The histogram trainer keys its offset grid
// and cells only when a level outgrows them: at most `depth` times per
// training and device, not once per level of every tree.
TEST(ObsTrace, TrainersWriteEachDeviceArrayOnce) {
  data::SyntheticSpec spec;
  spec.n_instances = 1500;
  spec.n_attributes = 8;
  spec.density = 0.9;
  spec.distinct_values = 8;
  spec.seed = 43;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  const auto depth = static_cast<std::uint64_t>(p.depth);
  const auto cfg = device::DeviceConfig::titan_x_pascal();

  for (const bool rle : {false, true}) {
    const char* path = rle ? "rle_forced" : "exact_sparse";
    obs::ObsSession session;
    session.activate();
    device::Device dev(cfg);
    GBDTParam q = p;
    q.force_rle = rle;
    const auto report = GpuGbdtTrainer(dev, q).train(ds);
    session.deactivate();
    ASSERT_EQ(report.used_rle, rle) << path;
    EXPECT_EQ(launches_of(session.root(), "tree_reset_copy"), 0u) << path;
    if (!rle) continue;
    const obs::Span* train = session.root().child("train");
    ASSERT_NE(train, nullptr);
    const obs::Span* split = train->child("split_node");
    ASSERT_NE(split, nullptr);
    const obs::Span* direct = split->child("rle_direct_split");
    ASSERT_NE(direct, nullptr);
    EXPECT_GT(launches_of(*direct, "rle_emit_candidates"), 0u);
    for (const char* label :
         {"fill", "rle_flag_nonzero", "rle_new_starts_copy"}) {
      EXPECT_EQ(launches_of(*direct, label), 0u) << label;
    }
  }

  // Histogram training on one device and on two row shards, each shard
  // keying its own grid.
  GBDTParam hist = p;
  hist.use_hist_trainer = true;
  const auto expect_grid_builds = [&](const char* path, const char* root,
                                      std::uint64_t devices,
                                      const auto& train) {
    obs::ObsSession session;
    session.activate();
    const std::vector<Tree> trees = train();
    session.deactivate();
    ASSERT_EQ(trees.size(), static_cast<std::size_t>(p.n_trees)) << path;
    const obs::Span* span = session.root().child(root);
    ASSERT_NE(span, nullptr) << path;
    const std::uint64_t offsets = launches_of(*span, "hist_offsets");
    EXPECT_GT(offsets, 0u) << path;
    EXPECT_LE(offsets, devices * depth) << path;
    EXPECT_EQ(launches_of(*span, "set_keys"), offsets) << path;
  };
  expect_grid_builds("hist", "train", 1, [&] {
    device::Device dev(cfg);
    return GpuGbdtTrainer(dev, hist).train(ds).trees;
  });
  expect_grid_builds("mgpu_hist", "mgpu_train", 2, [&] {
    return multigpu::MultiGpuTrainer(cfg, 2, hist).train(ds).trees;
  });
}

/// Counters of kernel `label` summed over `span`'s subtree.
device::KernelStats stats_of(const obs::Span& span, const std::string& label) {
  device::KernelStats total;
  for (const auto& [name, agg] : span.stats().kernels) {
    if (name == label) total += agg.stats;
  }
  for (const auto& c : span.children()) total += stats_of(*c, label);
  return total;
}

// Find-split pays for its elements, not for its segment count or its array
// count: the (g, h) gather is one random transaction per gathered element
// (plus at most one scattered total store per segment), and every SetKey
// grid (set_keys and the gain argmax walk) launches at most
// ceil(N / 256) + 1 blocks per level for its N elements, or runs on RLE.
TEST(ObsTrace, FindSplitGathersOncePerElementAndSizesGridsByElements) {
  data::SyntheticSpec spec;
  spec.n_instances = 2000;
  spec.n_attributes = 20;
  spec.density = 0.5;
  spec.distinct_values = 8;  // few runs per segment on the RLE path
  spec.seed = 41;
  const auto ds = data::generate(spec);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 2;
  // An upper bound on the segments all levels scan: every node of every
  // tree above the depth limit, times the attributes.
  const auto segments = static_cast<std::uint64_t>(
      spec.n_attributes * p.n_trees * ((1 << p.depth) - 1));

  std::vector<Tree> sparse_trees;
  std::uint64_t gathered = 0;  // elements gathered, summed over levels
  for (const bool rle : {false, true}) {
    const char* path = rle ? "rle_forced" : "exact_sparse";
    obs::ObsSession session;
    session.activate();
    device::Device dev(device::DeviceConfig::titan_x_pascal());
    GBDTParam q = p;
    q.force_rle = rle;
    const auto report = GpuGbdtTrainer(dev, q).train(ds);
    session.deactivate();
    ASSERT_EQ(report.used_rle, rle) << path;
    const obs::Span* train = session.root().child("train");
    ASSERT_NE(train, nullptr) << path;
    const obs::Span* find = train->child("find_split");
    ASSERT_NE(find, nullptr) << path;
    const obs::Span* set_key = find->child("set_key");
    const obs::Span* prefix = find->child("gain_prefix_sum");
    const obs::Span* gains = find->child("compute_gains");
    ASSERT_TRUE(set_key != nullptr && prefix != nullptr && gains != nullptr)
        << path;

    // set_keys writes one key per element (per run on RLE), so its work
    // summed over levels is the levels' total N.
    const device::KernelStats keys = stats_of(*set_key, "set_keys");
    const std::uint64_t levels = launches_of(*set_key, "set_keys");
    ASSERT_GT(levels, 0u) << path;
    if (!rle) {
      gathered = keys.thread_work;
      sparse_trees = report.trees;
    } else {
      // Same forest, so the same elements per level; RLE gathers each run's
      // elements.
      ASSERT_EQ(report.trees.size(), sparse_trees.size());
      for (std::size_t t = 0; t < sparse_trees.size(); ++t) {
        ASSERT_TRUE(Tree::same_structure(report.trees[t], sparse_trees[t],
                                         0.0))
            << "tree " << t;
      }
      EXPECT_LT(keys.thread_work, gathered) << "runs compress the elements";
    }
    EXPECT_LE(prefix->kernel_stats_total().irregular_accesses,
              gathered + segments)
        << path;
    // Sum over levels of ceil(N / 256) + 1 <= N_total / 256 + 2 * levels.
    const auto grid_bound = [&](std::uint64_t blocks) {
      return blocks * 256 <= keys.thread_work + 2 * 256 * levels;
    };
    EXPECT_TRUE(grid_bound(keys.blocks))
        << path << ": set_keys " << keys.blocks << " blocks for "
        << keys.thread_work << " keys over " << levels << " levels";
    const device::KernelStats walk = gains->kernel_stats_total();
    EXPECT_TRUE(grid_bound(walk.blocks))
        << path << ": gain argmax " << walk.blocks << " blocks";
  }
}

}  // namespace
