// Tests for the modeled allreduce: each call runs the ring or the tree,
// whichever its leg plan prices lower, and the result is bitwise the host
// fold (shard 0 first, then the other shards in ascending order) for every
// combine the trainer uses, whichever schedule ran.  Also: chunking on
// adversarial sizes, byte and message accounting, the priced crossover on
// the trainer's payloads, and a race-detector-armed clean run over the comm
// streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/hb_race.h"
#include "core/trainer_detail.h"
#include "device/device_context.h"
#include "multigpu/allreduce.h"
#include "primitives/histogram.h"
#include "testing/oracle.h"

namespace gbdt::multigpu {
namespace {

using device::DeviceConfig;
using device::kDefaultStream;
using detail::Schedule;
using gbdt::detail::BestSplit;
using gbdt::detail::better_split;
using gbdt::testing::kBandwidthOnlyLink;
using gbdt::testing::kLatencyBoundLink;

// K simulated devices, each with a dedicated comm stream.  `with_ready`
// records a default-stream event per shard so the legs exercise the
// ready-event wait edge.
struct Net {
  std::vector<std::unique_ptr<device::Device>> devs;
  std::vector<ShardLink> links;
};

Net make_net(int n_shards, bool with_ready = false) {
  Net net;
  for (int k = 0; k < n_shards; ++k) {
    auto dev = std::make_unique<device::Device>(DeviceConfig::titan_x_pascal());
    ShardLink link;
    link.dev = dev.get();
    link.comm_stream = dev->stream();
    if (with_ready) link.ready_event = dev->record_event(kDefaultStream);
    net.links.push_back(link);
    net.devs.push_back(std::move(dev));
  }
  return net;
}

// The links every sweep runs on: the ring everywhere, the tree wherever it
// prices lower on legs of latency alone, and the two presets.
std::vector<Interconnect> all_links() {
  return {kBandwidthOnlyLink, kLatencyBoundLink, Interconnect::pcie3(),
          Interconnect::nvlink()};
}

// Deterministic, shard-distinct payloads.
std::vector<std::vector<std::int64_t>> make_payloads(int n_shards,
                                                     std::size_t n) {
  std::vector<std::vector<std::int64_t>> out(
      static_cast<std::size_t>(n_shards));
  for (int k = 0; k < n_shards; ++k) {
    auto& p = out[static_cast<std::size_t>(k)];
    p.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::int64_t>((k + 1) * 1000003) ^
             static_cast<std::int64_t>(i * 37 + 11);
    }
  }
  return out;
}

const auto kSum = [](std::int64_t a, std::int64_t b) { return a + b; };

// The all-to-one fold: shard 0 first, then the other shards in ascending
// order.  The reference either schedule must reproduce bit for bit.
template <typename T, typename Combine>
std::vector<T> host_fold(const std::vector<std::vector<T>>& base,
                         Combine combine) {
  std::vector<T> acc = base[0];
  for (std::size_t k = 1; k < base.size(); ++k) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = combine(acc[i], base[k][i]);
    }
  }
  return acc;
}

// One collective on fresh copies of `base`: the report, the result every
// shard holds, and which schedules the shards' comm labels show.
template <typename T>
struct RunOut {
  AllreduceReport rep;
  std::vector<T> result;
  bool ring = false;
  bool tree = false;
};

template <typename T, typename Combine, typename Eq = std::equal_to<>>
RunOut<T> run(const Interconnect& link,
              const std::vector<std::vector<T>>& base, Combine combine,
              Eq eq = {}) {
  const int n_shards = static_cast<int>(base.size());
  Net net = make_net(n_shards);
  auto storage = base;
  std::vector<std::span<T>> payloads(storage.begin(), storage.end());
  RunOut<T> out;
  out.rep = allreduce<T>("comm_test", link, net.links, payloads, combine);
  out.result = storage[0];
  for (const auto& s : storage) {
    EXPECT_TRUE(std::equal(s.begin(), s.end(), out.result.begin(), eq));
  }
  for (const auto& d : net.devs) {
    for (const auto& [label, rec] : d->timeline().stream_transfers) {
      out.ring |= label.starts_with("comm_test_ring_");
      out.tree |= label.starts_with("comm_test_tree_");
    }
  }
  return out;
}

TEST(Allreduce, SingleShardIsNoOp) {
  const auto out = run<std::int64_t>(Interconnect::pcie3(), {{1, 2, 3}}, kSum);
  EXPECT_EQ(out.rep.bytes, 0u);
  EXPECT_EQ(out.rep.messages, 0u);
  EXPECT_EQ(out.rep.seconds, 0.0);
  EXPECT_EQ(out.result, (std::vector<std::int64_t>{1, 2, 3}));
}

// The trainer's bitwise-forest guarantee requires the result not to depend
// on the schedule.  Sweep adversarial K x n shapes, including payloads
// smaller than K (empty ring chunks) and non-divisible chunking, on links
// that drive the choice both ways; the ring and the tree must each be
// picked somewhere, and each pick must be what the plans price.
TEST(Allreduce, AlgorithmsFoldBitwiseIdentical) {
  int rings = 0;
  int trees = 0;
  for (int K : {2, 3, 4, 5, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                          std::size_t{64}, std::size_t{1000}}) {
      const auto base = make_payloads(K, n);
      const auto expect = host_fold(base, kSum);
      for (const Interconnect& link : all_links()) {
        const std::string where = "K=" + std::to_string(K) +
                                  " n=" + std::to_string(n) +
                                  " lat=" + std::to_string(link.latency_us);
        const auto out = run(link, base, kSum);
        EXPECT_EQ(out.result, expect) << where;
        EXPECT_NE(out.ring, out.tree) << where;
        const bool tree =
            detail::pick_schedule(n, K, sizeof(std::int64_t), link) ==
            Schedule::kTree;
        EXPECT_EQ(out.tree, tree) << where;
        rings += out.ring ? 1 : 0;
        trees += out.tree ? 1 : 0;
      }
    }
  }
  EXPECT_GT(rings, 0);
  EXPECT_GT(trees, 0);
}

// double max is the histogram method's |g|/|h| combine.
TEST(Allreduce, DoubleMaxCombineBitwiseIdentical) {
  const auto max2 = [](double a, double b) { return std::max(a, b); };
  for (int K : {2, 4, 8}) {
    for (std::size_t n : {std::size_t{2}, std::size_t{9}}) {
      std::vector<std::vector<double>> base(static_cast<std::size_t>(K));
      for (int k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          base[static_cast<std::size_t>(k)].push_back(
              0.1 * static_cast<double>((k * 5 + 3) % K + 1) +
              1e-9 * static_cast<double>(i));
        }
      }
      const auto expect = host_fold(base, max2);
      for (const Interconnect& link :
           {kBandwidthOnlyLink, kLatencyBoundLink}) {
        EXPECT_EQ(run(link, base, max2).result, expect)
            << "K=" << K << " n=" << n;
      }
    }
  }
}

// The candidate merge's winner records (equal gains across shards, ties to
// the lower attribute, invalid slots) and the histogram merge's int64 cell
// sums: each bitwise the host fold on the ring and on the tree.
TEST(Allreduce, TrainerCombinesMatchTheHostFold) {
  const auto key = [](const BestSplit& b) {
    return std::tuple(b.valid, b.gain, b.attr, b.split_value, b.default_left,
                      b.owner, b.seg, b.pos, b.left.count, b.right.count);
  };
  const auto same = [&](const BestSplit& a, const BestSplit& b) {
    return key(a) == key(b);
  };
  for (int K : {4, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{13}}) {
      std::vector<std::vector<BestSplit>> cand(static_cast<std::size_t>(K));
      std::vector<std::vector<hist::QGH>> cells(static_cast<std::size_t>(K));
      for (int k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          BestSplit b;
          b.valid = (i + static_cast<std::size_t>(k)) % 3 != 0;
          b.gain = 1.0 + static_cast<double>(i % 2);  // ties across shards
          b.attr = static_cast<std::int32_t>(i * 16 + ((k * 3) % K) * 2 + 1);
          b.split_value = static_cast<float>(k) + 0.5f;
          b.owner = k;
          b.seg = static_cast<std::int64_t>(i) * 100 + k;
          b.pos = k;
          b.left.count = k + 1;
          b.right.count = K - k;
          cand[static_cast<std::size_t>(k)].push_back(b);
          const auto v = static_cast<std::int64_t>(i + 1) * (k + 1);
          cells[static_cast<std::size_t>(k)].push_back(
              hist::QGH{v * 1'000'000'007LL, -v, v});
        }
      }
      const auto cand_expect = host_fold(cand, better_split);
      const auto cells_expect = host_fold(cells, std::plus<hist::QGH>());
      for (const Interconnect& link :
           {kBandwidthOnlyLink, kLatencyBoundLink}) {
        const std::string where = "K=" + std::to_string(K) +
                                  " n=" + std::to_string(n) +
                                  " lat=" + std::to_string(link.latency_us);
        const auto got = run(link, cand, better_split, same);
        EXPECT_TRUE(std::equal(got.result.begin(), got.result.end(),
                               cand_expect.begin(), same))
            << where;
        EXPECT_EQ(run(link, cells, std::plus<hist::QGH>()).result,
                  cells_expect)
            << where;
      }
    }
  }
}

TEST(Allreduce, EmptyPayloadMovesNothing) {
  const auto base = make_payloads(4, 0);
  for (const Interconnect& link : all_links()) {
    const auto out = run(link, base, kSum);
    EXPECT_EQ(out.rep.bytes, 0u) << link.latency_us;
    EXPECT_EQ(out.rep.messages, 0u) << link.latency_us;
    EXPECT_EQ(out.rep.seconds, 0.0) << link.latency_us;
  }
}

TEST(Allreduce, ChunkRangesPartitionAdversarialSizes) {
  // n=7, K=4: chunks {0,1} {1,3} {3,5} {5,7} — cover, disjoint, non-uniform.
  std::size_t cursor = 0;
  for (int c = 0; c < 4; ++c) {
    const auto r = detail::chunk_range(7, 4, c);
    EXPECT_EQ(r.lo, cursor);
    EXPECT_GE(r.hi, r.lo);
    cursor = r.hi;
  }
  EXPECT_EQ(cursor, 7u);
  // n=3, K=8: some chunks are empty, union still covers.
  cursor = 0;
  std::size_t non_empty = 0;
  for (int c = 0; c < 8; ++c) {
    const auto r = detail::chunk_range(3, 8, c);
    EXPECT_EQ(r.lo, cursor);
    cursor = r.hi;
    non_empty += (r.hi > r.lo) ? 1 : 0;
  }
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(non_empty, 3u);
}

TEST(Allreduce, TreeRounds) {
  EXPECT_EQ(detail::tree_rounds(1), 0);
  EXPECT_EQ(detail::tree_rounds(2), 1);
  EXPECT_EQ(detail::tree_rounds(3), 2);
  EXPECT_EQ(detail::tree_rounds(4), 2);
  EXPECT_EQ(detail::tree_rounds(5), 3);
  EXPECT_EQ(detail::tree_rounds(8), 3);
}

// Both schedules move exactly 2(K-1)·P payload bytes (K divides n so the
// ring chunks are uniform).
TEST(Allreduce, BytesConservedAcrossAlgorithms) {
  const int K = 4;
  const std::size_t n = 64;
  const auto base = make_payloads(K, n);
  const std::uint64_t want =
      2u * static_cast<std::uint64_t>(K - 1) * n * sizeof(std::int64_t);
  const auto ring = run(kBandwidthOnlyLink, base, kSum);
  const auto tree = run(kLatencyBoundLink, base, kSum);
  ASSERT_TRUE(ring.ring);
  ASSERT_TRUE(tree.tree);
  EXPECT_EQ(ring.rep.bytes, want);
  EXPECT_EQ(tree.rep.bytes, want);
}

TEST(Allreduce, MessageCounts) {
  const auto base = make_payloads(8, 64);
  // ring: K shards x (K-1) steps, twice (reduce-scatter + allgather).
  const auto ring = run(kBandwidthOnlyLink, base, kSum);
  ASSERT_TRUE(ring.ring);
  EXPECT_EQ(ring.rep.messages, 2u * 8u * 7u);
  // tree (K = power of two): K-1 reduce legs + K-1 broadcast legs.
  const auto tree = run(kLatencyBoundLink, base, kSum);
  ASSERT_TRUE(tree.tree);
  EXPECT_EQ(tree.rep.messages, 14u);
}

// The call runs the cheaper plan, ties to the ring, and reports exactly
// that plan's seconds.  On PCI-e the crossover falls inside the trainer's
// own payloads: 112-byte winner records at K = 8 price the tree cheaper
// for 8 slots (ring 14 legs, about 140 us; tree 6 legs, about 60 us) and
// the ring cheaper for 1 slot (2 legs, about 20 us), because an empty ring
// chunk sends no leg.
TEST(Allreduce, PicksTheCheaperPlan) {
  for (int K : {2, 3, 4, 5, 8}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{7}, std::size_t{64},
                          std::size_t{1} << 14}) {
      const auto base = make_payloads(K, n);
      for (const Interconnect& link : all_links()) {
        const double ring =
            detail::plan_seconds(Schedule::kRing, n, K, 8, link);
        const double tree =
            detail::plan_seconds(Schedule::kTree, n, K, 8, link);
        const auto out = run(link, base, kSum);
        const std::string where = "K=" + std::to_string(K) +
                                  " n=" + std::to_string(n) +
                                  " lat=" + std::to_string(link.latency_us);
        EXPECT_EQ(out.rep.seconds, std::min(ring, tree)) << where;
        if (n > 0) {
          EXPECT_EQ(out.tree, tree < ring) << where;
        }
      }
    }
  }
  const Interconnect pcie = Interconnect::pcie3();
  const std::size_t rec = sizeof(BestSplit);
  EXPECT_NEAR(detail::plan_seconds(Schedule::kRing, 8, 8, rec, pcie), 140e-6,
              1e-6);
  EXPECT_NEAR(detail::plan_seconds(Schedule::kTree, 8, 8, rec, pcie), 60e-6,
              1e-6);
  EXPECT_EQ(detail::pick_schedule(8, 8, rec, pcie), Schedule::kTree);
  EXPECT_NEAR(detail::plan_seconds(Schedule::kRing, 1, 8, rec, pcie), 20e-6,
              1e-6);
  EXPECT_EQ(detail::pick_schedule(1, 8, rec, pcie), Schedule::kRing);
  // Ties go to the ring: at K = 2 both plans carry two legs per shard.
  EXPECT_EQ(detail::pick_schedule(1, 2, 8, kLatencyBoundLink),
            Schedule::kRing);
}

TEST(Allreduce, NvlinkBeatsPcieOnSamePayload) {
  const auto base = make_payloads(4, 1 << 12);
  const auto pcie = run(Interconnect::pcie3(), base, kSum);
  const auto nvl = run(Interconnect::nvlink(), base, kSum);
  EXPECT_EQ(pcie.rep.bytes, nvl.rep.bytes);
  EXPECT_LT(nvl.rep.seconds, pcie.rep.seconds);
}

// With the happens-before detector armed, a ready-event-ordered collective
// must stay silent: the comm legs read payloads behind the producer's event
// edge on every shard, on the ring and on the tree.
TEST(Allreduce, RaceDetectorCleanOverCommStreams) {
  analysis::set_race_detect_enabled(true);
  for (const Interconnect& link :
       {kBandwidthOnlyLink, kLatencyBoundLink}) {
    Net net = make_net(4, /*with_ready=*/true);
    auto storage = make_payloads(4, 128);
    std::vector<std::span<std::int64_t>> payloads(storage.begin(),
                                                  storage.end());
    EXPECT_NO_THROW(allreduce<std::int64_t>("comm_test", link, net.links,
                                            payloads, kSum));
    for (auto& d : net.devs) d->sync();
  }
  analysis::set_race_detect_enabled(false);
}

}  // namespace
}  // namespace gbdt::multigpu
