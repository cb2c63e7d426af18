// Tests for the modeled ring/tree/all-to-one allreduce: bitwise fold
// equivalence across algorithms (the property the multi-GPU trainer's
// bitwise-forest guarantee rests on), chunking on adversarial sizes, byte
// and message accounting, the cost ordering ring < all-to-one the
// acceptance gate requires, and a race-detector-armed clean run over the
// comm streams.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "analysis/hb_race.h"
#include "device/device_context.h"
#include "multigpu/allreduce.h"

namespace gbdt::multigpu {
namespace {

using device::DeviceConfig;
using device::kDefaultStream;

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

std::vector<std::span<std::int64_t>> spans_of(
    std::vector<std::vector<std::int64_t>>& storage) {
  std::vector<std::span<std::int64_t>> s;
  s.reserve(storage.size());
  for (auto& v : storage) s.emplace_back(v);
  return s;
}

const auto kSum = [](std::int64_t a, std::int64_t b) { return a + b; };

// Runs one collective on fresh copies of `base` and returns (report, result
// seen by every shard).
struct RunOut {
  AllreduceReport rep;
  std::vector<std::int64_t> result;
};

RunOut run(AllreduceAlgo algo, int n_shards,
           const std::vector<std::vector<std::int64_t>>& base,
           const Interconnect& net_cfg = Interconnect::pcie3()) {
  Net net = make_net(n_shards);
  auto storage = base;
  auto payloads = spans_of(storage);
  RunOut out;
  out.rep = allreduce<std::int64_t>("comm_test", net_cfg, algo, net.links,
                                    payloads, kSum);
  out.result = storage[0];
  // Every shard must hold the same reduced payload.
  for (const auto& s : storage) EXPECT_EQ(s, out.result);
  return out;
}

TEST(Allreduce, SingleShardIsNoOp) {
  Net net = make_net(1);
  std::vector<std::vector<std::int64_t>> storage{{1, 2, 3}};
  auto payloads = spans_of(storage);
  const auto rep = allreduce<std::int64_t>(
      "comm_test", Interconnect::pcie3(), AllreduceAlgo::kRing, net.links,
      payloads, kSum);
  EXPECT_EQ(rep.bytes, 0u);
  EXPECT_EQ(rep.messages, 0u);
  EXPECT_EQ(rep.seconds, 0.0);
  EXPECT_EQ(storage[0], (std::vector<std::int64_t>{1, 2, 3}));
}

// The trainer's bitwise-forest guarantee requires ring == tree == all-to-one
// for every order-independent combine.  Sweep adversarial K x n shapes,
// including payloads smaller than K (empty ring chunks) and non-divisible
// chunking.
TEST(Allreduce, AlgorithmsFoldBitwiseIdentical) {
  for (int K : {2, 3, 4, 5, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                          std::size_t{64}, std::size_t{1000}}) {
      const auto base = make_payloads(K, n);
      std::vector<std::int64_t> expect(n, 0);
      for (const auto& p : base) {
        for (std::size_t i = 0; i < n; ++i) expect[i] += p[i];
      }
      const auto a2o = run(AllreduceAlgo::kAllToOne, K, base);
      const auto ring = run(AllreduceAlgo::kRing, K, base);
      const auto tree = run(AllreduceAlgo::kTree, K, base);
      EXPECT_EQ(a2o.result, expect) << "K=" << K << " n=" << n;
      EXPECT_EQ(ring.result, expect) << "K=" << K << " n=" << n;
      EXPECT_EQ(tree.result, expect) << "K=" << K << " n=" << n;
    }
  }
}

// double-max is the root-statistics combine; bitwise identity must hold for
// floating payloads too (max is order-independent, unlike double sum).
TEST(Allreduce, DoubleMaxCombineBitwiseIdentical) {
  const int K = 4;
  const std::size_t n = 7;
  std::vector<std::vector<double>> base(K);
  for (int k = 0; k < K; ++k) {
    base[static_cast<std::size_t>(k)].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[static_cast<std::size_t>(k)][i] =
          0.1 * static_cast<double>(k + 1) + 1e-9 * static_cast<double>(i);
    }
  }
  const auto max2 = [](double a, double b) { return a > b ? a : b; };
  std::array<std::vector<double>, 3> results;
  int r = 0;
  for (auto algo :
       {AllreduceAlgo::kAllToOne, AllreduceAlgo::kRing, AllreduceAlgo::kTree}) {
    Net net = make_net(K);
    auto storage = base;
    std::vector<std::span<double>> payloads;
    for (auto& v : storage) payloads.emplace_back(v);
    (void)allreduce<double>("comm_test", Interconnect::pcie3(), algo,
                            net.links, payloads, max2);
    results[static_cast<std::size_t>(r++)] = storage[0];
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Allreduce, EmptyPayloadMovesNothing) {
  const auto base = make_payloads(4, 0);
  for (auto algo :
       {AllreduceAlgo::kAllToOne, AllreduceAlgo::kRing, AllreduceAlgo::kTree}) {
    const auto out = run(algo, 4, base);
    EXPECT_EQ(out.rep.bytes, 0u) << allreduce_algo_name(algo);
    EXPECT_EQ(out.rep.messages, 0u) << allreduce_algo_name(algo);
    EXPECT_EQ(out.rep.seconds, 0.0) << allreduce_algo_name(algo);
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

// Every algorithm moves exactly 2(K-1)·P payload bytes (K divides n so the
// ring chunks are uniform).
TEST(Allreduce, BytesConservedAcrossAlgorithms) {
  const int K = 4;
  const std::size_t n = 64;
  const auto base = make_payloads(K, n);
  const std::uint64_t want =
      2u * static_cast<std::uint64_t>(K - 1) * n * sizeof(std::int64_t);
  for (auto algo :
       {AllreduceAlgo::kAllToOne, AllreduceAlgo::kRing, AllreduceAlgo::kTree}) {
    const auto out = run(algo, K, base);
    EXPECT_EQ(out.rep.bytes, want) << allreduce_algo_name(algo);
  }
}

TEST(Allreduce, MessageCounts) {
  const auto base = make_payloads(8, 64);
  // all-to-one: K-1 gathers + K-1 broadcasts.
  EXPECT_EQ(run(AllreduceAlgo::kAllToOne, 8, base).rep.messages, 14u);
  // tree (K = power of two): K-1 reduce legs + K-1 broadcast legs.
  EXPECT_EQ(run(AllreduceAlgo::kTree, 8, base).rep.messages, 14u);
  // ring: K shards x (K-1) steps, twice (reduce-scatter + allgather).
  EXPECT_EQ(run(AllreduceAlgo::kRing, 8, base).rep.messages, 2u * 8u * 7u);
}

// The acceptance gate: ring strictly beats all-to-one in modeled seconds at
// K >= 4.  All-to-one serialises 2(K-1) full payloads on shard 0's stream;
// the ring spreads 2(K-1) chunk-sized legs across every shard.
TEST(Allreduce, RingBeatsAllToOneAtFourShards) {
  for (int K : {4, 8}) {
    const auto base = make_payloads(K, 1 << 14);
    const auto a2o = run(AllreduceAlgo::kAllToOne, K, base);
    const auto ring = run(AllreduceAlgo::kRing, K, base);
    const auto tree = run(AllreduceAlgo::kTree, K, base);
    EXPECT_LT(ring.rep.seconds, a2o.rep.seconds) << "K=" << K;
    EXPECT_LT(tree.rep.seconds, a2o.rep.seconds) << "K=" << K;
  }
}

TEST(Allreduce, NvlinkBeatsPcieOnSamePayload) {
  const auto base = make_payloads(4, 1 << 12);
  const auto pcie = run(AllreduceAlgo::kRing, 4, base, Interconnect::pcie3());
  const auto nvl = run(AllreduceAlgo::kRing, 4, base, Interconnect::nvlink());
  EXPECT_EQ(pcie.rep.bytes, nvl.rep.bytes);
  EXPECT_LT(nvl.rep.seconds, pcie.rep.seconds);
}

TEST(Allreduce, ParseAndNameRoundTrip) {
  AllreduceAlgo a;
  ASSERT_TRUE(parse_allreduce_algo("ring", a));
  EXPECT_EQ(a, AllreduceAlgo::kRing);
  ASSERT_TRUE(parse_allreduce_algo("tree", a));
  EXPECT_EQ(a, AllreduceAlgo::kTree);
  ASSERT_TRUE(parse_allreduce_algo("alltoone", a));
  EXPECT_EQ(a, AllreduceAlgo::kAllToOne);
  EXPECT_FALSE(parse_allreduce_algo("butterfly", a));
  for (auto algo :
       {AllreduceAlgo::kAllToOne, AllreduceAlgo::kRing, AllreduceAlgo::kTree}) {
    AllreduceAlgo back;
    ASSERT_TRUE(parse_allreduce_algo(allreduce_algo_name(algo), back));
    EXPECT_EQ(back, algo);
  }
}

// With the happens-before detector armed, a ready-event-ordered collective
// must stay silent: the comm legs read payloads behind the producer's event
// edge on every shard, for every algorithm.
TEST(Allreduce, RaceDetectorCleanOverCommStreams) {
  analysis::set_race_detect_enabled(true);
  for (auto algo :
       {AllreduceAlgo::kAllToOne, AllreduceAlgo::kRing, AllreduceAlgo::kTree}) {
    Net net = make_net(4, /*with_ready=*/true);
    auto storage = make_payloads(4, 128);
    auto payloads = spans_of(storage);
    EXPECT_NO_THROW(allreduce<std::int64_t>("comm_test", Interconnect::pcie3(),
                                            algo, net.links, payloads, kSum));
    for (auto& d : net.devs) d->sync();
  }
  analysis::set_race_detect_enabled(false);
}

}  // namespace
}  // namespace gbdt::multigpu
