// Modeled collective allreduce over per-shard simulated devices.
//
// The multi-GPU trainer merges per-shard partial results (split candidates,
// quantized gradient histograms, root statistics) every level.  Device memory
// is host-visible in the simulation, so the wire itself carries no bits: the
// collective moves the data directly on the host, in the exact combine order
// its schedule produces, and enqueues one modeled `peer_transfer_async` leg
// per wire message so the per-stream clocks, the happens-before race
// detector, and the byte accounting all see the real communication schedule.
//
// Each call runs one of two schedules, both moving exactly 2(K-1)·P payload
// bytes in total:
//
//  * ring — chunked reduce-scatter + allgather.  Each shard sends chunk
//    (k-s) mod K at reduce step s and the legs ride each *receiver's* comm
//    stream, so every shard carries 2(K-1) legs of one chunk each:
//    t ≈ 2(K-1)(lat + P/(K·bw)).  An empty chunk (payloads of fewer
//    elements than shards) sends no leg.
//  * tree — binomial reduce to shard 0 + mirrored broadcast.  Reduce legs
//    ride the receiver's stream, broadcast legs the sender's, so the root
//    carries 2·ceil(log2 K) full-payload legs: t ≈ 2·log2(K)(lat + P/bw).
//
// Like a collective library, the call picks the schedule itself: it prices
// both leg plans for this payload size, shard count and link and runs the
// cheaper, ties to the ring.  Pricing and enqueueing walk the same plan
// (detail::walk_plan), so the choice is exactly what the legs then charge.
// Bandwidth-bound payloads take the ring; latency-bound ones at K >= 4 with
// every chunk nonempty take the tree.
//
// Timing caveat (documented in DESIGN.md §5j): per-shard legs are FIFO on
// that shard's comm stream, but cross-shard step dependencies (ring step s
// cannot start before the neighbour finished step s-1) are not modeled
// across device clocks — each device owns an independent clock.  The
// per-shard leg sums still equal the steady-state per-step bound, so the
// aggregate (max over shards) matches the textbook cost model above.
//
// Correctness caveat: the two schedules fold in different orders, so the
// result is independent of the schedule (asserted bitwise against a host
// fold by test_allreduce and end to end by the gbdt_fuzz --mgpu legs) only
// because every combine the trainer uses is order-independent: int64
// histogram sums, double max, and lexicographic best-split max over
// globally distinct attribute ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/hb_race.h"
#include "device/device_context.h"

namespace gbdt::multigpu {

/// Inter-device link parameters (per direction, per pair).
struct Interconnect {
  /// Effective bandwidth between two devices in GB/s.
  double bandwidth_gbps = 12.0;
  /// Fixed per-message latency in microseconds.
  double latency_us = 10.0;

  /// PCI-e 3.0 x16 through a host switch (the paper's testbed).
  static Interconnect pcie3() { return {12.0, 10.0}; }
  /// NVLink 1.0 single link.
  static Interconnect nvlink() { return {40.0, 5.0}; }

  /// Modeled seconds for one message of `bytes`.
  [[nodiscard]] double leg_seconds(std::uint64_t bytes) const {
    return latency_us * 1e-6 +
           static_cast<double>(bytes) / (bandwidth_gbps * 1e9);
  }
};

/// One shard's communication endpoints.
struct ShardLink {
  device::Device* dev = nullptr;
  /// Dedicated comm stream on `dev` (created once per shard, never default).
  int comm_stream = 0;
  /// Event to wait for (on `dev`) before this shard's first comm leg, or -1.
  /// Producers record it on the stream that filled the payload.
  int ready_event = -1;
};

/// Accounting for one collective (or a sum over several).
struct AllreduceReport {
  std::uint64_t bytes = 0;     // payload bytes that crossed the wire
  std::uint64_t messages = 0;  // wire messages (modeled legs)
  double seconds = 0.0;        // max over shards of summed leg seconds

  AllreduceReport& operator+=(const AllreduceReport& o) {
    bytes += o.bytes;
    messages += o.messages;
    seconds += o.seconds;
    return *this;
  }
};

namespace detail {

struct ChunkRange {
  std::size_t lo;
  std::size_t hi;
};

/// Ring chunk c of an n-element payload split K ways (may be empty).
inline ChunkRange chunk_range(std::size_t n, int n_shards, int c) {
  const auto k = static_cast<std::size_t>(n_shards);
  const auto cc = static_cast<std::size_t>(c);
  return {n * cc / k, n * (cc + 1) / k};
}

/// Binomial-tree rounds: smallest r with 2^r >= K.
inline int tree_rounds(int n_shards) {
  int r = 0;
  while ((1 << r) < n_shards) ++r;
  return r;
}

/// The two schedules an allreduce chooses between.
enum class Schedule { kRing, kTree };

/// One wire message: it rides `shard`'s comm stream and carries `elems`
/// payload elements; `reads` / `writes` are the ranges of that shard's
/// payload the leg touches (its race-detector footprint).
struct Leg {
  int shard;
  std::string_view suffix;  // appended to the collective's label
  std::size_t elems;
  ChunkRange reads;
  ChunkRange writes;
};

/// Calls on_leg(leg, bytes, seconds) for every wire message of `schedule`
/// over an n-element payload on K shards, in enqueue order, and returns the
/// plan's modeled seconds: each shard's legs run back to back on its comm
/// stream, so the slowest shard's summed leg seconds.  An empty leg costs
/// nothing.
template <typename OnLeg>
double walk_plan(Schedule schedule, std::size_t n, int n_shards,
                 std::size_t elem_bytes, const Interconnect& net,
                 OnLeg&& on_leg) {
  std::vector<double> shard_secs(static_cast<std::size_t>(n_shards), 0.0);
  const auto visit = [&](const Leg& leg) {
    const auto bytes = static_cast<std::uint64_t>(leg.elems * elem_bytes);
    const double secs = bytes > 0 ? net.leg_seconds(bytes) : 0.0;
    shard_secs[static_cast<std::size_t>(leg.shard)] += secs;
    on_leg(leg, bytes, secs);
  };
  const auto chunk = [&](int c) {  // c > -K
    return chunk_range(n, n_shards, (c + n_shards) % n_shards);
  };
  if (schedule == Schedule::kRing) {
    // Reduce-scatter: step s, shard k sends chunk (k-s), receives and folds
    // chunk (k-1-s); the leg is charged to the receiver.  Allgather: step
    // s, shard k sends chunk (k+1-s), receives chunk (k-s) fully reduced —
    // an overwrite, no fold.
    for (const int shift : {0, 1}) {
      const std::string_view suffix = shift == 0 ? "_ring_rs" : "_ring_ag";
      for (int s = 0; s < n_shards - 1; ++s) {
        for (int k = 0; k < n_shards; ++k) {
          const ChunkRange send = chunk(k + shift - s);
          const ChunkRange recv = chunk(k + shift - 1 - s);
          if (send.hi == send.lo && recv.hi == recv.lo) continue;
          visit(Leg{k, suffix, recv.hi - recv.lo, send, recv});
        }
      }
    }
  } else {
    const ChunkRange full{0, n};
    const int rounds = tree_rounds(n_shards);
    // Reduce legs ride the receiving parent's stream ...
    for (int r = 0; r < rounds; ++r) {
      for (int p = 0; p + (1 << r) < n_shards; p += 2 << r) {
        visit(Leg{p, "_tree_reduce", n, full, full});
      }
    }
    // ... broadcast legs the sending parent's stream (mirrored rounds), so
    // the root's 2·ceil(log2 K) legs serialise like its DMA engine would.
    for (int r = rounds - 1; r >= 0; --r) {
      for (int p = 0; p + (1 << r) < n_shards; p += 2 << r) {
        visit(Leg{p, "_tree_bcast", n, full, {0, 0}});
      }
    }
  }
  return *std::max_element(shard_secs.begin(), shard_secs.end());
}

/// Modeled seconds of `schedule` for an n-element payload of
/// `elem_bytes`-byte elements on K shards.
inline double plan_seconds(Schedule schedule, std::size_t n, int n_shards,
                           std::size_t elem_bytes, const Interconnect& net) {
  return walk_plan(schedule, n, n_shards, elem_bytes, net,
                   [](const Leg&, std::uint64_t, double) {});
}

/// The schedule whose plan prices lower; ties go to the ring.
inline Schedule pick_schedule(std::size_t n, int n_shards,
                              std::size_t elem_bytes,
                              const Interconnect& net) {
  const auto secs = [&](Schedule s) {
    return plan_seconds(s, n, n_shards, elem_bytes, net);
  };
  return secs(Schedule::kTree) < secs(Schedule::kRing) ? Schedule::kTree
                                                       : Schedule::kRing;
}

/// Leaves every payload holding the fold of all K, in `schedule`'s order.
/// Ring: chunk c travels c -> c+1 -> ... -> c-1, each hop folding the local
/// value on the right: ((v_c ⊕ v_{c+1}) ⊕ ...) ⊕ v_{c+K-1 mod K}.  Tree:
/// round r combines acc[p] = combine(acc[p], acc[p+2^r]) into shard 0.
template <typename T, typename Combine>
void fold(Schedule schedule, std::vector<std::span<T>>& payloads,
          Combine& combine) {
  const int n_shards = static_cast<int>(payloads.size());
  const std::size_t n = payloads[0].size();
  if (schedule == Schedule::kRing) {
    for (int c = 0; c < n_shards; ++c) {
      const auto [lo, hi] = chunk_range(n, n_shards, c);
      for (std::size_t i = lo; i < hi; ++i) {
        T acc = payloads[static_cast<std::size_t>(c)][i];
        for (int s = 1; s < n_shards; ++s) {
          acc = combine(acc, payloads[static_cast<std::size_t>(
                                 (c + s) % n_shards)][i]);
        }
        for (auto& p : payloads) p[i] = acc;
      }
    }
    return;
  }
  for (int r = 0; r < tree_rounds(n_shards); ++r) {
    for (int p = 0; p + (1 << r) < n_shards; p += 2 << r) {
      auto& dst = payloads[static_cast<std::size_t>(p)];
      const auto& src = payloads[static_cast<std::size_t>(p + (1 << r))];
      for (std::size_t i = 0; i < n; ++i) dst[i] = combine(dst[i], src[i]);
    }
  }
  for (std::size_t k = 1; k < payloads.size(); ++k) {
    std::copy(payloads[0].begin(), payloads[0].end(), payloads[k].begin());
  }
}

/// Enqueues one modeled wire leg on `link.comm_stream`, waiting on the
/// shard's ready event before its first leg.
template <typename T>
void enqueue_leg(ShardLink& link, bool& waited, std::string_view label,
                 double seconds, std::uint64_t bytes, std::span<T> payload,
                 ChunkRange reads, ChunkRange writes) {
  if (link.ready_event >= 0 && !waited) {
    // hb: the comm legs read the payload the producer kernel wrote; the
    // event recorded after that kernel orders every leg behind it.
    link.dev->wait_event(link.comm_stream, link.ready_event);
    waited = true;
  }
  analysis::LaunchFootprint fp;
  if (reads.hi > reads.lo) {
    fp.record(payload.data(), sizeof(T), payload.size(),
              static_cast<std::int64_t>(reads.lo),
              static_cast<std::int64_t>(reads.hi - reads.lo),
              /*is_write=*/false);
  }
  if (writes.hi > writes.lo) {
    fp.record(payload.data(), sizeof(T), payload.size(),
              static_cast<std::int64_t>(writes.lo),
              static_cast<std::int64_t>(writes.hi - writes.lo),
              /*is_write=*/true);
  }
  link.dev->peer_transfer_async(label, link.comm_stream, seconds, bytes,
                                fp.take());
}

}  // namespace detail


/// Allreduce over K same-length payload spans, one per shard: on return
/// every payload holds the combine-fold of all K inputs.  The call runs the
/// ring or the tree, whichever prices lower for this payload on `net`.
/// `combine(a, b)` must be associative and commutative (all trainer
/// combines are), so the result does not depend on the schedule.  Leg
/// labels are `label` + a schedule suffix (`_ring_rs`, `_ring_ag`,
/// `_tree_reduce`, `_tree_bcast`) and must carry the `comm_` prefix (lint
/// rule 12).  K == 1 is a no-op reporting zeros.
template <typename T, typename Combine>
AllreduceReport allreduce(std::string_view label, const Interconnect& net,
                          std::vector<ShardLink>& shards,
                          std::vector<std::span<T>>& payloads,
                          Combine&& combine) {
  const int n_shards = static_cast<int>(shards.size());
  AllreduceReport rep;
  if (n_shards <= 1) return rep;
  const std::size_t n = payloads[0].size();
  const detail::Schedule schedule =
      detail::pick_schedule(n, n_shards, sizeof(T), net);
  // Producers are executed by enqueue time (default-stream semantics), so
  // the combined values are computable here; racy *schedules* are still
  // caught by the detector via the modeled legs' footprints below.
  detail::fold(schedule, payloads, combine);

  const auto waited = std::make_unique<bool[]>(payloads.size());
  rep.seconds = detail::walk_plan(
      schedule, n, n_shards, sizeof(T), net,
      [&](const detail::Leg& leg, std::uint64_t bytes, double secs) {
        const auto s = static_cast<std::size_t>(leg.shard);
        detail::enqueue_leg(shards[s], waited[s],
                            std::string(label).append(leg.suffix), secs, bytes,
                            payloads[s], leg.reads, leg.writes);
        if (bytes > 0) {
          rep.bytes += bytes;
          ++rep.messages;
        }
      });
  return rep;
}

}  // namespace gbdt::multigpu
