// Modeled collective allreduce over per-shard simulated devices.
//
// The multi-GPU trainer merges per-shard partial results (split candidates,
// quantized gradient histograms, root statistics) every level.  Device memory
// is host-visible in the simulation, so the wire itself carries no bits: the
// collective moves the data directly on the host, in the exact combine order
// the chosen algorithm would produce, and enqueues one modeled
// `peer_transfer_async` leg per wire message so the per-stream clocks, the
// happens-before race detector, and the byte accounting all see the real
// communication schedule.
//
// Three algorithms, all moving exactly 2(K-1)·P payload bytes total:
//
//  * kAllToOne — the legacy reduce: shard 0 receives K-1 full payloads
//    (ascending shard order, acc = combine(acc, v_k)), then sends K-1 full
//    copies back.  All 2(K-1) legs serialise on shard 0's comm stream:
//    t ≈ 2(K-1)(lat + P/bw).  Passing kAllToOne to MultiGpuTrainer selects
//    it for every collective, restoring the pre-ring merge bit-for-bit.
//  * kRing — chunked reduce-scatter + allgather.  Each shard sends chunk
//    (k-s) mod K at reduce step s and the legs ride each *receiver's* comm
//    stream, so every shard carries 2(K-1) legs of one chunk each:
//    t ≈ 2(K-1)(lat + P/(K·bw)).  Strictly faster than all-to-one for any
//    nonempty payload, and ~K× faster when bandwidth dominates.
//  * kTree — binomial reduce to shard 0 + mirrored broadcast.  Reduce legs
//    ride the receiver's stream, broadcast legs the sender's, so the root
//    carries 2·ceil(log2 K) full-payload legs: t ≈ 2·log2(K)(lat + P/bw).
//    Fewer messages than ring; wins when latency dominates tiny payloads.
//
// Timing caveat (documented in DESIGN.md §5j): per-shard legs are FIFO on
// that shard's comm stream, but cross-shard step dependencies (ring step s
// cannot start before the neighbour finished step s-1) are not modeled
// across device clocks — each device owns an independent clock.  The
// per-shard leg sums still equal the steady-state per-step bound, so the
// aggregate (max over shards) matches the textbook cost model above.
//
// Correctness caveat: the three algorithms fold in different orders, so
// bitwise ring == tree == all-to-one (asserted by test_allreduce and the
// ring_vs_alltoone fuzz leg) holds because every combine the trainer uses is
// order-independent: int64 histogram sums, double max, and lexicographic
// best-split max over globally distinct attribute ids.
#pragma once

#include <algorithm>
#include <cstdint>
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

enum class AllreduceAlgo { kAllToOne, kRing, kTree };

[[nodiscard]] const char* allreduce_algo_name(AllreduceAlgo a);
/// Parses "alltoone" / "ring" / "tree"; returns false on anything else.
[[nodiscard]] bool parse_allreduce_algo(std::string_view s, AllreduceAlgo& out);

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

/// Allreduce over K same-length payload spans, one per shard: on return every
/// payload holds combine-fold of all K inputs, folded in the order `algo`
/// prescribes.  `combine(a, b)` must be
/// associative; it must also be commutative if callers rely on bitwise
/// equality across algorithms (all trainer combines are).  Leg labels are
/// `label` + an algorithm suffix and must carry the `comm_` prefix
/// (lint rule 12).  K == 1 is a no-op reporting zeros.
template <typename T, typename Combine>
AllreduceReport allreduce(std::string_view label, const Interconnect& net,
                          AllreduceAlgo algo, std::vector<ShardLink>& shards,
                          std::vector<std::span<T>>& payloads,
                          Combine&& combine) {
  const int n_shards = static_cast<int>(shards.size());
  AllreduceReport rep;
  if (n_shards <= 1) return rep;
  const std::size_t n = payloads[0].size();
  const std::string tag = std::string(label);
  std::vector<double> shard_secs(static_cast<std::size_t>(n_shards), 0.0);
  std::vector<bool> waited(static_cast<std::size_t>(n_shards), false);

  const auto leg = [&](int shard, std::string_view name, std::uint64_t bytes,
                       detail::ChunkRange reads, detail::ChunkRange writes) {
    const auto s = static_cast<std::size_t>(shard);
    const double secs = bytes > 0 ? net.leg_seconds(bytes) : 0.0;
    bool w = waited[s];
    detail::enqueue_leg(shards[s], w, name, secs, bytes, payloads[s], reads,
                        writes);
    waited[s] = w;
    if (bytes > 0) {
      rep.bytes += bytes;
      ++rep.messages;
      shard_secs[s] += secs;
    }
  };

  // ---- data movement (eager, host-side, algorithm-faithful fold order) ----
  // Producers are executed by enqueue time (default-stream semantics), so the
  // combined values are computable here; racy *schedules* are still caught by
  // the detector via the modeled legs' footprints below.
  std::vector<T> reduced(n);
  switch (algo) {
    case AllreduceAlgo::kAllToOne: {
      // acc starts at shard 0 and folds shards in ascending order — the
      // exact order of the historical host-side merge loop.
      for (std::size_t i = 0; i < n; ++i) reduced[i] = payloads[0][i];
      for (int k = 1; k < n_shards; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          reduced[i] = combine(reduced[i], payloads[static_cast<std::size_t>(
                                               k)][i]);
        }
      }
      break;
    }
    case AllreduceAlgo::kRing: {
      // Chunk c travels c -> c+1 -> ... -> c-1, each hop folding the local
      // value on the right: ((v_c ⊕ v_{c+1}) ⊕ ...) ⊕ v_{c+K-1 mod K}.
      for (int c = 0; c < n_shards; ++c) {
        const auto [lo, hi] = detail::chunk_range(n, n_shards, c);
        for (std::size_t i = lo; i < hi; ++i) {
          T acc = payloads[static_cast<std::size_t>(c)][i];
          for (int s = 1; s < n_shards; ++s) {
            const auto k = static_cast<std::size_t>((c + s) % n_shards);
            acc = combine(acc, payloads[k][i]);
          }
          reduced[i] = acc;
        }
      }
      break;
    }
    case AllreduceAlgo::kTree: {
      // Binomial fold: round r combines acc[p] = combine(acc[p], acc[p+2^r]).
      std::vector<std::vector<T>> acc(static_cast<std::size_t>(n_shards));
      for (int k = 0; k < n_shards; ++k) {
        const auto& p = payloads[static_cast<std::size_t>(k)];
        acc[static_cast<std::size_t>(k)].assign(p.begin(), p.end());
      }
      const int rounds = detail::tree_rounds(n_shards);
      for (int r = 0; r < rounds; ++r) {
        const int step = 1 << r;
        for (int p = 0; p + step < n_shards; p += 2 * step) {
          auto& dst = acc[static_cast<std::size_t>(p)];
          const auto& src = acc[static_cast<std::size_t>(p + step)];
          for (std::size_t i = 0; i < n; ++i) {
            dst[i] = combine(dst[i], src[i]);
          }
        }
      }
      reduced = std::move(acc[0]);
      break;
    }
  }

  // ---- modeled wire legs --------------------------------------------------
  const auto span_bytes = [](detail::ChunkRange r) {
    return static_cast<std::uint64_t>(r.hi - r.lo) * sizeof(T);
  };
  switch (algo) {
    case AllreduceAlgo::kAllToOne: {
      const std::uint64_t pb = static_cast<std::uint64_t>(n) * sizeof(T);
      const detail::ChunkRange full{0, n};
      for (int k = 1; k < n_shards; ++k) {
        leg(0, tag + "_a2o_gather", pb, full, full);
      }
      for (int k = 1; k < n_shards; ++k) {
        leg(0, tag + "_a2o_bcast", pb, full, {0, 0});
      }
      break;
    }
    case AllreduceAlgo::kRing: {
      // Reduce-scatter: step s, shard k sends chunk (k-s), receives and
      // folds chunk (k-1-s); the leg is charged to the receiver.
      for (int s = 0; s < n_shards - 1; ++s) {
        for (int k = 0; k < n_shards; ++k) {
          const int c_send = ((k - s) % n_shards + n_shards) % n_shards;
          const int c_recv = ((k - 1 - s) % n_shards + n_shards) % n_shards;
          const auto send = detail::chunk_range(n, n_shards, c_send);
          const auto recv = detail::chunk_range(n, n_shards, c_recv);
          if (send.hi == send.lo && recv.hi == recv.lo) continue;
          leg(k, tag + "_ring_rs", span_bytes(recv), send, recv);
        }
      }
      // Allgather: step s, shard k sends chunk (k+1-s), receives chunk (k-s)
      // fully reduced — an overwrite, no fold.
      for (int s = 0; s < n_shards - 1; ++s) {
        for (int k = 0; k < n_shards; ++k) {
          const int c_send = ((k + 1 - s) % n_shards + n_shards) % n_shards;
          const int c_recv = ((k - s) % n_shards + n_shards) % n_shards;
          const auto send = detail::chunk_range(n, n_shards, c_send);
          const auto recv = detail::chunk_range(n, n_shards, c_recv);
          if (send.hi == send.lo && recv.hi == recv.lo) continue;
          leg(k, tag + "_ring_ag", span_bytes(recv), send, recv);
        }
      }
      break;
    }
    case AllreduceAlgo::kTree: {
      const std::uint64_t pb = static_cast<std::uint64_t>(n) * sizeof(T);
      const detail::ChunkRange full{0, n};
      const int rounds = detail::tree_rounds(n_shards);
      // Reduce legs ride the receiving parent's stream ...
      for (int r = 0; r < rounds; ++r) {
        const int step = 1 << r;
        for (int p = 0; p + step < n_shards; p += 2 * step) {
          leg(p, tag + "_tree_reduce", pb, full, full);
        }
      }
      // ... broadcast legs the sending parent's stream (mirrored rounds), so
      // the root's 2·ceil(log2 K) legs serialise like its DMA engine would.
      for (int r = rounds - 1; r >= 0; --r) {
        const int step = 1 << r;
        for (int p = 0; p + step < n_shards; p += 2 * step) {
          leg(p, tag + "_tree_bcast", pb, full, {0, 0});
        }
      }
      break;
    }
  }

  for (int k = 0; k < n_shards; ++k) {
    auto& p = payloads[static_cast<std::size_t>(k)];
    std::copy(reduced.begin(), reduced.end(), p.begin());
  }
  rep.seconds = *std::max_element(shard_secs.begin(), shard_secs.end());
  return rep;
}

}  // namespace gbdt::multigpu
