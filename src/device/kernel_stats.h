// Counters collected while a simulated kernel executes.
//
// Kernels do real work on the host, but every global-memory touch and every
// logical thread iteration is *counted*; the cost model converts the counts
// into modeled device seconds.  The counters deliberately distinguish
// coalesced streaming traffic from irregular (random) transactions, because
// the paper's optimizations (SmartGD, RLE, order-preserving partitioning) are
// all about converting irregular traffic into streaming traffic or removing
// it entirely.
#pragma once

#include <cstdint>

namespace gbdt::device {

struct KernelStats {
  /// Logical thread iterations (unit of parallel compute work).
  std::uint64_t thread_work = 0;
  /// Bytes moved by coalesced (streaming) global-memory accesses.
  std::uint64_t coalesced_bytes = 0;
  /// Number of irregular (uncoalesced / random) global-memory transactions.
  std::uint64_t irregular_accesses = 0;
  /// Number of global atomic operations.
  std::uint64_t atomic_ops = 0;
  /// Floating point operations (informational; GBDT kernels are memory bound).
  std::uint64_t flops = 0;
  /// Thread blocks executed.
  std::uint64_t blocks = 0;
  /// Largest single-block thread_work, lower-bounds kernel time by one SM.
  std::uint64_t max_block_work = 0;
  /// Largest shared-memory footprint one block declared, in bytes.
  std::uint64_t max_shared_bytes = 0;

  KernelStats& operator+=(const KernelStats& o) {
    thread_work += o.thread_work;
    coalesced_bytes += o.coalesced_bytes;
    irregular_accesses += o.irregular_accesses;
    atomic_ops += o.atomic_ops;
    flops += o.flops;
    blocks += o.blocks;
    if (o.max_block_work > max_block_work) max_block_work = o.max_block_work;
    if (o.max_shared_bytes > max_shared_bytes) {
      max_shared_bytes = o.max_shared_bytes;
    }
    return *this;
  }
};

}  // namespace gbdt::device
