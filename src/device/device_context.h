// The simulated device: allocator + kernel launcher + modeled timeline.
//
// Usage mirrors CUDA host code:
//
//   Device dev(DeviceConfig::titan_x_pascal());
//   auto buf = dev.to_device<float>(host_values);          // PCI-e modeled
//   dev.launch("scale", grid_for(n, 256), 256, [&](BlockCtx& b) {
//     b.for_each_thread([&](std::int64_t i) {
//       if (i < n) buf[i] *= 2.f;
//     });
//     b.mem_coalesced(2 * elems_in_block * sizeof(float));
//   });
//   auto out = dev.to_host(buf);
//
// Kernel bodies run on the host (optionally across a host thread pool, one
// logical block at a time) and *count* their work; the CostModel converts
// counts into modeled device seconds accumulated on the timeline.
//
// Streams and events (CUDA-style, see DESIGN.md §5h): `stream()` creates a
// new FIFO stream; `launch_async`/`copy_to_device_async`/`copy_to_host_async`
// enqueue work on it; `record_event`/`wait_event` add cross-stream ordering
// edges; `sync(stream)`/`sync()` block the host.  Each stream carries its
// own modeled clock — an op starts at max(stream clock, host clock) — so
// independent streams overlap in modeled time (`overlap_ratio()`), while
// `elapsed_seconds()` becomes the makespan across streams.  The default
// stream (0, all the legacy entry points) keeps blocking legacy semantics:
// a default-stream op starts after every stream's clock and propagates its
// completion to all of them, so fully synchronous programs behave exactly
// as before.  Every operation feeds the happens-before race detector
// (analysis/hb_race.h) when GBDT_RACE_DETECT is armed, and
// `set_schedule_fuzz(seed)` defers async ops into per-stream queues drained
// in a seeded random-but-legal interleaving, so schedule-sensitive bugs
// surface as data differences.  GBDT_SYNC_STREAMS=1 (or
// set_stream_async_enabled(false)) is the escape hatch: clients that
// consult stream_async_enabled() fall back to the default stream.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/access_audit.h"
#include "analysis/hb_race.h"
#include "device/cost_model.h"
#include "device/device_config.h"
#include "device/device_memory.h"
#include "device/kernel_stats.h"
#include "device/thread_pool.h"
#include "obs/trace.h"

namespace gbdt::device {

/// Stream id of the legacy synchronous path.
inline constexpr int kDefaultStream = 0;

namespace detail {
inline std::atomic<int>& stream_async_state() {
  // -1: unresolved (consult the environment), 0: sync, 1: async.
  static std::atomic<int> state{-1};
  return state;
}
}  // namespace detail

/// Whether stream-aware clients should actually use concurrent streams.
/// GBDT_SYNC_STREAMS=1 ("1"/"on"/"true") disables them — the escape hatch
/// that routes every op through the default stream, restoring the fully
/// synchronous schedule; set_stream_async_enabled overrides the
/// environment (tests, the fuzz harness).
[[nodiscard]] inline bool stream_async_enabled() {
  int s = detail::stream_async_state().load(std::memory_order_relaxed);
  if (s < 0) {
    const char* v = std::getenv("GBDT_SYNC_STREAMS");
    const std::string e = v == nullptr ? "" : v;
    const bool sync = e == "1" || e == "on" || e == "true" || e == "ON" ||
                      e == "TRUE";
    s = sync ? 0 : 1;
    detail::stream_async_state().store(s, std::memory_order_relaxed);
  }
  return s != 0;
}
inline void set_stream_async_enabled(bool enabled) {
  detail::stream_async_state().store(enabled ? 1 : 0,
                                     std::memory_order_relaxed);
}

/// Number of blocks needed to cover n items with block_dim threads.
[[nodiscard]] constexpr std::int64_t grid_for(std::int64_t n, int block_dim) {
  return n <= 0 ? 1 : (n + block_dim - 1) / block_dim;
}

/// Per-block execution context handed to kernel bodies.
class BlockCtx {
 public:
  BlockCtx(std::int64_t block_idx, int block_dim, std::int64_t grid_dim,
           analysis::LaunchAuditor* audit = nullptr,
           analysis::LaunchFootprint* race = nullptr)
      : block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        audit_(audit),
        race_(race) {
    stats_.blocks = 1;
  }

  [[nodiscard]] std::int64_t block_idx() const { return block_idx_; }
  [[nodiscard]] int block_dim() const { return block_dim_; }
  [[nodiscard]] std::int64_t grid_dim() const { return grid_dim_; }

  /// Global index of this block's thread `tid` (the usual CUDA formula).
  [[nodiscard]] std::int64_t global_index(int tid) const {
    return block_idx_ * block_dim_ + tid;
  }

  /// Runs f(global_index) for each logical thread of the block and counts one
  /// work unit per thread.
  template <typename F>
  void for_each_thread(F&& f) {
    for (int t = 0; t < block_dim_; ++t) f(global_index(t));
    stats_.thread_work += static_cast<std::uint64_t>(block_dim_);
  }

  /// Extra compute work units (e.g. per-thread loops over several items).
  void work(std::uint64_t n) { stats_.thread_work += n; }
  /// Streaming (coalesced) global-memory traffic in bytes.
  void mem_coalesced(std::uint64_t bytes) { stats_.coalesced_bytes += bytes; }
  /// Irregular (random) global-memory transactions.
  void mem_irregular(std::uint64_t n) { stats_.irregular_accesses += n; }
  /// Global atomic operations.
  void atomic(std::uint64_t n) { stats_.atomic_ops += n; }
  /// Floating point operations.
  void flop(std::uint64_t n) { stats_.flops += n; }
  /// Declares the block's shared-memory footprint in bytes (free to access,
  /// like registers; the launch fails when it exceeds the device's
  /// DeviceConfig::shared_mem_per_block_bytes).
  void uses_shared(std::uint64_t bytes) {
    if (bytes > stats_.max_shared_bytes) stats_.max_shared_bytes = bytes;
  }

  // ---- Access declarations (see src/analysis/access_audit.h and
  // src/analysis/hb_race.h) ------------------------------------------------
  //
  // Kernel bodies declare the element intervals this block touches of each
  // buffer/span; the declarations feed the per-launch access auditor and/or
  // the cross-launch happens-before race detector when either is armed,
  // otherwise they are null-pointer checks.  `s` is anything with
  // data()/size() (DeviceBuffer, std::span, std::vector).

  /// Declares that this block reads s[lo, lo+count).
  template <typename S>
  void reads(const S& s, std::int64_t lo, std::int64_t count = 1) {
    if (audit_ != nullptr) {
      audit_->record(block_idx_, s.data(), sizeof(*s.data()), s.size(), lo,
                     count, /*is_write=*/false);
    }
    if (race_ != nullptr) {
      race_->record(s.data(), sizeof(*s.data()), s.size(), lo, count,
                    /*is_write=*/false);
    }
  }

  /// Declares that this block writes s[lo, lo+count).
  template <typename S>
  void writes(const S& s, std::int64_t lo, std::int64_t count = 1) {
    if (audit_ != nullptr) {
      audit_->record(block_idx_, s.data(), sizeof(*s.data()), s.size(), lo,
                     count, /*is_write=*/true);
    }
    if (race_ != nullptr) {
      race_->record(s.data(), sizeof(*s.data()), s.size(), lo, count,
                    /*is_write=*/true);
    }
  }

  /// Declares this block's contiguous tile of a 1:1 n-element kernel:
  /// elements [block_idx*block_dim, min((block_idx+1)*block_dim, n)).
  template <typename S>
  void reads_tile(const S& s, std::int64_t n) {
    if (audit_ != nullptr || race_ != nullptr) {
      reads(s, tile_lo(n), tile_count(n));
    }
  }
  template <typename S>
  void writes_tile(const S& s, std::int64_t n) {
    if (audit_ != nullptr || race_ != nullptr) {
      writes(s, tile_lo(n), tile_count(n));
    }
  }

  [[nodiscard]] const KernelStats& stats() const { return stats_; }
  [[nodiscard]] KernelStats take_stats() {
    stats_.max_block_work = stats_.thread_work;
    return stats_;
  }

 private:
  [[nodiscard]] std::int64_t tile_lo(std::int64_t n) const {
    return std::min(block_idx_ * block_dim_, n);
  }
  [[nodiscard]] std::int64_t tile_count(std::int64_t n) const {
    return std::min<std::int64_t>(block_dim_, n - tile_lo(n));
  }

  std::int64_t block_idx_;
  int block_dim_;
  std::int64_t grid_dim_;
  analysis::LaunchAuditor* audit_;
  analysis::LaunchFootprint* race_;
  KernelStats stats_;
};

/// Aggregate record of one kernel name over the device lifetime.
struct KernelRecord {
  std::uint64_t launches = 0;
  double seconds = 0.0;
  KernelStats stats;
};

/// Aggregate record of one labeled async transfer over the device lifetime.
struct TransferRecord {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// One stream's modeled clock and busy time.
struct StreamStats {
  double clock = 0.0;         // modeled completion time of the last op
  double busy_seconds = 0.0;  // sum of this stream's op durations
  std::uint64_t ops = 0;
};

/// Modeled time accumulated by a Device.
///
/// kernel_seconds/transfer_seconds stay the *busy* sums (what a single
/// serialized stream would take); makespan_seconds is the end of the latest
/// op across all stream clocks.  For purely default-stream histories the
/// two coincide.
struct Timeline {
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  double makespan_seconds = 0.0;
  // Advanced by sync() and by default-stream ops (legacy blocking): later
  // enqueues on any stream start here.
  double host_clock = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t transfers = 0;
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_to_host = 0;
  std::map<std::string, KernelRecord, std::less<>> kernels;
  /// Transfers issued under a label (copy_*_async, peer_transfer_async),
  /// on whichever stream they ran; the blocking to_device / to_host helpers
  /// stay anonymous.  A zero-byte peer leg is no transfer.
  std::map<std::string, TransferRecord, std::less<>> stream_transfers;
  std::vector<StreamStats> streams;  // indexed by stream id

  [[nodiscard]] double total_seconds() const {
    return kernel_seconds + transfer_seconds;
  }
};

class Device {
 public:
  /// host_workers: host threads executing blocks (1 = deterministic serial
  /// execution; modeled time never depends on this).
  explicit Device(DeviceConfig cfg, unsigned host_workers = 1)
      : cost_(std::move(cfg)),
        allocator_(cost_.config().global_mem_bytes),
        pool_(host_workers),
        queues_(1) {
    allocator_.set_race_detector(&hb_);
  }

  [[nodiscard]] const DeviceConfig& config() const { return cost_.config(); }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] DeviceAllocator& allocator() { return allocator_; }
  [[nodiscard]] const DeviceAllocator& allocator() const { return allocator_; }
  [[nodiscard]] const Timeline& timeline() const { return timeline_; }

  /// Modeled wall time: the makespan across stream clocks.  Identical to
  /// timeline().total_seconds() for purely default-stream histories.
  [[nodiscard]] double elapsed_seconds() const {
    return timeline_.makespan_seconds;
  }

  /// Fraction of busy seconds hidden by cross-stream overlap:
  /// 1 - makespan / (kernel_seconds + transfer_seconds).  0 for fully
  /// serialized histories.
  [[nodiscard]] double overlap_ratio() const {
    const double busy = timeline_.total_seconds();
    if (busy <= 0.0) return 0.0;
    return std::max(0.0, 1.0 - timeline_.makespan_seconds / busy);
  }

  void reset_timeline() { timeline_ = Timeline{}; }

  /// Allocates an uninitialised device buffer of n elements of T.
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(std::size_t n) {
    return DeviceBuffer<T>(allocator_, n);
  }

  // ---- streams and events ------------------------------------------------

  /// Creates a new stream (FIFO with respect to itself, concurrent with
  /// every other stream).  Stream 0 is the default stream and always
  /// exists.
  [[nodiscard]] int stream() {
    const int s = next_stream_++;
    queues_.resize(static_cast<std::size_t>(next_stream_));
    return s;
  }

  /// Records an event after the work currently enqueued on `stream`;
  /// returns its id for wait_event.
  [[nodiscard]] int record_event(int stream) {
    check_stream(stream);
    const int e = static_cast<int>(events_.size());
    events_.push_back(EventState{});
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      exec_record_event(stream, e);
    } else {
      queues_[static_cast<std::size_t>(stream)].push_back(
          PendingOp{stream, e, PendingOp::Kind::kRecordEvent, {}});
    }
    return e;
  }

  /// Makes all work enqueued on `stream` after this call wait for the
  /// event.  The event must have been recorded (in program order) first.
  void wait_event(int stream, int event) {
    check_stream(stream);
    if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
      throw std::logic_error("wait_event: unknown event id");
    }
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      exec_wait_event(stream, event);
    } else {
      queues_[static_cast<std::size_t>(stream)].push_back(
          PendingOp{stream, event, PendingOp::Kind::kWaitEvent, {}});
    }
  }

  /// Blocks the host until `stream` has drained; work enqueued on any
  /// stream afterwards is ordered (and modeled) after it.
  void sync(int stream) {
    check_stream(stream);
    if (defer_) drain_all();
    timeline_.host_clock = std::max(timeline_.host_clock,
                                    stream_stats(stream).clock);
    if (analysis::race_detect_enabled()) hb_.sync_stream(stream);
  }

  /// Blocks the host until every stream has drained.
  void sync() {
    if (defer_) drain_all();
    for (const StreamStats& s : timeline_.streams) {
      timeline_.host_clock = std::max(timeline_.host_clock, s.clock);
    }
    if (analysis::race_detect_enabled()) hb_.sync_all();
  }

  /// Schedule-perturbation mode (the `gbdt_fuzz --race` harness): async ops
  /// enqueue into per-stream queues and are drained at sync points in a
  /// seeded random-but-legal interleaving (any stream head whose event
  /// waits are satisfied may run next).  Modeled clocks and happens-before
  /// state depend only on the op DAG, so they are schedule-invariant; data
  /// produced by *racy* programs is not — which is exactly what the fuzzer
  /// detects.  Spans passed to deferred async ops must stay valid until the
  /// next sync.
  void set_schedule_fuzz(std::uint64_t seed) {
    drain_all();
    defer_ = true;
    fuzz_rng_ = seed;
  }
  void clear_schedule_fuzz() {
    drain_all();
    defer_ = false;
  }

  // ---- kernel launches ---------------------------------------------------

  /// Launches a kernel on the default stream: body(BlockCtx&) is invoked
  /// once per block.  When the access auditor is armed the launch verifies
  /// the block-disjoint access contract at kernel end (throws
  /// analysis::AuditViolation); when the race detector is armed the
  /// declared footprint feeds the happens-before check (throws
  /// analysis::RaceViolation).
  template <typename Body>
  void launch(std::string_view name, std::int64_t grid_dim, int block_dim,
              Body&& body) {
    launch_async(name, kDefaultStream, grid_dim, block_dim,
                 std::forward<Body>(body));
  }

  /// Launches a kernel on `stream`.  The body must capture the spans it
  /// touches by value: in schedule-perturbation mode it runs at a later
  /// drain point.
  template <typename Body>
  void launch_async(std::string_view name, int stream, std::int64_t grid_dim,
                    int block_dim, Body&& body) {
    check_stream(stream);
    if (grid_dim <= 0) grid_dim = 1;
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      auto& b = body;
      exec_kernel(stream, name, grid_dim, block_dim, b);
      return;
    }
    queues_[static_cast<std::size_t>(stream)].push_back(PendingOp{
        stream, -1, PendingOp::Kind::kWork,
        [this, stream, n = std::string(name), grid_dim, block_dim,
         b = std::decay_t<Body>(std::forward<Body>(body))]() mutable {
          exec_kernel(stream, n, grid_dim, block_dim, b);
        }});
  }

  // ---- PCI-e modeled transfers -------------------------------------------

  /// Allocates a device buffer and copies host data into it.
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> to_device(std::span<const T> host) {
    DeviceBuffer<T> buf(allocator_, host.size());
    copy_to_device(host, buf);
    return buf;
  }
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> to_device(const std::vector<T>& host) {
    return to_device(std::span<const T>(host));
  }

  template <typename T>
  void copy_to_device(std::span<const T> host, DeviceBuffer<T>& buf) {
    if (defer_) drain_all();
    exec_copy_to_device(kDefaultStream, kH2D, host, buf);
  }

  template <typename T>
  [[nodiscard]] std::vector<T> to_host(const DeviceBuffer<T>& buf) {
    return to_host(buf, buf.size());
  }

  /// Copies buf[first, first + n) to the host.
  template <typename T>
  [[nodiscard]] std::vector<T> to_host(const DeviceBuffer<T>& buf,
                                       std::size_t n, std::size_t first = 0) {
    if (first > buf.size() || n > buf.size() - first) {
      throw std::invalid_argument("to_host: range larger than device buffer");
    }
    if (defer_) drain_all();
    std::vector<T> out(n);
    exec_copy_to_host(kDefaultStream, kD2H, buf, std::span<T>(out), first);
    return out;
  }

  /// Copies host[0, host.size()) into buf[0, host.size()) on `stream`.
  /// Both `host`'s storage and `buf` must stay alive until the stream is
  /// synced.
  template <typename T>
  void copy_to_device_async(std::string_view name, int stream,
                            std::span<const T> host, DeviceBuffer<T>& buf) {
    check_stream(stream);
    if (host.size() > buf.size()) {
      throw std::invalid_argument("copy_to_device_async: host span larger "
                                  "than device buffer");
    }
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      exec_copy_to_device(stream, name, host, buf);
      return;
    }
    queues_[static_cast<std::size_t>(stream)].push_back(PendingOp{
        stream, -1, PendingOp::Kind::kWork,
        [this, stream, n = std::string(name), host, bufp = &buf]() {
          exec_copy_to_device(stream, n, host, *bufp);
        }});
  }

  /// Copies buf[0, out.size()) into `out` on `stream`; same lifetime rules.
  template <typename T>
  void copy_to_host_async(std::string_view name, int stream,
                          const DeviceBuffer<T>& buf, std::span<T> out) {
    check_stream(stream);
    if (out.size() > buf.size()) {
      throw std::invalid_argument("copy_to_host_async: host span larger "
                                  "than device buffer");
    }
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      exec_copy_to_host(stream, name, buf, out);
      return;
    }
    queues_[static_cast<std::size_t>(stream)].push_back(PendingOp{
        stream, -1, PendingOp::Kind::kWork,
        [this, stream, n = std::string(name), bufp = &buf, out]() {
          exec_copy_to_host(stream, n, *bufp, out);
        }});
  }

  // ---- modeled peer (inter-device) transfers ------------------------------

  /// Models one inter-device transfer leg of `seconds` on `stream`.  Device
  /// memory is host-visible in the simulation, so the wire carries no bits:
  /// the caller moves the data itself and passes the modeled leg time it
  /// computed from the interconnect (latency + bytes / bandwidth — PCI-e
  /// switch or NVLink, see multigpu/allreduce.h).  `footprint` declares the
  /// element intervals the leg reads (sender side) and/or writes (receiver
  /// side) so the happens-before detector orders it against kernels and
  /// copies touching the same spans; build it with
  /// analysis::LaunchFootprint::record + take.
  void peer_transfer_async(std::string_view name, int stream, double seconds,
                           std::uint64_t bytes,
                           analysis::LaunchFootprint::Map footprint = {}) {
    check_stream(stream);
    if (!defer_ || stream == kDefaultStream) {
      if (defer_) drain_all();
      exec_peer_transfer(stream, name, seconds, bytes, footprint);
      return;
    }
    queues_[static_cast<std::size_t>(stream)].push_back(PendingOp{
        stream, -1, PendingOp::Kind::kWork,
        [this, stream, n = std::string(name), seconds, bytes,
         f = std::move(footprint)]() mutable {
          exec_peer_transfer(stream, n, seconds, bytes, f);
        }});
  }

 private:
  // Names of the blocking copy helpers' transfers (race reports only).
  static constexpr std::string_view kH2D = "h2d";
  static constexpr std::string_view kD2H = "d2h";

  struct EventState {
    bool fired = false;
    double time = 0.0;
  };
  struct PendingOp {
    int stream;
    int event;  // kRecordEvent / kWaitEvent only
    enum class Kind { kWork, kRecordEvent, kWaitEvent } kind;
    std::function<void()> run;  // kWork only
  };

  void check_stream(int stream) const {
    if (stream < 0 || stream >= next_stream_) {
      throw std::logic_error("unknown stream id " + std::to_string(stream));
    }
  }

  [[nodiscard]] StreamStats& stream_stats(int stream) {
    auto& v = timeline_.streams;
    if (v.size() <= static_cast<std::size_t>(stream)) {
      v.resize(static_cast<std::size_t>(stream) + 1);
    }
    return v[static_cast<std::size_t>(stream)];
  }

  /// Advances the stream clock by one op of `secs` and folds the result
  /// into the makespan.  Default-stream ops join every clock before and
  /// propagate to every clock after (legacy blocking semantics).
  void note_op_time(int stream, double secs) {
    StreamStats& st = stream_stats(stream);
    double start = std::max(st.clock, timeline_.host_clock);
    if (stream == kDefaultStream) {
      for (const StreamStats& o : timeline_.streams) {
        start = std::max(start, o.clock);
      }
    }
    const double end = start + secs;
    st.clock = end;
    st.busy_seconds += secs;
    ++st.ops;
    if (stream == kDefaultStream) {
      for (StreamStats& o : timeline_.streams) {
        o.clock = std::max(o.clock, end);
      }
      // Streams whose first op comes later (their stats are materialized
      // lazily) still start after this op: the host clock carries the
      // barrier, mirroring the detector's host_vc join.
      timeline_.host_clock = std::max(timeline_.host_clock, end);
    }
    timeline_.makespan_seconds = std::max(timeline_.makespan_seconds, end);
  }

  template <typename Body>
  void exec_kernel(int stream, std::string_view name, std::int64_t grid_dim,
                   int block_dim, Body& body) {
    analysis::LaunchAuditor* audit =
        analysis::audit_enabled() ? &auditor_ : nullptr;
    analysis::LaunchFootprint fp;
    analysis::LaunchFootprint* race =
        analysis::race_detect_enabled() ? &fp : nullptr;
    if (audit != nullptr) audit->begin(name);
    KernelStats total;
    try {
      if (pool_.worker_count() <= 1 || grid_dim == 1) {
        for (std::int64_t blk = 0; blk < grid_dim; ++blk) {
          BlockCtx ctx(blk, block_dim, grid_dim, audit, race);
          body(ctx);
          total += ctx.take_stats();
        }
      } else {
        std::mutex merge_mu;
        // Chunk blocks so pool dispatch overhead stays small.
        const std::uint64_t chunks =
            std::min<std::uint64_t>(grid_dim, 4ull * pool_.worker_count());
        const std::int64_t per_chunk = (grid_dim + chunks - 1) / chunks;
        pool_.run_chunks(chunks, [&](std::uint64_t c) {
          KernelStats local;
          const std::int64_t lo = static_cast<std::int64_t>(c) * per_chunk;
          const std::int64_t hi =
              std::min<std::int64_t>(lo + per_chunk, grid_dim);
          for (std::int64_t blk = lo; blk < hi; ++blk) {
            BlockCtx ctx(blk, block_dim, grid_dim, audit, race);
            body(ctx);
            local += ctx.take_stats();
          }
          std::lock_guard lk(merge_mu);
          total += local;
        });
      }
      if (audit != nullptr) audit->finish();  // throws on contract violation
    } catch (...) {
      if (audit != nullptr) audit->abandon();
      throw;
    }
    if (race != nullptr) hb_.on_op(stream, name, "kernel", fp.take());
    if (total.max_shared_bytes > config().shared_mem_per_block_bytes) {
      throw std::runtime_error(
          "kernel '" + std::string(name) + "' declares " +
          std::to_string(total.max_shared_bytes) +
          " B of shared memory per block; the device has " +
          std::to_string(config().shared_mem_per_block_bytes) + " B");
    }
    record_kernel(stream, name, total);
  }

  template <typename T>
  void exec_copy_to_device(int stream, std::string_view name,
                           std::span<const T> host, DeviceBuffer<T>& buf) {
    if (analysis::race_detect_enabled()) {
      analysis::LaunchFootprint fp;
      fp.record(buf.data(), sizeof(T), buf.size(), 0,
                static_cast<std::int64_t>(host.size()), /*is_write=*/true);
      hb_.on_op(stream, name, "copy", fp.take());
    }
    std::copy(host.begin(), host.end(), buf.data());
    record_transfer(stream, name, host.size_bytes(), /*to_device=*/true);
  }

  template <typename T>
  void exec_copy_to_host(int stream, std::string_view name,
                         const DeviceBuffer<T>& buf, std::span<T> out,
                         std::size_t first = 0) {
    if (analysis::race_detect_enabled()) {
      analysis::LaunchFootprint fp;
      fp.record(buf.data(), sizeof(T), buf.size(),
                static_cast<std::int64_t>(first),
                static_cast<std::int64_t>(out.size()), /*is_write=*/false);
      hb_.on_op(stream, name, "copy", fp.take());
    }
    std::copy_n(buf.data() + first, out.size(), out.begin());
    record_transfer(stream, name, out.size_bytes(), /*to_device=*/false);
  }

  void exec_peer_transfer(int stream, std::string_view name, double secs,
                          std::uint64_t bytes,
                          analysis::LaunchFootprint::Map& footprint) {
    if (analysis::race_detect_enabled()) {
      hb_.on_op(stream, name, "peer", std::move(footprint));
    }
    // A leg with nothing to carry (an empty ring chunk) costs nothing and is
    // no message; its footprint above still orders it for the detector.
    note_op_time(stream, secs);
    if (bytes == 0) return;
    // Peer bytes are neither H2D nor D2H: bytes_to_device/host stay PCI-e
    // only.
    count_transfer(name, bytes, secs);
  }

  void exec_record_event(int stream, int e) {
    EventState& ev = events_[static_cast<std::size_t>(e)];
    ev.fired = true;
    ev.time = stream_stats(stream).clock;
    if (analysis::race_detect_enabled()) hb_.record_event(stream, e);
  }

  void exec_wait_event(int stream, int e) {
    const EventState& ev = events_[static_cast<std::size_t>(e)];
    if (!ev.fired) {
      throw std::logic_error("wait_event before the event was recorded");
    }
    StreamStats& st = stream_stats(stream);
    st.clock = std::max(st.clock, ev.time);
    if (analysis::race_detect_enabled()) hb_.wait_event(stream, e);
  }

  /// Runs every pending deferred op, repeatedly picking a seeded-random
  /// *ready* stream head: the queues are FIFO per stream and a wait_event
  /// head is only ready once its event has fired — so every drain order is
  /// a legal schedule.
  void drain_all() {
    while (true) {
      ready_.clear();
      bool pending = false;
      for (std::size_t s = 0; s < queues_.size(); ++s) {
        if (queues_[s].empty()) continue;
        pending = true;
        const PendingOp& head = queues_[s].front();
        if (head.kind == PendingOp::Kind::kWaitEvent &&
            !events_[static_cast<std::size_t>(head.event)].fired) {
          continue;
        }
        ready_.push_back(s);
      }
      if (!pending) return;
      if (ready_.empty()) {
        throw std::logic_error(
            "stream deadlock: every pending op waits on an unrecorded event");
      }
      // SplitMix64 step; seeded by set_schedule_fuzz for replayability.
      fuzz_rng_ += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = fuzz_rng_;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      const std::size_t s = ready_[z % ready_.size()];
      PendingOp op = std::move(queues_[s].front());
      queues_[s].pop_front();
      switch (op.kind) {
        case PendingOp::Kind::kWork:
          op.run();
          break;
        case PendingOp::Kind::kRecordEvent:
          exec_record_event(op.stream, op.event);
          break;
        case PendingOp::Kind::kWaitEvent:
          exec_wait_event(op.stream, op.event);
          break;
      }
    }
  }

  void record_kernel(int stream, std::string_view name, const KernelStats& s) {
    const double secs = cost_.kernel_seconds(s);
    timeline_.kernel_seconds += secs;
    ++timeline_.launches;
    auto it = timeline_.kernels.find(name);
    if (it == timeline_.kernels.end()) {
      it = timeline_.kernels.emplace(std::string(name), KernelRecord{}).first;
    }
    ++it->second.launches;
    it->second.seconds += secs;
    it->second.stats += s;
    note_op_time(stream, secs);
    // Per-kernel-label stats roll up into the enclosing trace span (a single
    // relaxed load when no ObsSession is active).
    obs::on_kernel(name, s, secs);
  }

  void record_transfer(int stream, std::string_view name, std::uint64_t bytes,
                       bool to_device) {
    const double secs = cost_.transfer_seconds(bytes);
    (to_device ? timeline_.bytes_to_device : timeline_.bytes_to_host) += bytes;
    note_op_time(stream, secs);
    count_transfer(name, bytes, secs);
  }

  /// Counts one transfer in the timeline and the enclosing trace span;
  /// labeled ones (every name but the blocking helpers' kH2D / kD2H) also
  /// land in stream_transfers, whichever stream they were routed to.
  void count_transfer(std::string_view name, std::uint64_t bytes,
                      double secs) {
    timeline_.transfer_seconds += secs;
    ++timeline_.transfers;
    if (name != kH2D && name != kD2H) {
      auto it = timeline_.stream_transfers.find(name);
      if (it == timeline_.stream_transfers.end()) {
        it = timeline_.stream_transfers
                 .emplace(std::string(name), TransferRecord{})
                 .first;
      }
      ++it->second.count;
      it->second.bytes += bytes;
      it->second.seconds += secs;
    }
    obs::on_transfer(bytes, secs);
  }

  CostModel cost_;
  DeviceAllocator allocator_;
  ThreadPool pool_;
  Timeline timeline_;
  // Per-device shadow maps: multi-GPU setups audit each shard independently.
  analysis::LaunchAuditor auditor_;
  analysis::HbRaceDetector hb_;
  int next_stream_ = 1;
  std::vector<EventState> events_;
  // Schedule-perturbation state (set_schedule_fuzz).
  bool defer_ = false;
  std::uint64_t fuzz_rng_ = 0;
  std::vector<std::deque<PendingOp>> queues_;
  std::vector<std::size_t> ready_;
};

}  // namespace gbdt::device
