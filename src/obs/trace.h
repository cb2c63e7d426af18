// Hierarchical phase tracing for the simulated-GPU trainers.
//
// An ObsSession owns a tree of named spans.  Trainers open RAII ScopedSpans
// around their phases (gradient compute, find-split, partition, ...); while
// a span is open, every kernel launch, PCI-e transfer and device allocation
// reported by the device layer is attributed to it.  A span aggregates:
//
//   - wall seconds (host clock) and invocation count,
//   - modeled kernel/transfer seconds plus per-kernel-label KernelStats
//     (rolled up from Device::launch via the on_kernel hook), and the
//     launch and transfer counts,
//   - the DeviceAllocator high-water mark observed while open.
//
// Repeated spans with the same name under the same parent merge, so the
// per-tree/per-level loops of a training run collapse into one aggregate row
// per phase.
//
// Cost when idle: exactly one relaxed atomic load per hook site — the
// process-wide current-session pointer.  With no active session the
// instrumented trainers are bitwise identical to uninstrumented ones (the
// hooks only read), which test_determinism verifies.
//
//   obs::ObsSession session;
//   session.activate();
//   { obs::ScopedSpan span("gradient_compute"); compute_gradients(...); }
//   session.deactivate();
//   obs::write_json_file("run.json", session.report());
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "device/kernel_stats.h"
#include "obs/json.h"

namespace gbdt::obs {

class ObsSession;

namespace internal {
extern std::atomic<ObsSession*> g_session;
void on_kernel_slow(std::string_view name, const device::KernelStats& stats,
                    double seconds);
void on_transfer_slow(std::uint64_t bytes, double seconds);
void note_device_usage_slow(std::size_t used_bytes);
}  // namespace internal

/// True while some ObsSession is activated (one relaxed load).
[[nodiscard]] inline bool tracing_active() {
  return internal::g_session.load(std::memory_order_acquire) != nullptr;
}

// ---- hooks called by the device layer (near-zero cost when inactive) -----

inline void on_kernel(std::string_view name, const device::KernelStats& stats,
                      double seconds) {
  if (tracing_active()) internal::on_kernel_slow(name, stats, seconds);
}

inline void on_transfer(std::uint64_t bytes, double seconds) {
  if (tracing_active()) internal::on_transfer_slow(bytes, seconds);
}

inline void note_device_usage(std::size_t used_bytes) {
  if (tracing_active()) internal::note_device_usage_slow(used_bytes);
}

/// Aggregate of one kernel label inside one span.
struct KernelAgg {
  std::uint64_t launches = 0;
  double seconds = 0.0;
  device::KernelStats stats;
};

struct SpanStats {
  std::uint64_t invocations = 0;     // times this span was opened
  double wall_seconds = 0.0;         // summed over invocations
  double kernel_seconds = 0.0;       // modeled, attributed to this span only
  double transfer_seconds = 0.0;     // modeled PCI-e time, this span only
  std::uint64_t transfer_bytes = 0;
  std::uint64_t launches = 0;
  /// PCI-e and peer transfers: latency-bound at table sizes, so the count is
  /// what a packed upload saves.
  std::uint64_t transfers = 0;
  /// High-water mark of device-allocator usage observed while open (0 when
  /// nothing was allocated inside the span).
  std::size_t peak_device_bytes = 0;
  /// Per-kernel-label aggregates, in first-seen order.
  std::vector<std::pair<std::string, KernelAgg>> kernels;

  /// Modeled seconds attributed directly to this span (excluding children).
  [[nodiscard]] double modeled_self_seconds() const {
    return kernel_seconds + transfer_seconds;
  }
};

/// One node of the span tree.  Owned by the session; stable address.
class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const SpanStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Span>>& children() const {
    return children_;
  }
  /// Child span by name, nullptr when absent (reader-side helper).
  [[nodiscard]] const Span* child(std::string_view name) const;

  /// Modeled seconds of this span plus all descendants.
  [[nodiscard]] double modeled_total_seconds() const;
  /// Transfers of this span plus all descendants.
  [[nodiscard]] std::uint64_t transfers_total() const;
  /// Kernel counters (blocks, irregular transactions, ...) of this span plus
  /// all descendants, summed over every kernel label.
  [[nodiscard]] device::KernelStats kernel_stats_total() const;
  /// Peak device bytes over this span and all descendants.
  [[nodiscard]] std::size_t peak_device_bytes_total() const;

  [[nodiscard]] Json to_json() const;

 private:
  friend class ObsSession;
  friend void internal::on_kernel_slow(std::string_view,
                                       const device::KernelStats&, double);
  friend void internal::on_transfer_slow(std::uint64_t, double);
  friend void internal::note_device_usage_slow(std::size_t);
  Span* find_or_add_child(std::string_view name);

  std::string name_;
  SpanStats stats_;
  std::vector<std::unique_ptr<Span>> children_;
};

/// A recording session.  Create, activate() to install as the process-wide
/// current session, run the workload, deactivate(), then read the report.
/// The session must outlive every ScopedSpan opened while it was active.
class ObsSession {
 public:
  ObsSession();
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Installs this session as the target of ScopedSpan and the device
  /// hooks.  Throws std::logic_error if another session is already active.
  void activate();
  /// Uninstalls (idempotent).  Open spans keep recording into this session
  /// until they close; new ScopedSpans become no-ops.
  void deactivate();
  [[nodiscard]] bool active() const;

  [[nodiscard]] static ObsSession* current() {
    return internal::g_session.load(std::memory_order_acquire);
  }

  [[nodiscard]] const Span& root() const { return root_; }

  /// Schema-versioned run report:
  ///   {"schema":"gbdt-obs-run-v1","trace":{...},"metrics":{...}}
  [[nodiscard]] Json report() const;
  bool write_report(const std::string& path) const;

 private:
  friend class ScopedSpan;
  friend void internal::on_kernel_slow(std::string_view,
                                       const device::KernelStats&, double);
  friend void internal::on_transfer_slow(std::uint64_t, double);
  friend void internal::note_device_usage_slow(std::size_t);

  Span* open_span(std::string_view name);
  void close_span(Span* span, double wall_seconds);

  mutable std::mutex mu_;
  Span root_;
  std::vector<Span*> stack_;  // currently open spans, root excluded
};

/// RAII span.  A no-op (one atomic load) when no session is active at
/// construction.  Span names must be string literals so reports stay
/// greppable — tools/gbdt_lint enforces this.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ObsSession* session_ = nullptr;
  Span* span_ = nullptr;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace gbdt::obs
