#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace gbdt::obs {

namespace internal {

std::atomic<ObsSession*> g_session{nullptr};

void on_kernel_slow(std::string_view name, const device::KernelStats& stats,
                    double seconds) {
  ObsSession* s = g_session.load(std::memory_order_acquire);
  if (s == nullptr) return;
  std::lock_guard lk(s->mu_);
  Span* span = s->stack_.empty() ? &s->root_ : s->stack_.back();
  auto& st = span->stats_;
  st.kernel_seconds += seconds;
  ++st.launches;
  for (auto& [label, agg] : st.kernels) {
    if (label == name) {
      ++agg.launches;
      agg.seconds += seconds;
      agg.stats += stats;
      return;
    }
  }
  KernelAgg agg;
  agg.launches = 1;
  agg.seconds = seconds;
  agg.stats = stats;
  st.kernels.emplace_back(std::string(name), agg);
}

void on_transfer_slow(std::uint64_t bytes, double seconds) {
  ObsSession* s = g_session.load(std::memory_order_acquire);
  if (s == nullptr) return;
  std::lock_guard lk(s->mu_);
  Span* span = s->stack_.empty() ? &s->root_ : s->stack_.back();
  span->stats_.transfer_seconds += seconds;
  span->stats_.transfer_bytes += bytes;
  ++span->stats_.transfers;
}

void note_device_usage_slow(std::size_t used_bytes) {
  ObsSession* s = g_session.load(std::memory_order_acquire);
  if (s == nullptr) return;
  std::lock_guard lk(s->mu_);
  // The high-water belongs to every currently-open span (and the root), not
  // just the innermost: an allocation made during a child phase also raises
  // the parent phase's footprint.
  if (used_bytes > s->root_.stats_.peak_device_bytes) {
    s->root_.stats_.peak_device_bytes = used_bytes;
  }
  for (Span* span : s->stack_) {
    if (used_bytes > span->stats_.peak_device_bytes) {
      span->stats_.peak_device_bytes = used_bytes;
    }
  }
}

}  // namespace internal

// ---- Span -----------------------------------------------------------------

const Span* Span::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Span* Span::find_or_add_child(std::string_view name) {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  children_.push_back(std::make_unique<Span>(std::string(name)));
  return children_.back().get();
}

double Span::modeled_total_seconds() const {
  double total = stats_.modeled_self_seconds();
  for (const auto& c : children_) total += c->modeled_total_seconds();
  return total;
}

std::uint64_t Span::transfers_total() const {
  std::uint64_t total = stats_.transfers;
  for (const auto& c : children_) total += c->transfers_total();
  return total;
}

device::KernelStats Span::kernel_stats_total() const {
  device::KernelStats total;
  for (const auto& [label, agg] : stats_.kernels) total += agg.stats;
  for (const auto& c : children_) total += c->kernel_stats_total();
  return total;
}

std::size_t Span::peak_device_bytes_total() const {
  std::size_t peak = stats_.peak_device_bytes;
  for (const auto& c : children_) {
    peak = std::max(peak, c->peak_device_bytes_total());
  }
  return peak;
}

Json Span::to_json() const {
  Json j = Json::object();
  j["name"] = Json(name_);
  j["invocations"] = Json(stats_.invocations);
  j["wall_seconds"] = Json(stats_.wall_seconds);
  j["modeled_seconds"] = Json(modeled_total_seconds());
  j["modeled_self_seconds"] = Json(stats_.modeled_self_seconds());
  j["kernel_seconds"] = Json(stats_.kernel_seconds);
  j["transfer_seconds"] = Json(stats_.transfer_seconds);
  j["transfer_bytes"] = Json(stats_.transfer_bytes);
  j["launches"] = Json(stats_.launches);
  j["transfers"] = Json(stats_.transfers);
  j["peak_device_bytes"] = Json(peak_device_bytes_total());
  if (!stats_.kernels.empty()) {
    Json kernels = Json::object();
    for (const auto& [label, agg] : stats_.kernels) {
      Json k = Json::object();
      k["launches"] = Json(agg.launches);
      k["seconds"] = Json(agg.seconds);
      k["thread_work"] = Json(agg.stats.thread_work);
      k["coalesced_bytes"] = Json(agg.stats.coalesced_bytes);
      k["irregular_accesses"] = Json(agg.stats.irregular_accesses);
      k["atomic_ops"] = Json(agg.stats.atomic_ops);
      k["flops"] = Json(agg.stats.flops);
      k["blocks"] = Json(agg.stats.blocks);
      k["max_block_work"] = Json(agg.stats.max_block_work);
      kernels[label] = std::move(k);
    }
    j["kernels"] = std::move(kernels);
  }
  if (!children_.empty()) {
    Json kids = Json::array();
    for (const auto& c : children_) kids.push_back(c->to_json());
    j["children"] = std::move(kids);
  }
  return j;
}

// ---- ObsSession -----------------------------------------------------------

ObsSession::ObsSession() : root_("run") {}

ObsSession::~ObsSession() { deactivate(); }

void ObsSession::activate() {
  ObsSession* expected = nullptr;
  if (!internal::g_session.compare_exchange_strong(
          expected, this, std::memory_order_acq_rel)) {
    if (expected == this) return;
    throw std::logic_error("another ObsSession is already active");
  }
}

void ObsSession::deactivate() {
  ObsSession* expected = this;
  internal::g_session.compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel);
}

bool ObsSession::active() const { return current() == this; }

Span* ObsSession::open_span(std::string_view name) {
  std::lock_guard lk(mu_);
  Span* parent = stack_.empty() ? &root_ : stack_.back();
  Span* span = parent->find_or_add_child(name);
  stack_.push_back(span);
  return span;
}

void ObsSession::close_span(Span* span, double wall_seconds) {
  std::lock_guard lk(mu_);
  span->stats_.wall_seconds += wall_seconds;
  ++span->stats_.invocations;
  // RAII nesting means `span` is the top of the stack; tolerate out-of-order
  // closes by popping through it so a missed pop cannot wedge attribution.
  while (!stack_.empty()) {
    Span* top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

Json ObsSession::report() const {
  Json j = Json::object();
  j["schema"] = Json("gbdt-obs-run-v1");
  {
    std::lock_guard lk(mu_);
    j["trace"] = root_.to_json();
  }
  j["metrics"] = Registry::global().to_json();
  return j;
}

bool ObsSession::write_report(const std::string& path) const {
  return write_json_file(path, report());
}

// ---- ScopedSpan -----------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name) {
  ObsSession* s = ObsSession::current();
  if (s == nullptr) return;
  session_ = s;
  span_ = s->open_span(name);
  wall_start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (session_ == nullptr) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  session_->close_span(span_, wall);
}

}  // namespace gbdt::obs
