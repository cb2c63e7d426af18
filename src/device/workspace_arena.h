// Per-training-run scratch allocator over the simulated device memory.
//
// The trainers used to `dev.alloc` every large temporary (scan outputs,
// gain arrays, partition scratch, ...) fresh on every level of every tree,
// which both churns the DeviceAllocator and hides the real working-set size.
// A WorkspaceArena is acquired once per training run and checked out per
// level: `alloc<T>(n)` hands back a pooled block when one of sufficient
// capacity is free (no DeviceAllocator traffic at all), and only sizes a new
// block — rounded up to the next power-of-two size class — when the pool has
// nothing that fits.  Freed blocks return to the pool instead of the
// allocator, so after the first level of the first tree the steady state
// performs ~zero real device allocations per level (test_obs asserts this
// via the gbdt_device_alloc_calls_total counter).
//
// Unlike DeviceBuffer construction, checking a pooled block out does NOT
// zero it: arena users must fully write a buffer before reading it (all the
// find-split temporaries do; the access auditor verifies the kernels'
// declared footprints independently).
//
// Not thread-safe: one arena belongs to one trainer's host thread.  Kernel
// bodies never allocate.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <typeindex>
#include <utility>
#include <vector>

#include "device/device_memory.h"

namespace gbdt::device {

template <typename T>
class ArenaBuffer;

class WorkspaceArena {
 public:
  explicit WorkspaceArena(DeviceAllocator& alloc) : alloc_(&alloc) {}

  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// Checks out a buffer of logical size n (capacity may be larger).  The
  /// contents are unspecified — write before reading.
  template <typename T>
  [[nodiscard]] ArenaBuffer<T> alloc(std::size_t n);

  /// Wraps a foreign DeviceBuffer (e.g. an rle::compress output or an
  /// uploaded copy) so that, once freed, its storage joins the pool.
  template <typename T>
  [[nodiscard]] ArenaBuffer<T> adopt(DeviceBuffer<T>&& buf);

 private:
  template <typename T>
  friend class ArenaBuffer;

  struct PoolBase {
    virtual ~PoolBase() = default;
  };
  template <typename T>
  struct Pool final : PoolBase {
    std::vector<DeviceBuffer<T>> blocks;  // free blocks, unordered
  };

  template <typename T>
  Pool<T>& pool() {
    const std::type_index key(typeid(T));
    for (auto& [k, p] : pools_) {
      if (k == key) return static_cast<Pool<T>&>(*p);
    }
    pools_.emplace_back(key, std::make_unique<Pool<T>>());
    return static_cast<Pool<T>&>(*pools_.back().second);
  }

  /// Parks a block back in the pool (no DeviceAllocator release).
  template <typename T>
  void give_back(DeviceBuffer<T>&& b) {
    pool<T>().blocks.push_back(std::move(b));
  }

  [[nodiscard]] static std::size_t size_class(std::size_t n) {
    std::size_t c = 64;
    while (c < n) c *= 2;
    return c;
  }

  DeviceAllocator* alloc_;
  std::vector<std::pair<std::type_index, std::unique_ptr<PoolBase>>> pools_;
};

/// A checked-out arena block: DeviceBuffer semantics (spans, indexing,
/// move-only RAII) over the first `size()` elements of a pooled block whose
/// capacity may be a larger size class.  Destruction parks the block back in
/// the arena instead of releasing device memory.
template <typename T>
class ArenaBuffer {
 public:
  using value_type = T;

  ArenaBuffer() = default;

  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  ArenaBuffer(ArenaBuffer&& o) noexcept
      : arena_(o.arena_), buf_(std::move(o.buf_)), n_(o.n_) {
    o.arena_ = nullptr;
    o.n_ = 0;
  }

  ArenaBuffer& operator=(ArenaBuffer&& o) noexcept {
    if (this != &o) {
      free();
      arena_ = o.arena_;
      buf_ = std::move(o.buf_);
      n_ = o.n_;
      o.arena_ = nullptr;
      o.n_ = 0;
    }
    return *this;
  }

  ~ArenaBuffer() { free(); }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] std::size_t bytes() const { return n_ * sizeof(T); }

  [[nodiscard]] std::span<T> span() { return {buf_.data(), n_}; }
  [[nodiscard]] std::span<const T> span() const { return {buf_.data(), n_}; }
  [[nodiscard]] T* data() { return buf_.data(); }
  [[nodiscard]] const T* data() const { return buf_.data(); }

  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }

  /// The backing block, for Device::copy_to_device-style upload helpers.
  /// Its size is the block capacity, not the logical size.
  [[nodiscard]] DeviceBuffer<T>& backing() { return buf_; }

  /// Returns the block to the arena (the arena keeps the device memory).
  void free() {
    if (arena_ != nullptr) {
      arena_->give_back<T>(std::move(buf_));
      arena_ = nullptr;
    }
    n_ = 0;
  }

 private:
  friend class WorkspaceArena;
  ArenaBuffer(WorkspaceArena& arena, DeviceBuffer<T>&& buf, std::size_t n)
      : arena_(&arena), buf_(std::move(buf)), n_(n) {}

  WorkspaceArena* arena_ = nullptr;
  DeviceBuffer<T> buf_;
  std::size_t n_ = 0;
};

template <typename T>
ArenaBuffer<T> WorkspaceArena::alloc(std::size_t n) {
  auto& blocks = pool<T>().blocks;
  // Best fit: the smallest free block with capacity >= n.
  std::size_t best = blocks.size();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].size() >= n &&
        (best == blocks.size() || blocks[i].size() < blocks[best].size())) {
      best = i;
    }
  }
  if (best < blocks.size()) {
    DeviceBuffer<T> b = std::move(blocks[best]);
    blocks[best] = std::move(blocks.back());
    blocks.pop_back();
    return ArenaBuffer<T>(*this, std::move(b), n);
  }
  return ArenaBuffer<T>(*this, DeviceBuffer<T>(*alloc_, size_class(n)), n);
}

template <typename T>
ArenaBuffer<T> WorkspaceArena::adopt(DeviceBuffer<T>&& buf) {
  const std::size_t n = buf.size();
  return ArenaBuffer<T>(*this, std::move(buf), n);
}

}  // namespace gbdt::device
