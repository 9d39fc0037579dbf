// Process-wide keyed scratch-buffer cache (DESIGN.md §16).
//
// Kernels like matmul_nt need shape-dependent scratch (the [K, N]
// transpose of B) that the seed reallocated on every call even when
// the shape never changed — per-call heap traffic on the hottest
// backward path.  WorkspaceCache keys buffers by (tag, numel, space)
// and hands out RAII handles: acquire pops a cached buffer or
// heap-allocates one, the handle's destructor returns it to the cache.
// Distinct concurrent acquires of the same key get distinct buffers
// (pop-or-allocate), so ranks running in parallel never share scratch.
//
// Buffers are charged to the MemoryTracker only while acquired —
// mirroring TensorArena — so the paper's in-use accounting is
// unaffected by what the cache retains.  Workspace contents are
// UNINITIALIZED on acquire; every user fully writes its scratch before
// reading it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/memory_tracker.h"

namespace pgti::runtime {

class WorkspaceCache {
 public:
  struct Entry;  // internal; stable address per (tag, numel, space) key

  /// Move-only RAII lease on one workspace buffer.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { swap(other); }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        reset();
        swap(other);
      }
      return *this;
    }
    ~Handle() { reset(); }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    float* data() const noexcept { return data_; }
    explicit operator bool() const noexcept { return data_ != nullptr; }

    /// Returns the buffer to the cache early (idempotent).
    void reset() noexcept;

   private:
    friend class WorkspaceCache;
    void swap(Handle& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(entry_, other.entry_);
    }
    float* data_ = nullptr;
    Entry* entry_ = nullptr;
  };

  static WorkspaceCache& instance();

  /// Leases a buffer of exactly `numel` floats for key (tag, numel,
  /// space).  Charges the MemoryTracker (may throw OutOfMemoryError);
  /// the handle's destructor refunds the charge and recycles the
  /// buffer.  Contents are uninitialized.
  Handle acquire(const char* tag, std::int64_t numel,
                 MemorySpaceId space = kHostSpace);

  struct Stats {
    std::uint64_t acquires = 0;     ///< total leases handed out
    std::uint64_t allocations = 0;  ///< leases that hit the heap
    std::uint64_t buffers_cached = 0;
    std::size_t bytes_cached = 0;  ///< idle bytes retained for reuse
  };
  Stats stats() const;

 private:
  WorkspaceCache() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::uint64_t acquires_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace pgti::runtime
