#include "runtime/workspace.h"

#include <cstring>

namespace pgti::runtime {

struct WorkspaceCache::Entry {
  std::string tag;
  std::int64_t numel = 0;
  MemorySpaceId space = kHostSpace;
  std::vector<float*> free;  ///< idle buffers for this key

  // The cache retains buffers for the process lifetime, but the
  // singleton's static destructor must still hand them back so leak
  // checkers see a clean exit.  (Buffers on lease at that point belong
  // to their Handle.)
  ~Entry() {
    for (float* p : free) delete[] p;
  }
};

WorkspaceCache& WorkspaceCache::instance() {
  static WorkspaceCache cache;
  return cache;
}

WorkspaceCache::Handle WorkspaceCache::acquire(const char* tag, std::int64_t numel,
                                               MemorySpaceId space) {
  const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = nullptr;
  // Linear scan: the key population is tiny (a handful of kernel tags
  // times a handful of live shapes) and scanning is alloc-free, unlike
  // map lookups keyed by freshly built strings.
  for (const auto& e : entries_) {
    if (e->numel == numel && e->space == space && e->tag == tag) {
      entry = e.get();
      break;
    }
  }
  if (entry == nullptr) {
    entries_.push_back(std::make_unique<Entry>());
    entry = entries_.back().get();
    entry->tag = tag;
    entry->numel = numel;
    entry->space = space;
  }

  Handle h;
  h.entry_ = entry;
  ++acquires_;
  if (!entry->free.empty()) {
    MemoryTracker::instance().on_alloc(space, bytes, /*from_heap=*/false);
    h.data_ = entry->free.back();
    entry->free.pop_back();
  } else {
    MemoryTracker::instance().on_alloc(space, bytes, /*from_heap=*/true);
    try {
      h.data_ = new float[static_cast<std::size_t>(numel)];
    } catch (...) {
      MemoryTracker::instance().on_free(space, bytes);
      throw;
    }
    ++allocations_;
  }
  return h;
}

void WorkspaceCache::Handle::reset() noexcept {
  if (data_ == nullptr || entry_ == nullptr) return;
  WorkspaceCache& cache = WorkspaceCache::instance();
  {
    std::lock_guard<std::mutex> lock(cache.mu_);
    entry_->free.push_back(data_);
  }
  MemoryTracker::instance().on_free(
      entry_->space, static_cast<std::size_t>(entry_->numel) * sizeof(float));
  data_ = nullptr;
  entry_ = nullptr;
}

WorkspaceCache::Stats WorkspaceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.acquires = acquires_;
  s.allocations = allocations_;
  for (const auto& e : entries_) {
    s.buffers_cached += static_cast<std::uint64_t>(e->free.size());
    s.bytes_cached +=
        e->free.size() * static_cast<std::size_t>(e->numel) * sizeof(float);
  }
  return s;
}

}  // namespace pgti::runtime
