#include "heap_count.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "runtime/arena.h"

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<std::uint64_t> g_calls{0};
std::atomic<bool> g_mark_armed{false};
std::atomic<std::thread::id> g_mark_thread{};
std::atomic<Clock::rep> g_mark{Clock::time_point::max().time_since_epoch().count()};

void check_mark() {
  if (!g_mark_armed.load(std::memory_order_acquire)) return;
  if (std::this_thread::get_id() != g_mark_thread.load(std::memory_order_relaxed)) return;
  if (pgti::runtime::current_arena() == nullptr) return;
  g_mark.store(Clock::now().time_since_epoch().count(), std::memory_order_relaxed);
  g_mark_armed.store(false, std::memory_order_release);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  check_mark();
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc needs a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {
std::uint64_t heap_calls() noexcept { return g_calls.load(std::memory_order_relaxed); }

void arm_first_step_mark() {
  g_mark.store(Clock::time_point::max().time_since_epoch().count());
  g_mark_thread.store(std::this_thread::get_id(), std::memory_order_relaxed);
  g_mark_armed.store(true, std::memory_order_release);
}

Clock::time_point first_step_mark() {
  return Clock::time_point(Clock::duration(g_mark.load()));
}
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_or_throw(size, 0); }
void* operator new[](std::size_t size) { return counted_or_throw(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
