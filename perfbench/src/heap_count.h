// Real heap-call counter.  heap_count.cpp replaces the global
// operator new/delete of the benchmark binary, so every C++ heap
// allocation — tensors, autograd nodes, std containers, shared_ptr
// control blocks — is counted, not only the tensor bytes MemoryTracker
// charges (its heap_allocs_total() sees tensor storage only).
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

/// operator new calls (all forms) since process start, all threads.
std::uint64_t heap_calls() noexcept;

/// Arms a one-shot mark: the first heap call the calling thread makes
/// while a runtime::ArenaScope is open on it.  Trainer::run opens no
/// scope on its thread until EpochEngine opens one per train step, so
/// the mark is the start of the first train step — the end of set-up.
void arm_first_step_mark();

/// The armed mark, or time_point::max() when it has not fired.
std::chrono::steady_clock::time_point first_step_mark();

}  // namespace perfbench
