// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each libpgti module (spans inside the library are a later change).
// Each span keeps its name, start, end, parent span and request id;
// the records stay in memory while the run measures and are written
// once at the end as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;            ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;  ///< request id shared by one request's spans
  std::uint32_t thread = 0;   ///< small per-thread id (Chrome "tid")

  double ms() const { return std::chrono::duration<double, std::milli>(end - start).count(); }
};

/// Process-wide span store.  Recording is off until enable(); with it
/// off a Span costs one relaxed load.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on);
  bool enabled() const noexcept;

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span; returns its index.
  int open(const char* name, std::int64_t request);
  void close(int index);
  /// Records an already-finished span (e.g. a request measured from its
  /// due time on one thread to its completion on another).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t request);

  std::vector<SpanRecord> spans() const;
  void clear();

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microseconds since the first span); returns false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  Tracer() = default;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: open on construction (when tracing is on), close on
/// destruction.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// merged, children are clipped to the parent).  Milliseconds, indexed
/// like `spans`.
std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans);

/// Durations (ms) of every span named `name`.
std::vector<double> durations_ms(const std::vector<SpanRecord>& spans,
                                 const std::string& name);

/// Total and self milliseconds per span name.
struct NameTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
