#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_thread{0};
thread_local int tl_open = -1;
thread_local std::uint32_t tl_thread = g_next_thread.fetch_add(1);

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() const noexcept { return g_enabled.load(std::memory_order_relaxed); }

int Tracer::open(const char* name, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = tl_open;
  rec.request = request;
  rec.thread = tl_thread;
  rec.start = Clock::now();
  rec.end = rec.start;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
  tl_open = static_cast<int>(spans_.size() - 1);
  return tl_open;
}

void Tracer::close(int index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
  rec.end = now;
  tl_open = rec.parent;
}

int Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                int parent, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.start = start;
  rec.end = end;
  rec.parent = parent;
  rec.request = request;
  rec.thread = tl_thread;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = all.empty() ? Clock::now() : all.front().start;
  for (const SpanRecord& s : all) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%lld}}%s\n",
                 s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(), s.thread,
                 us(s.start), us(s.end) - us(s.start), i, s.parent,
                 static_cast<long long>(s.request), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::int64_t request) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) index_ = t.open(name, request);
}

Span::~Span() {
  if (index_ >= 0) Tracer::instance().close(index_);
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point cur = p.start;  // coverage is merged left to right
    for (auto [a, b] : iv) {
      a = std::max(a, cur);
      b = std::min(b, p.end);
      if (b > a) {
        covered += b - a;
        cur = b;
      }
    }
    self[i] = std::chrono::duration<double, std::milli>((p.end - p.start) - covered).count();
  }
  return self;
}

std::vector<double> durations_ms(const std::vector<SpanRecord>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.total_ms += spans[i].ms();
    t.self_ms += self[i];
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
