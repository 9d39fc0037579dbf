// serve-open: an open-loop InferenceEngine over a DistStore reader
// rank, at a low and a high fixed rate; then, untraced, closed loops
// with one request and with two full batches outstanding (the
// end-to-end latency and throughput), or, traced, a capacity ladder.
//
// Open loop: one generator thread sends request i at its due time
// t0 + i/rate whatever the engine is doing, so a stall delays every
// later request and latency is measured from the due time, not from
// the (possibly late) send.  One collector thread gathers the futures
// in send order.
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "heap_count.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/types.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kHorizon = 12;
constexpr std::int64_t kHotWindow = 64;
constexpr std::int64_t kMaxNodes = 8;      ///< node subset size 1..kMaxNodes
constexpr double kTickSeconds = 0.5;       ///< publish + advance_to period
constexpr std::int64_t kHeadStep = 2;      ///< windows the head advances per tick
constexpr std::int64_t kHeadTravel = 400;  ///< windows reserved for head advances
constexpr double kLowRate = 100.0;         ///< requests/s
constexpr double kHighRate = 200.0;
constexpr double kLadderBase = 150.0;      ///< rung 0; rung i is base * 1.05^i
constexpr double kLadderStep = 1.05;
constexpr int kLadderTop = 20;             ///< ~400 requests/s, past the collapse
// The capacity search's p99 limit.  With kernels on one thread the
// p99-vs-rate curve is shallow below ~250 req/s and steep just before
// the engine's queue collapses (~300 req/s); a 25 ms limit crossed the
// shallow part, where run-to-run noise moved the capacity by +-15%.
constexpr double kLatencyLimitMs = 50.0;
constexpr std::int64_t kSaturatedDepth = 128;  ///< outstanding requests at saturation
constexpr double kSaturatedWarmupSeconds = 1.0;
constexpr int kClosedRounds = 6;            ///< rounds of one-at-a-time + saturated
constexpr double kOneAtATimeSeconds = 1.0;  ///< per round
constexpr double kSaturatedSeconds = 2.0;   ///< per round
/// Completions per throughput sample: two full batches.
constexpr std::size_t kRateChunk = 128;
constexpr int kSampleEvery = 16;           ///< one in 16 forecasts is re-checked
constexpr int kSetupReps = 9;
constexpr std::int64_t kWarmupRequests = 300;

/// Gives the engine's worker a CPU of its own.  A thread inherits the
/// affinity mask of the thread that creates it, so the run's own threads
/// (generator, collector, store stagers) are confined to every allowed
/// CPU but the last, and the engine is started with only the last one
/// allowed.  Left free, the worker idles between low-rate requests and
/// the scheduler wakes it on whichever core is free, so each forward
/// starts with cold caches on some requests and warm ones on others:
/// the low-rate median then jumped by ~25% between runs.  No-op with
/// fewer than two CPUs.
class CpuPlan {
 public:
  CpuPlan() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 || CPU_COUNT(&all_) < 2) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) last = c;
    }
    others_ = all_;
    CPU_CLR(last, &others_);
    CPU_SET(last, &worker_);
    active_ = sched_setaffinity(0, sizeof(others_), &others_) == 0;
  }
  ~CpuPlan() {
    if (active_) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuPlan(const CpuPlan&) = delete;
  CpuPlan& operator=(const CpuPlan&) = delete;

  /// Runs `start` (which spawns the worker) on the worker's CPU.
  template <class Fn>
  void start_worker(Fn&& start) {
    if (active_) sched_setaffinity(0, sizeof(worker_), &worker_);
    struct Restore {
      const CpuPlan* plan;
      ~Restore() {
        if (plan->active_) sched_setaffinity(0, sizeof(plan->others_), &plan->others_);
      }
    } restore{this};
    start();
  }

 private:
  cpu_set_t all_{};
  cpu_set_t others_{};
  cpu_set_t worker_{};
  bool active_ = false;
};

/// Everything one serving deployment needs, built in set-up order.
struct Rig {
  data::DatasetSpec spec = train_index_spec();
  SensorNetwork net;
  Tensor raw;
  std::unique_ptr<data::IndexDataset> ds;  ///< reference windows and targets
  std::unique_ptr<dist::DistStore> store;
  int reader = -1;
  core::ModelBundle live;
  std::unique_ptr<serve::SnapshotSlot> slot;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::map<std::uint64_t, std::shared_ptr<const serve::ModelSnapshot>> versions;
  std::int64_t head = 0;
  int ticks = 0;

  Rig(std::uint64_t seed, CpuPlan& cpus) {
    net = data::network_for(spec);
    {
      Span s("data.generate_signal");
      raw = data::generate_signal(spec, net, seed);
    }
    {
      Span s("data.preprocess");
      ds = std::make_unique<data::IndexDataset>(raw, spec);
      data::StandardDataset standard(raw, spec);
      Span d("dist.DistStore.build");
      store = std::make_unique<dist::DistStore>(
          std::move(standard), /*world=*/1, dist::NetworkModel{},
          /*consolidate_requests=*/true, /*cache_snapshots=*/-1, /*cache_bytes=*/0,
          /*async_prefetch=*/true);
      reader = store->add_reader();
    }
    live = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, kTrainIndexHidden,
                            kTrainIndexDiffusion, kModelLayers, seed);
    slot = std::make_unique<serve::SnapshotSlot>(core::ModelKind::kPgtDcrnn, spec, net,
                                                 kTrainIndexHidden, kTrainIndexDiffusion,
                                                 kModelLayers, seed);
    publish();
    serve::EngineConfig cfg;  // defaults: 1 ms window, max batch 64
    cfg.hot_window = kHotWindow;
    engine = std::make_unique<serve::InferenceEngine>(*slot, *store, reader, cfg);
    cpus.start_worker([&] { engine->start(); });
    head = store->num_snapshots() - 1 - kHeadTravel;
    engine->advance_to(head);
  }

  ~Rig() {
    if (engine) engine->stop();
  }

  void publish() {
    Span s("serve.SnapshotSlot.publish");
    auto snap = slot->publish(*live.model, ticks);
    versions[snap->version()] = std::move(snap);
  }

  /// One stream tick: a new model version and a newer head window.
  void tick() {
    ++ticks;
    publish();
    head = std::min(head + kHeadStep, store->num_snapshots() - 1);
    Span s("serve.InferenceEngine.advance_to");
    engine->advance_to(head);
  }
};

/// One request as the collector sees it.
struct InFlight {
  std::int64_t id = 0;  ///< request id (shared by its spans)
  Clock::time_point due;
  Clock::time_point sent;
  std::future<serve::Forecast> future;
  std::int64_t window = 0;
  std::vector<std::int64_t> nodes;
  bool sample = false;
};

struct Sampled {
  std::int64_t window = 0;
  std::vector<std::int64_t> nodes;
  serve::Forecast forecast;
};

struct PhaseResult {
  Clock::time_point start;
  std::vector<double> latency_ms;  ///< due -> completion, completed requests
  std::vector<double> queue_ms;    ///< submit -> batch formation (engine-reported)
  std::vector<double> service_ms;  ///< latency minus queue wait
  std::vector<double> traced_ms, untraced_ms;
  std::vector<LagSample> lags;
  std::vector<Sampled> samples;
  std::int64_t sent = 0;
  std::int64_t refused = 0;   ///< rejected at submit (queue full)
  std::int64_t errored = 0;   ///< failed through the future
  std::int64_t over_limit = 0;
  double gen_late_ms_max = 0.0;
  bool aborted = false;
  std::uint64_t batches = 0;
  std::uint64_t completed = 0;
  std::uint64_t heap_calls = 0;
};

/// Draws the next request: one of the hot windows, 1..kMaxNodes
/// distinct nodes, and whether its forecast is re-checked.
serve::ForecastRequest draw_request(const Rig& rig, Rng& rng, std::int64_t& next_id,
                                    InFlight& f) {
  f.id = next_id++;
  f.window = rig.head - static_cast<std::int64_t>(rng.next_u64() % kHotWindow);
  const std::int64_t k = 1 + static_cast<std::int64_t>(rng.next_u64() % kMaxNodes);
  while (static_cast<std::int64_t>(f.nodes.size()) < k) {
    const auto node = static_cast<std::int64_t>(rng.next_u64() % rig.spec.nodes);
    if (std::find(f.nodes.begin(), f.nodes.end(), node) == f.nodes.end()) {
      f.nodes.push_back(node);
    }
  }
  std::sort(f.nodes.begin(), f.nodes.end());
  f.sample = rng.next_u64() % kSampleEvery == 0;
  serve::ForecastRequest req;
  req.snapshot = f.window;
  req.horizon = kHorizon;
  req.nodes = f.nodes;
  return req;
}

/// Sends `count` requests at `rate` on the open-loop schedule.  With
/// `abort_over` > 0 the phase stops sending once that many requests
/// have missed the latency limit (the rung has already failed).
PhaseResult run_phase(Rig& rig, Rng& rng, double rate, std::int64_t count,
                      std::int64_t abort_over, std::int64_t& next_id, const char* name) {
  PhaseResult res;
  const serve::ServeStats before = rig.engine->stats();
  const std::uint64_t heap0 = heap_calls();
  Tracer& tracer = Tracer::instance();
  const bool tracing = tracer.enabled();
  Span phase_span(name);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> pending;
  bool done_sending = false;
  std::atomic<bool> abort{false};

  res.start = Clock::now();
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done_sending; });
        if (pending.empty()) return;
        f = std::move(pending.front());
        pending.pop_front();
      }
      try {
        serve::Forecast fc = f.future.get();
        const Clock::time_point end = Clock::now();
        const double lat = std::chrono::duration<double, std::milli>(end - f.due).count();
        res.latency_ms.push_back(lat);
        res.queue_ms.push_back(fc.queue_seconds * 1e3);
        res.service_ms.push_back(lat - fc.queue_seconds * 1e3);
        res.lags.push_back({std::chrono::duration<double>(f.due - res.start).count(), lat});
        if (lat > kLatencyLimitMs && abort_over > 0 && ++res.over_limit >= abort_over) {
          abort.store(true);
        }
        if (tracing) {
          (f.id % 2 == 0 ? res.traced_ms : res.untraced_ms).push_back(lat);
          if (f.id % 2 == 0) {
            const auto queued = f.sent + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(fc.queue_seconds));
            const int req = tracer.add("serve.request", f.due, end, -1, f.id);
            tracer.add("serve.send_delay", f.due, f.sent, req, f.id);
            tracer.add("serve.queue", f.sent, queued, req, f.id);
            tracer.add("serve.batch_and_forward", queued, end, req, f.id);
          }
        }
        if (f.sample) res.samples.push_back({f.window, std::move(f.nodes), std::move(fc)});
      } catch (const std::exception&) {
        ++res.errored;
      }
    }
  });

  // The collector must be joined on every path out of here.
  std::exception_ptr send_error;
  try {
    const Clock::time_point t0 = res.start;
    Clock::time_point next_tick = t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(kTickSeconds));
    for (std::int64_t i = 0; i < count && !abort.load(); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (due >= next_tick) {
        rig.tick();
        next_tick += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kTickSeconds));
      }
      // The request is drawn before the wait so the send is on time.
      InFlight f;
      serve::ForecastRequest req = draw_request(rig, rng, next_id, f);
      f.due = due;
      std::this_thread::sleep_until(due);
      f.sent = Clock::now();
      res.gen_late_ms_max = std::max(
          res.gen_late_ms_max, std::chrono::duration<double, std::milli>(f.sent - due).count());
      ++res.sent;
      try {
        f.future = rig.engine->submit(std::move(req));
      } catch (const serve::QueueFullError&) {
        ++res.refused;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(f));
      }
      cv.notify_one();
    }
  } catch (...) {
    send_error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
  if (send_error) std::rethrow_exception(send_error);
  res.aborted = abort.load();
  const serve::ServeStats after = rig.engine->stats();
  res.batches = after.batches - before.batches;
  res.completed = after.completed - before.completed;
  res.heap_calls = heap_calls() - heap0;
  return res;
}

struct ClosedResult {
  std::vector<double> done_s;      ///< completion times, seconds since the phase started
  std::vector<double> latency_ms;  ///< submit -> completion
  std::vector<Sampled> samples;
  std::int64_t sent = 0;
  std::int64_t refused = 0;
  std::int64_t errored = 0;
  std::uint64_t batches = 0;
  std::uint64_t completed = 0;
};

/// Closed loop for `seconds` with `depth` requests outstanding: the
/// one calling thread submits, waits on the oldest future and tops the
/// queue up again.  Requests outstanding at the end are collected (and
/// checked) but not timed.
ClosedResult run_closed(Rig& rig, Rng& rng, std::int64_t depth, double seconds,
                        std::int64_t& next_id, const char* name) {
  ClosedResult res;
  const serve::ServeStats before = rig.engine->stats();
  Span phase_span(name);
  std::deque<InFlight> inflight;
  const Clock::time_point t0 = Clock::now();
  const auto period = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point end = t0 + period(seconds);
  Clock::time_point next_tick = t0 + period(kTickSeconds);
  const auto collect = [&](bool timed) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    try {
      serve::Forecast fc = f.future.get();
      if (timed) {
        const Clock::time_point now = Clock::now();
        res.done_s.push_back(std::chrono::duration<double>(now - t0).count());
        res.latency_ms.push_back(std::chrono::duration<double, std::milli>(now - f.sent).count());
      }
      if (f.sample) res.samples.push_back({f.window, std::move(f.nodes), std::move(fc)});
    } catch (const std::exception&) {
      ++res.errored;
    }
  };
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= end) break;
    if (now >= next_tick) {
      rig.tick();
      next_tick += period(kTickSeconds);
    }
    while (static_cast<std::int64_t>(inflight.size()) < depth) {
      InFlight f;
      serve::ForecastRequest req = draw_request(rig, rng, next_id, f);
      f.due = f.sent = Clock::now();
      ++res.sent;
      try {
        f.future = rig.engine->submit(std::move(req));
      } catch (const serve::QueueFullError&) {
        ++res.refused;
        break;
      }
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;
    collect(true);
  }
  while (!inflight.empty()) collect(false);
  const serve::ServeStats after = rig.engine->stats();
  res.batches = after.batches - before.batches;
  res.completed = after.completed - before.completed;
  return res;
}

/// Re-runs each sampled forecast as a batch-of-one forward_seq against
/// the snapshot version that served it and compares the bytes; returns
/// the number of mismatches.
std::int64_t verify_samples(const Rig& rig, const std::vector<Sampled>& samples) {
  std::int64_t bad = 0;
  for (const Sampled& s : samples) {
    const auto it = rig.versions.find(s.forecast.snapshot_version);
    if (it == rig.versions.end()) {
      ++bad;
      continue;
    }
    const nn::SeqModel& model = it->second->model();
    Tensor x = Tensor::empty({1, rig.spec.horizon, rig.spec.nodes, rig.spec.features});
    x.select(0, 0).copy_from(rig.ds->get(s.window).first);
    const std::vector<Variable> out = model.forward_seq(x);
    const auto n = static_cast<std::int64_t>(s.nodes.size());
    Tensor ref = Tensor::empty({kHorizon, n, model.output_dim()});
    for (int t = 0; t < kHorizon; ++t) {
      const Tensor row = out[static_cast<std::size_t>(t)].value().select(0, 0);
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t node = s.nodes[static_cast<std::size_t>(j)];
        ref.select(0, t).select(0, j).copy_from(row.select(0, node));
      }
    }
    const Tensor& got = s.forecast.prediction;
    const std::size_t bytes = static_cast<std::size_t>(ref.numel()) * sizeof(float);
    if (got.shape() != ref.shape() || std::memcmp(got.data(), ref.data(), bytes) != 0) {
      ++bad;
    }
  }
  return bad;
}

/// Latencies of completed requests plus +inf for each refused one: a
/// refused request misses every latency limit.
std::vector<double> with_refusals(const PhaseResult& r) {
  std::vector<double> v = r.latency_ms;
  v.insert(v.end(), static_cast<std::size_t>(r.refused), std::numeric_limits<double>::infinity());
  return v;
}

double p99_or_inf(const PhaseResult& r) {
  return percentile(with_refusals(r), 0.99).value_or(std::numeric_limits<double>::infinity());
}

void print_phase(const char* name, double rate, const PhaseResult& r) {
  std::printf("%-6s %7.1f req/s: sent %lld, p50 %.3f ms (queue %.3f, service %.3f), "
              "p99 %.3f ms, mean batch %.2f, generator late <= %.3f ms\n",
              name, rate, static_cast<long long>(r.sent), median(r.latency_ms),
              median(r.queue_ms), median(r.service_ms), p99_or_inf(r),
              r.batches > 0 ? static_cast<double>(r.completed) / static_cast<double>(r.batches)
                            : 0.0,
              r.gen_late_ms_max);
}

}  // namespace

Report run_serve_open(const Options& opt) {
  Report report;
  Tracer::instance().enable(opt.trace);
  MemoryTracker::instance().reset_peak(kHostSpace);
  CpuPlan cpus;

  // Set-up several times (the last deployment serves): data, store
  // materialization, model build, first publish, engine start.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupReps; ++i) {
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Span s("serve.setup");
      rig = std::make_unique<Rig>(opt.seed, cpus);
    }
    setup_s.push_back(seconds_since(t0));
  }

  Rng rng(opt.seed);
  std::int64_t next_id = 0;
  const auto n_fixed = static_cast<std::int64_t>(samples_for(0.99));
  // Warm-up, not measured: fills the hot window's cache and plans the
  // engine's arena for low-load batch shapes.
  const PhaseResult warm = run_phase(*rig, rng, kLowRate, kWarmupRequests, 0, next_id,
                                     "serve.warmup");
  report.check(warm.refused + warm.errored == 0, "warm-up requests all served");
  const PhaseResult low = run_phase(*rig, rng, kLowRate, n_fixed, 0, next_id, "serve.phase_low");
  // Memory of the deployment serving at low load.  Higher rates form
  // larger batches whose arena demand depends on how the requests
  // happened to coalesce, which varies from run to run.
  const double peak_host_mb =
      static_cast<double>(MemoryTracker::instance().peak(kHostSpace)) / 1e6;
  const PhaseResult high =
      run_phase(*rig, rng, kHighRate, n_fixed, 0, next_id, "serve.phase_high");
  print_phase("low", kLowRate, low);
  print_phase("high", kHighRate, high);

  std::int64_t mismatches = verify_samples(*rig, low.samples) + verify_samples(*rig, high.samples);
  std::int64_t errored = low.errored + high.errored;
  report.attempted = low.sent + high.sent;
  report.failed = low.refused + high.refused;
  report.check(low.refused + high.refused == 0, "no request refused at the fixed rates");

  if (!opt.trace) {
    // Closed loops, alternated in short rounds so each figure samples
    // the whole stretch of the run: on a shared host the machine's
    // speed drifts for seconds at a time, and a figure measured in one
    // contiguous phase inherits whatever stretch it fell in.
    //  - One request at a time: the worker never idles long between
    //    requests, so its caches and core state do not depend on how
    //    long it slept (the open-loop low-rate p50, printed, moved by
    //    ~20% between runs; this one by ~5%).
    //  - Saturation: kSaturatedDepth is twice the engine's max batch,
    //    so the worker finds a full batch queued every time it
    //    finishes one.  A short saturated warm-up first plans the
    //    engine's arena for full batches.
    std::vector<ClosedResult> loops;
    loops.push_back(run_closed(*rig, rng, kSaturatedDepth, kSaturatedWarmupSeconds, next_id,
                               "serve.saturated_warmup"));
    std::vector<double> one_ms, rates;
    std::uint64_t sat_batches = 0, sat_completed = 0;
    for (int round = 0; round < kClosedRounds; ++round) {
      loops.push_back(
          run_closed(*rig, rng, 1, kOneAtATimeSeconds, next_id, "serve.one_at_a_time"));
      const ClosedResult& one = loops.back();
      one_ms.insert(one_ms.end(), one.latency_ms.begin(), one.latency_ms.end());
      loops.push_back(run_closed(*rig, rng, kSaturatedDepth, kSaturatedSeconds, next_id,
                                 "serve.saturated"));
      const ClosedResult& sat = loops.back();
      const std::vector<double> r = chunk_rates(sat.done_s, kRateChunk);
      rates.insert(rates.end(), r.begin(), r.end());
      sat_batches += sat.batches;
      sat_completed += sat.completed;
    }
    std::int64_t refused = 0;
    for (const ClosedResult& r : loops) {
      mismatches += verify_samples(*rig, r.samples);
      errored += r.errored;
      report.attempted += r.sent;
      refused += r.refused;
    }
    report.failed += refused;
    report.check(refused == 0, "no request refused in the closed loops");
    const double saturated = median(rates);
    const double one_p50 = median(one_ms);
    std::printf("one at a time: %zu requests, p50 %.3f ms\n", one_ms.size(), one_p50);
    std::printf("saturated, %lld outstanding: %zu runs of %zu, mean batch %.2f, %.2f req/s\n",
                static_cast<long long>(kSaturatedDepth), rates.size(), kRateChunk,
                sat_batches > 0
                    ? static_cast<double>(sat_completed) / static_cast<double>(sat_batches)
                    : 0.0,
                saturated);

    report.set("setup_s", median(setup_s));
    report.set("throughput_per_s", saturated);
    report.set("latency_p50_ms", one_p50);
    report.set("peak_host_mb", peak_host_mb);
    std::printf("serve_p50_ms_low = %.4f ms\nserve_p99_ms_low = %.4f ms\n"
                "serve_p50_ms_high = %.4f ms\nserve_p99_ms_high = %.4f ms\n"
                "serve_p50_ms_one_at_a_time = %.4f ms\nserve_saturated_rps = %.2f 1/s\n",
                median(low.latency_ms), p99_or_inf(low), median(high.latency_ms),
                p99_or_inf(high), one_p50, saturated);
  } else {
    std::vector<double> queue = low.queue_ms;
    queue.insert(queue.end(), high.queue_ms.begin(), high.queue_ms.end());
    std::vector<double> service = low.service_ms;
    service.insert(service.end(), high.service_ms.begin(), high.service_ms.end());
    const double batches = static_cast<double>(low.batches + high.batches);
    report.set("serve.queue_ms_p50", median(queue));
    report.set("serve.queue_ms_p99", percentile(queue, 0.99).value_or(0.0));
    report.set("serve.service_ms_p50", median(service));
    report.set("serve.batch_mean", static_cast<double>(low.completed + high.completed) / batches);
    report.set("serve.p50_ms_low", median(low.latency_ms));
    report.set("serve.p99_ms_low", p99_or_inf(low));
    report.set("serve.p50_ms_high", median(high.latency_ms));
    report.set("serve.p99_ms_high", p99_or_inf(high));
    report.set("serve.gen_late_ms_max", std::max(low.gen_late_ms_max, high.gen_late_ms_max));
    report.set("runtime.heap_calls_per_batch",
               static_cast<double>(low.heap_calls + high.heap_calls) / batches);
    const dist::StoreStats st = rig->store->stats();
    report.set("dist.reader_hit_ratio",
               st.remote_snapshots > 0 ? static_cast<double>(st.cache_hits) /
                                             static_cast<double>(st.remote_snapshots)
                                       : 0.0);
    report.set("dist.reader_copied_mb", static_cast<double>(st.bytes_copied) / 1e6);
    const double untraced = median(low.untraced_ms);
    report.set("trace.overhead_pct", 100.0 * (median(low.traced_ms) - untraced) / untraced);
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    const std::vector<double> self = self_times_ms(spans);
    std::vector<double> uncovered;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "serve.request") uncovered.push_back(100.0 * self[i] / spans[i].ms());
    }
    report.set("trace.uncovered_pct", median(uncovered));
    report.set("data.signal_s", median(durations_ms(spans, "data.generate_signal")) / 1e3);
    report.set("data.preprocess_s", median(durations_ms(spans, "data.preprocess")) / 1e3);
    // Capacity, with recording off: the highest ladder rung whose p99
    // meets the limit with no refusals and no growing backlog.  A
    // rung's refusals fail the rung; they are the overload the search
    // looks for, not errors.  A rung fails only when two probes in a
    // row fail, so one scheduling stall cannot sink a rung that
    // sustains its rate.  It moved by 15-40% between runs on a shared
    // host, too much for a bound, so it is a per-layer figure; the
    // end-to-end throughput is the saturated rate of the untraced run.
    Tracer::instance().enable(false);
    const auto probe = [&](int rung) {
      const double rate = rung_rate(kLadderBase, kLadderStep, rung);
      const PhaseResult r = run_phase(*rig, rng, rate, n_fixed, kMinBeyond + 1, next_id,
                                      "serve.ladder_rung");
      mismatches += verify_samples(*rig, r.samples);
      errored += r.errored;
      report.attempted += r.sent;
      const double p99 = p99_or_inf(r);
      const bool backlog = backlog_growing(r.lags);
      const bool ok = !r.aborted && r.refused == 0 && r.errored == 0 &&
                      p99 <= kLatencyLimitMs && !backlog;
      std::printf("rung %2d %7.1f req/s: sent %lld, p99 %.3f ms%s -> %s\n", rung, rate,
                  static_cast<long long>(r.sent), p99, backlog ? ", backlog growing" : "",
                  ok ? "pass" : "fail");
      return ok;
    };
    const auto passes = [&](int rung) { return probe(rung) || probe(rung); };
    const int rung = highest_passing_rung(kLadderTop, passes);
    report.check(rung >= 0, "capacity ladder: the lowest rung meets the latency limit");
    const double capacity = rung >= 0 ? rung_rate(kLadderBase, kLadderStep, rung) : 0.0;

    report.set("serve.capacity_rps", capacity);
    std::printf("serve_capacity_rps = %.2f 1/s\n", capacity);
    Tracer::instance().enable(true);
    const data::IndexSource source(*rig->ds);
    probe_forwards(*rig->live.model, source, core::ModelKind::kPgtDcrnn, rig->spec, rig->net,
                   kTrainIndexHidden, kTrainIndexDiffusion, opt.seed, report);
    probe_kernels(report);
  }
  report.check(errored == 0, "no request failed through its future");
  report.check(mismatches == 0,
               "sampled forecasts are bit-identical to batch-of-one forwards of their version");
  report.failed += errored + mismatches;
  return report;
}

}  // namespace perfbench
