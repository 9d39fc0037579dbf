// train-index and ddp-store: Trainer::run / DistTrainer::run repeated
// for the run's duration, plus the traced step loop for per-layer
// numbers.
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/epoch_engine.h"
#include "heap_count.h"
#include "runtime/arena.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Every repetition trains kEpochs epochs of kTrainCap train and kValCap
// validation batches; epoch 0 is the warm-up and is not timed.  Each
// timed epoch is one throughput sample, and the run reports medians
// over all of them: per-step times on this workload vary by about 10%
// from step to step, so more samples steady the median.
constexpr int kEpochs = 4;
constexpr std::int64_t kTrainCap = 4;
constexpr std::int64_t kValCap = 2;
constexpr int kMinReps = 3;

core::TrainConfig train_index_config(std::uint64_t seed) {
  core::TrainConfig c;
  c.spec = train_index_spec();
  c.model = core::ModelKind::kPgtDcrnn;
  c.mode = core::BatchingMode::kIndex;
  c.epochs = kEpochs;
  c.hidden_dim = kTrainIndexHidden;
  c.diffusion_steps = kTrainIndexDiffusion;
  c.num_layers = kModelLayers;
  c.seed = seed;
  c.use_device = true;
  c.prefetch_depth = 2;
  c.max_batches_per_epoch = kTrainCap;
  c.max_val_batches = kValCap;
  return c;
}

core::DistConfig ddp_store_config(std::uint64_t seed) {
  core::DistConfig c;
  c.spec = data::spec_for(data::DatasetKind::kPems).scaled(32);
  c.model = core::ModelKind::kPgtDcrnn;
  c.mode = core::DistMode::kBaselineDdp;
  c.world = 2;
  c.epochs = kEpochs;
  c.hidden_dim = 16;
  c.diffusion_steps = 1;
  c.seed = seed;
  c.prefetch_depth = 2;
  c.grad_overlap = core::GradOverlap::kStrict;
  c.max_batches_per_epoch = kTrainCap;
  c.max_val_batches = kValCap;
  return c;
}

/// Samples one rank consumes per epoch: capped full train batches
/// (drop_last) plus capped validation batches, which the configs keep
/// full so the count is exact.
struct EpochWork {
  std::int64_t samples = 0;
  std::int64_t batches = 0;
};

EpochWork epoch_work(const data::DatasetSpec& spec, int world) {
  const data::SplitRanges s = data::split_ranges(spec.num_snapshots());
  const std::int64_t b = spec.batch_size;
  const std::int64_t train_shard = (s.train_end - s.train_begin) / world;
  const std::int64_t val_shard = (s.val_end - s.val_begin) / world;
  if (train_shard < kTrainCap * b || val_shard < kValCap * b) {
    throw std::logic_error("perfbench: workload splits too small for full capped batches");
  }
  return {(kTrainCap + kValCap) * b * world, kTrainCap + kValCap};
}

/// Per-repetition (set-up, memory) and per-epoch (throughput,
/// latency) figures, reduced to medians at the end of the run.
struct Reps {
  std::vector<double> setup_s, throughput, batch_ms, peak_host_mb, peak_device_mb;
  std::optional<double> val_mae;  ///< first repetition's, for the bitwise check
};

/// Throughput and per-batch latency of each post-warm-up epoch.
void add_epochs(const std::vector<core::EpochMetrics>& curve, const EpochWork& work,
                Reps& reps) {
  for (std::size_t e = 1; e < curve.size(); ++e) {
    const double wall = curve[e].wall_seconds;
    reps.throughput.push_back(static_cast<double>(work.samples) / wall);
    reps.batch_ms.push_back(wall * 1e3 / static_cast<double>(work.batches));
  }
}

/// Checks shared by both trainers: finite losses, and a best
/// validation MAE bit-identical to the first repetition at this seed.
bool check_curve(const std::vector<core::EpochMetrics>& curve, double best_val_mae,
                 Reps& reps, Report& report) {
  bool ok = curve.size() == static_cast<std::size_t>(kEpochs);
  for (const core::EpochMetrics& e : curve) {
    ok = ok && std::isfinite(e.train_mae) && std::isfinite(e.val_mae);
  }
  report.check(ok, "every training loss is finite");
  if (!reps.val_mae) reps.val_mae = best_val_mae;
  const bool same = std::memcmp(&*reps.val_mae, &best_val_mae, sizeof(double)) == 0;
  report.check(same, "val_mae is bit-identical across repetitions at one seed");
  return ok && same;
}

/// Repeats `rep` until `seconds` would be exceeded (at least `min_reps`
/// times).  A repetition that throws or fails a check counts as failed.
void repeat_for(double seconds, int min_reps, Report& report,
                const std::function<bool()>& rep) {
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  while (report.attempted < min_reps || seconds_since(t0) + last <= seconds) {
    const Clock::time_point t = Clock::now();
    ++report.attempted;
    bool ok = false;
    try {
      ok = rep();
    } catch (const std::exception& e) {
      report.check(false, std::string("training run threw: ") + e.what());
    }
    if (!ok) ++report.failed;
    last = seconds_since(t);
  }
}

void set_e2e(const Reps& reps, Report& report) {
  report.set("setup_s", median(reps.setup_s));
  report.set("throughput_per_s", median(reps.throughput));
  report.set("latency_p50_ms", median(reps.batch_ms));
  report.set("peak_host_mb", median(reps.peak_host_mb));
  std::printf("train_samples_per_s = %.4f 1/s\n", median(reps.throughput));
  if (!reps.peak_device_mb.empty()) {
    std::printf("peak_device_mb = %.4f MB\n", median(reps.peak_device_mb));
  }
  std::printf("val_mae = %.6f signal (bit-identical across %lld runs)\n",
              reps.val_mae.value_or(0.0), static_cast<long long>(reps.setup_s.size()));
}

// ---------------------------------------------------------------- traced

/// The per-layer step loop: the public calls EpochEngine::train_epoch
/// and eval_epoch issue, in the same order, one ArenaScope per step,
/// each wrapped in a span.  Tracing alternates step by step so traced
/// and untraced steps interleave under the same conditions; their
/// difference is the tracing overhead.
void traced_loop(nn::SeqModel& model, data::DataLoader& train_loader,
                 data::DataLoader& val_loader, int depth,
                 const std::function<void()>& on_batch, double budget_s, Report& report) {
  std::vector<Variable> params = model.parameters();
  optim::Adam opt(params, optim::Adam::Options{});
  core::BatchPipeline train_pipe(train_loader, depth, on_batch);
  core::BatchPipeline val_pipe(val_loader, depth, on_batch);
  runtime::TensorArena arena;
  Tracer& tracer = Tracer::instance();
  auto& tracker = MemoryTracker::instance();

  std::vector<double> traced_ms, untraced_ms, all_ms, heap_calls_step, tracked_step;
  const std::size_t min_steps = samples_for(0.9);
  const Clock::time_point t0 = Clock::now();
  bool finite = true;
  data::Batch batch;
  for (int epoch = 0; all_ms.size() < min_steps || seconds_since(t0) < budget_s; ++epoch) {
    train_pipe.start_epoch(epoch, kTrainCap);
    for (std::int64_t i = 0; i < kTrainCap; ++i) {
      const bool traced = all_ms.size() % 2 == 0;
      tracer.enable(traced);
      runtime::ArenaScope scope(arena);
      const std::uint64_t heap0 = heap_calls();
      const std::uint64_t tracked0 = tracker.heap_allocs_total();
      const Clock::time_point ts = Clock::now();
      {
        Span step("train.step");
        bool have = false;
        {
          Span s("data.next");
          have = train_pipe.next(batch);
        }
        if (!have) throw std::logic_error("perfbench: train pipeline ended early");
        std::vector<Variable> outputs;
        {
          Span s("nn.forward_seq");
          outputs = model.forward_seq(batch.x);
        }
        Variable loss;
        {
          Span s("core.seq_loss");
          loss = core::seq_loss(outputs, batch.y);
        }
        {
          Span s("optim.zero_grad");
          opt.zero_grad();
        }
        {
          Span s("autograd.backward");
          loss.backward();
        }
        {
          Span s("optim.step");
          opt.step();
        }
        finite = finite && std::isfinite(loss.value().item());
      }
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - ts).count();
      (traced ? traced_ms : untraced_ms).push_back(ms);
      all_ms.push_back(ms);
      if (all_ms.size() > 1) {  // the first step plans the arena
        heap_calls_step.push_back(static_cast<double>(heap_calls() - heap0));
        tracked_step.push_back(static_cast<double>(tracker.heap_allocs_total() - tracked0));
      }
    }
    // One validation batch per epoch keeps the loop's 100 train steps
    // (the p90's ten samples beyond) within the run.
    tracer.enable(true);
    val_pipe.start_epoch(0, 1);
    runtime::ArenaScope scope(arena);
    Span step("eval.step");
    bool have = false;
    {
      Span s("eval.data.next");
      have = val_pipe.next(batch);
    }
    if (!have) throw std::logic_error("perfbench: validation pipeline is empty");
    Span s("eval.forward_seq");
    finite = finite && std::isfinite(core::seq_mae(model.forward_seq(batch.x), batch.y));
  }
  report.check(finite, "every traced-loop loss is finite");

  const std::vector<SpanRecord> spans = tracer.spans();
  report.set("data.next_ms", median(durations_ms(spans, "data.next")));
  report.set("nn.forward_ms", median(durations_ms(spans, "nn.forward_seq")));
  report.set("core.loss_ms", median(durations_ms(spans, "core.seq_loss")));
  report.set("autograd.backward_ms", median(durations_ms(spans, "autograd.backward")));
  report.set("optim.step_ms", median(durations_ms(spans, "optim.zero_grad")) +
                                  median(durations_ms(spans, "optim.step")));
  report.set("eval.forward_ms", median(durations_ms(spans, "eval.forward_seq")));
  report.set("step_ms_p50", median(all_ms));
  report.set("step_ms_p90", percentile(all_ms, 0.9).value_or(0.0));
  report.set("runtime.heap_calls_per_step", median(heap_calls_step));
  report.set("runtime.tracked_allocs_per_step", median(tracked_step));
  report.set("runtime.arena_reserved_mb", static_cast<double>(arena.stats().bytes_reserved) / 1e6);

  const double untraced = median(untraced_ms);
  report.set("trace.overhead_pct", 100.0 * (median(traced_ms) - untraced) / untraced);
  const std::vector<double> self = self_times_ms(spans);
  std::vector<double> uncovered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "train.step") uncovered.push_back(100.0 * self[i] / spans[i].ms());
  }
  report.set("trace.uncovered_pct", median(uncovered));
}

/// Median set-up timings of the data layer: signal generation and the
/// dataset build `prepare` performs on the generated signal.
void probe_data(const data::DatasetSpec& spec, std::uint64_t seed,
                const std::function<void(const Tensor&)>& prepare, Report& report) {
  const SensorNetwork net = data::network_for(spec);
  std::vector<double> signal_s, prep_s;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point t = Clock::now();
    std::optional<Tensor> raw;
    {
      Span s("data.generate_signal");
      raw = data::generate_signal(spec, net, seed);
    }
    signal_s.push_back(seconds_since(t));
    t = Clock::now();
    {
      Span s("data.preprocess");
      prepare(*raw);
    }
    prep_s.push_back(seconds_since(t));
  }
  report.set("data.signal_s", median(signal_s));
  report.set("data.preprocess_s", median(prep_s));
}

}  // namespace

// ------------------------------------------------------------ train-index

Report run_train_index(const Options& opt) {
  Report report;
  const core::TrainConfig cfg = train_index_config(opt.seed);
  const EpochWork work = epoch_work(cfg.spec, 1);
  if (!opt.trace) {
    Reps reps;
    repeat_for(opt.seconds, kMinReps, report, [&] {
      arm_first_step_mark();
      const Clock::time_point t0 = Clock::now();
      const core::TrainResult r = core::Trainer(cfg).run();
      const Clock::time_point first_step = first_step_mark();
      report.check(first_step != Clock::time_point::max(), "first train step observed");
      reps.setup_s.push_back(std::chrono::duration<double>(first_step - t0).count());
      add_epochs(r.curve, work, reps);
      reps.peak_host_mb.push_back(static_cast<double>(r.peak_host_bytes) / 1e6);
      reps.peak_device_mb.push_back(static_cast<double>(r.peak_device_bytes) / 1e6);
      return check_curve(r.curve, r.best_val_mae, reps, report);
    });
    set_e2e(reps, report);
    return report;
  }

  Tracer::instance().enable(true);
  const Clock::time_point t0 = Clock::now();
  Reps reps;
  repeat_for(0.0, 1, report, [&] {
    Span s("core.Trainer.run");
    const core::TrainResult r = core::Trainer(cfg).run();
    report.set("device.h2d_mb", static_cast<double>(r.transfers.h2d_bytes) / 1e6);
    report.set("device.exposed_transfer_s", r.exposed_transfer_seconds);
    report.set("device.peak_mb", static_cast<double>(r.peak_device_bytes) / 1e6);
    report.set("core.val_mae", r.best_val_mae);
    return check_curve(r.curve, r.best_val_mae, reps, report);
  });
  probe_data(cfg.spec, cfg.seed, [&](const Tensor& raw) { data::IndexDataset ds(raw, cfg.spec); },
             report);
  probe_kernels(report);

  const SensorNetwork net = data::network_for(cfg.spec);
  const Tensor raw = data::generate_signal(cfg.spec, net, cfg.seed);
  const data::IndexDataset ds(raw, cfg.spec);
  const data::IndexSource source(ds);
  core::ModelBundle bundle = core::make_model(cfg.model, cfg.spec, net, cfg.hidden_dim,
                                              cfg.diffusion_steps, cfg.num_layers, cfg.seed);
  probe_forwards(*bundle.model, source, cfg.model, cfg.spec, net, cfg.hidden_dim,
                 cfg.diffusion_steps, cfg.seed, report);

  // The traced loop runs the Trainer's device configuration: parameters
  // and batches live on the simulated GPU, batches staged two ahead.
  SimDevice& gpu = DeviceManager::instance().gpu(0);
  {
    Span s("device.SimDevice.upload");
    for (Variable p : bundle.model->parameters()) p.mutable_value() = gpu.upload(p.value());
  }
  const data::SplitRanges& splits = source.splits();
  data::LoaderOptions train_opt;
  train_opt.batch_size = cfg.spec.batch_size;
  train_opt.sampler = data::SamplerOptions{cfg.shuffle, 0, 1, cfg.seed, cfg.spec.batch_size};
  train_opt.device = &gpu;
  train_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader train_loader(source, train_opt, splits.train_begin, splits.train_end);
  data::LoaderOptions val_opt = train_opt;
  val_opt.sampler.mode = data::ShuffleMode::kNone;
  val_opt.drop_last = false;
  data::DataLoader val_loader(source, val_opt, splits.val_begin, splits.val_end);
  traced_loop(*bundle.model, train_loader, val_loader, cfg.prefetch_depth, {},
              opt.seconds - seconds_since(t0), report);
  return report;
}

// -------------------------------------------------------------- ddp-store

Report run_ddp_store(const Options& opt) {
  Report report;
  const core::DistConfig cfg = ddp_store_config(opt.seed);
  const EpochWork work = epoch_work(cfg.spec, cfg.world);
  const auto check_store = [&](const core::DistResult& r) {
    const bool ok = r.store.remote_bytes == r.store.bytes_copied + r.store.cache_hit_bytes;
    report.check(ok, "DistStore remote_bytes == bytes_copied + cache_hit_bytes");
    return ok;
  };
  if (!opt.trace) {
    Reps reps;
    repeat_for(opt.seconds, kMinReps, report, [&] {
      const Clock::time_point t0 = Clock::now();
      const core::DistResult r = core::DistTrainer(cfg).run();
      reps.setup_s.push_back(seconds_since(t0) - r.train_wall_seconds);
      add_epochs(r.curve, work, reps);
      reps.peak_host_mb.push_back(static_cast<double>(r.peak_host_bytes) / 1e6);
      const bool store_ok = check_store(r);
      return check_curve(r.curve, r.best_val_mae, reps, report) && store_ok;
    });
    set_e2e(reps, report);
    return report;
  }

  Tracer::instance().enable(true);
  const Clock::time_point t0 = Clock::now();
  Reps reps;
  repeat_for(0.0, 1, report, [&] {
    Span s("core.DistTrainer.run");
    const core::DistResult r = core::DistTrainer(cfg).run();
    const double steps = static_cast<double>(kEpochs * kTrainCap);
    report.set("dist.allreduce_calls_per_step",
               static_cast<double>(r.comm.allreduce_count) / steps);
    report.set("dist.allreduce_mb_per_step",
               static_cast<double>(r.comm.allreduce_bytes) / 1e6 / steps);
    report.set("dist.grad_sync_exposed_s", r.grad_sync_exposed_seconds);
    report.set("dist.grad_sync_overlapped_s", r.grad_sync_overlapped_seconds);
    report.set("dist.store_copied_mb", static_cast<double>(r.store.bytes_copied) / 1e6);
    report.set("dist.store_hit_ratio",
               r.store.remote_snapshots > 0 ? static_cast<double>(r.store.cache_hits) /
                                                  static_cast<double>(r.store.remote_snapshots)
                                            : 0.0);
    report.set("dist.fetch_exposed_s", r.store.exposed_seconds);
    report.set("dist.fetch_overlapped_s", r.store.overlapped_seconds);
    report.set("dist.cache_evictions", static_cast<double>(r.store.cache_evictions));
    report.set("core.val_mae", r.best_val_mae);
    const bool store_ok = check_store(r);
    return check_curve(r.curve, r.best_val_mae, reps, report) && store_ok;
  });
  probe_data(cfg.spec, cfg.seed, [&](const Tensor& raw) {
    data::StandardDataset standard(raw, cfg.spec);
    Span s("dist.DistStore.build");
    dist::DistStore store(std::move(standard), cfg.world, dist::NetworkModel{},
                          /*consolidate_requests=*/true, cfg.store_cache_snapshots,
                          cfg.store_cache_bytes, /*async_prefetch=*/true);
  }, report);
  probe_kernels(report);

  // The traced loop is rank 0 of the same store-backed data plane
  // (remote snapshots copied through its cache, staged two ahead); the
  // gradient all-reduce needs every rank and is measured by the run
  // above instead.
  const SensorNetwork net = data::network_for(cfg.spec);
  const Tensor raw = data::generate_signal(cfg.spec, net, cfg.seed);
  dist::DistStore store(data::StandardDataset(raw, cfg.spec), cfg.world, dist::NetworkModel{},
                        /*consolidate_requests=*/true, cfg.store_cache_snapshots,
                        cfg.store_cache_bytes, /*async_prefetch=*/true);
  store.set_delivery_driven_classification(true);
  const data::RankSource source(store, 0);
  core::ModelBundle bundle = core::make_model(cfg.model, cfg.spec, net, cfg.hidden_dim,
                                              cfg.diffusion_steps, kModelLayers, cfg.seed);
  probe_forwards(*bundle.model, source, cfg.model, cfg.spec, net, cfg.hidden_dim,
                 cfg.diffusion_steps, cfg.seed, report);
  const data::SplitRanges& splits = source.splits();
  data::LoaderOptions train_opt;
  train_opt.batch_size = cfg.spec.batch_size;
  train_opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, cfg.world, cfg.seed,
                                           cfg.spec.batch_size};
  train_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader train_loader(source, train_opt, splits.train_begin, splits.train_end);
  data::LoaderOptions val_opt = train_opt;
  val_opt.sampler.mode = data::ShuffleMode::kNone;
  val_opt.drop_last = false;
  data::DataLoader val_loader(source, val_opt, splits.val_begin, splits.val_end);
  traced_loop(*bundle.model, train_loader, val_loader, cfg.prefetch_depth,
              [&] {
                Span s("dist.DistStore.drain");
                store.notify_batch_delivered(0);
                (void)store.drain_modeled_seconds(0);
              },
              opt.seconds - seconds_since(t0), report);
  store.abandon_prefetches(0);
  return report;
}

}  // namespace perfbench
