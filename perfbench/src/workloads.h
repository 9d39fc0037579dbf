// Workload entry points and the report they fill.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pgt_i.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace pgti;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a traced run
};

/// What one run hands back: the correctness verdict, the attempt
/// ledger, and the metrics by name (units live in BENCHMARK.json).
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void set(const std::string& name, double value);
  /// Records a failed correctness check: prints why and marks the run
  /// incorrect.
  void check(bool ok, const std::string& what);
};

Report run_train_index(const Options& opt);
Report run_ddp_store(const Options& opt);
Report run_serve_open(const Options& opt);

// ---- workload configurations (shared by workloads and probes) --------

/// PeMS at 1/64 scale: 174 sensors x 1,643 steps, batch 64, horizon 12.
data::DatasetSpec train_index_spec();
/// The train-index model: PGT-DCRNN, hidden 32, diffusion 2, 2 layers.
inline constexpr std::int64_t kTrainIndexHidden = 32;
inline constexpr int kTrainIndexDiffusion = 2;
inline constexpr int kModelLayers = 2;

// ---- probes (probes.cpp) ----------------------------------------------

/// Standalone kernel timings at the shapes train-index runs (first
/// encoder cell: batch 64 x 174 nodes, input 2 + hidden 32):
/// nn.dcgru_fwd_ms, nn.dcgru_bwd_ms, graph.spmm_ms, tensor.gate_gemm_ms.
void probe_kernels(Report& report);

/// serve.forward_ms_b{1,16,64}: no-tape forward_seq of `model` over
/// windows of `source` at batch 1, 16 and 64; and serve.publish_ms, a
/// SnapshotSlot::publish of `model` built from the same recipe.
void probe_forwards(const nn::SeqModel& model, const data::SnapshotSource& source,
                    core::ModelKind kind, const data::DatasetSpec& spec,
                    const SensorNetwork& net, std::int64_t hidden, int diffusion,
                    std::uint64_t seed, Report& report);

/// Median wall milliseconds of `fn` over `reps` calls after one warm-up.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return median(std::move(ms));
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
