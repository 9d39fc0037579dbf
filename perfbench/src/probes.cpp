// Standalone per-layer probes: kernels at train-index shapes, no-tape
// forwards at serving batch sizes, and the snapshot publish.
#include <memory>

#include "autograd/ops.h"
#include "graph/spatial.h"
#include "nn/dcgru.h"
#include "runtime/arena.h"
#include "serve/snapshot.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace perfbench {

data::DatasetSpec train_index_spec() {
  return data::spec_for(data::DatasetKind::kPems).scaled(64);
}

void probe_kernels(Report& report) {
  const data::DatasetSpec spec = train_index_spec();
  const SensorNetwork net = data::network_for(spec);
  const nn::GraphSupports supports =
      nn::GraphSupports::from(dual_random_walk_supports(net.adjacency));
  Rng rng(7);
  const std::int64_t b = spec.batch_size;
  const std::int64_t n = spec.nodes;
  const std::int64_t h = kTrainIndexHidden;
  nn::DCGRUCell cell(spec.features, h, supports, kTrainIndexDiffusion, rng);
  const Variable x(Tensor::randn({b, n, spec.features}, rng));
  const Variable hid(Tensor::randn({b, n, h}, rng));
  const Tensor target = Tensor::zeros({b, n, h});
  runtime::TensorArena arena;
  constexpr int kReps = 15;

  report.set("nn.dcgru_fwd_ms", median_ms(kReps, [&] {
               runtime::ArenaScope scope(arena);
               Span s("nn.DCGRUCell.forward");
               (void)cell.forward(x, hid);
             }));
  std::vector<double> bwd;
  for (int i = 0; i <= kReps; ++i) {
    runtime::ArenaScope scope(arena);
    Variable loss = ag::mae_loss(cell.forward(x, hid), target);
    for (Variable p : cell.parameters()) p.zero_grad();
    const Clock::time_point t0 = Clock::now();
    {
      Span s("autograd.DCGRUCell.backward");
      loss.backward();
    }
    if (i > 0) bwd.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  report.set("nn.dcgru_bwd_ms", median(bwd));

  // The first cell's gate diffusion: SpMM over [B, N, input + hidden],
  // then the gate matmul over the K-hop concatenation.
  const std::int64_t cin = spec.features + h;
  const Tensor feats = Tensor::randn({b, n, cin}, rng);
  report.set("graph.spmm_ms", median_ms(kReps, [&] {
               runtime::ArenaScope scope(arena);
               Span s("graph.Csr.spmm");
               (void)supports.mats[0].spmm_batched(feats);
             }));
  const std::int64_t k_cols =
      cin * (1 + static_cast<std::int64_t>(supports.count()) * kTrainIndexDiffusion);
  const Tensor flat = Tensor::randn({b * n, k_cols}, rng);
  const Tensor w = Tensor::randn({k_cols, 2 * h}, rng, 0.1f);
  report.set("tensor.gate_gemm_ms", median_ms(kReps, [&] {
               runtime::ArenaScope scope(arena);
               Span s("tensor.matmul");
               (void)ops::matmul(flat, w);
             }));
}

void probe_forwards(const nn::SeqModel& model, const data::SnapshotSource& source,
                    core::ModelKind kind, const data::DatasetSpec& spec,
                    const SensorNetwork& net, std::int64_t hidden, int diffusion,
                    std::uint64_t seed, Report& report) {
  runtime::TensorArena arena;
  for (const std::int64_t b : {1, 16, 64}) {
    Tensor x = Tensor::empty({b, spec.horizon, spec.nodes, spec.features});
    for (std::int64_t i = 0; i < b; ++i) x.select(0, i).copy_from(source.get(i).first);
    const int reps = b == 64 ? 5 : 15;
    report.set("serve.forward_ms_b" + std::to_string(b), median_ms(reps, [&] {
                 runtime::ArenaScope scope(arena);
                 Span s("nn.forward_seq");
                 (void)model.forward_seq(x);
               }));
  }
  serve::SnapshotSlot slot(kind, spec, net, hidden, diffusion, kModelLayers, seed);
  report.set("serve.publish_ms", median_ms(5, [&] {
               Span s("serve.SnapshotSlot.publish");
               (void)slot.publish(model, 0);
             }));
}

}  // namespace perfbench
