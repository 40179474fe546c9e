#include "train_step.hpp"

#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

double train_step(StepState& state, const StepHooks& hooks) {
  const WallTimer step_timer;
  // Kernel-profile snapshot, rank 0 only: prof::totals() aggregates across
  // every rank thread, so the per-step delta is process-wide (all ranks'
  // kernels), like the collective accounting.
  const obs::prof::Totals prof_before =
      state.rank == 0 ? obs::prof::totals() : obs::prof::Totals{};
  const obs::prof::ProfRegion step_region("train_step");
  const GraphBatch batch = hooks.fetch();
  Optimizer& optimizer = state.optimizer;
  optimizer.zero_grad();
  if (hooks.prepare) hooks.prepare(batch, state.forward_options);

  LossScaler& scaler = state.loss_scaler;
  double step_loss = 0;
  Tensor total;
  {
    const obs::TraceSpan span("forward", "train");
    const obs::prof::ProfRegion region("forward");
    const ScopedTrainPhase phase(TrainPhase::kForward);
    const auto out = state.model.forward(batch, state.forward_options);
    const LossTerms terms = multitask_loss(out, batch, state.loss_weights);
    // The reported loss stays unscaled; only the backward graph sees the
    // loss-scale factor.
    step_loss = terms.total.item();
    total = scaler.enabled()
                ? scale(terms.total, static_cast<real>(scaler.scale()))
                : terms.total;
  }
  {
    const obs::TraceSpan span("backward", "train");
    const obs::prof::ProfRegion region("backward");
    const ScopedTrainPhase phase(TrainPhase::kBackward);
    // Arm the bucketer and observe leaf-gradient completion: each bucket's
    // collective is posted the moment its last gradient is produced,
    // overlapping communication with the rest of backward.
    std::optional<autograd::ScopedLeafGradHook> grad_hook;
    if (GradBucketer* const bucketer = optimizer.bucketer()) {
      bucketer->begin_step(state.rank);
      grad_hook.emplace(
          [bucketer](const void* leaf) { bucketer->on_leaf_grad(leaf); });
    }
    total.backward();
  }
  double grad_norm = 0;
  const std::int64_t step = state.completed_steps;
  {
    const obs::TraceSpan span("optimizer", "train");
    const obs::prof::ProfRegion region("optimizer");
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    if (state.schedule) {
      // Pure function of the global step, so replicas agree for free.
      optimizer.set_learning_rate(state.schedule->at_step(step));
    }
    const auto parameters = state.model.parameters();
    const bool overflowed =
        scaler.enabled() && LossScaler::grads_overflowed(parameters);
    if (scaler.update(overflowed)) {
      scaler.unscale(parameters);
      if (state.max_grad_norm > 0) {
        grad_norm = clip_grad_norm(parameters, state.max_grad_norm);
      } else if (state.telemetry != nullptr) {
        grad_norm = grad_l2_norm(parameters);
      }
      optimizer.step(state.rank);
    } else {
      // Overflow: skip the parameter update, keep the step count moving
      // (AMP semantics) so schedules and checkpoints stay aligned.
      SGNN_LOG_DEBUG << "step " << step
                     << ": non-finite gradients, optimizer step skipped";
    }
    ++state.completed_steps;
  }

  obs::StepTelemetry telemetry;
  telemetry.step = step;
  telemetry.epoch = state.epoch;
  telemetry.rank = state.rank;
  telemetry.loss = step_loss;
  telemetry.grad_norm = grad_norm;
  // The EFFECTIVE learning rate this step used (schedule- and resume-aware),
  // not the base configuration value.
  telemetry.learning_rate = optimizer.learning_rate();
  telemetry.batch_graphs = batch.num_graphs;
  telemetry.batch_atoms = batch.num_nodes;
  telemetry.batch_edges = batch.num_edges;
  telemetry.step_seconds = step_timer.seconds();
  if (telemetry.step_seconds > 0) {
    telemetry.atoms_per_sec =
        static_cast<double>(telemetry.batch_atoms) / telemetry.step_seconds;
    telemetry.graphs_per_sec =
        static_cast<double>(telemetry.batch_graphs) / telemetry.step_seconds;
  }
  if (hooks.account) hooks.account(telemetry);
  telemetry.live_bytes = MemoryTracker::instance().live().total();
  telemetry.peak_bytes = MemoryTracker::instance().peak_total();
  if (state.rank == 0) {
    const obs::prof::Totals prof_after = obs::prof::totals();
    telemetry.kernel_seconds =
        prof_after.kernel_seconds - prof_before.kernel_seconds;
    telemetry.kernel_flops = prof_after.flops - prof_before.flops;
    telemetry.kernel_bytes = prof_after.bytes - prof_before.bytes;
  }
  telemetry.kernel_backend = kernels::backend_name(kernels::active_backend());
  telemetry.compute_dtype =
      kernels::dtype_name(kernels::active_compute_dtype());
  obs::record_step_metrics(telemetry);
  if (state.telemetry != nullptr) state.telemetry->on_step(telemetry);

  const ckpt::CheckpointOptions& copt = state.checkpoint;
  if (copt.every_steps > 0 && state.completed_steps % copt.every_steps == 0) {
    hooks.save_checkpoint();
  }
  // Fault injection: in a distributed run every rank reaches this point with
  // the same step count and throws together — no rank is left behind in a
  // collective, so the simulated crash cannot deadlock the others.
  ckpt::maybe_crash(copt, state.completed_steps);
  return step_loss;
}

}  // namespace sgnn
