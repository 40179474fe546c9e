#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/loss_scaler.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/train/schedule.hpp"

namespace sgnn {

/// One rank's side of a training run, read and advanced by train_step.
/// Trainer is the one-rank caller; every DistributedTrainer rank thread
/// holds its own.
struct StepState {
  EGNNModel& model;
  Optimizer& optimizer;
  const LossWeights& loss_weights;
  const std::optional<LrSchedule>& schedule;
  const ckpt::CheckpointOptions& checkpoint;
  LossScaler& loss_scaler;
  /// Optimizer steps completed so far across the whole run (the caller's
  /// counter; train_step advances it by one).
  std::int64_t& completed_steps;
  std::int64_t epoch = 0;
  int rank = 0;
  /// Joint L2 clip of the local gradient before the update; 0 disables.
  /// Distributed optimizers clip the synchronized gradient inside step().
  double max_grad_norm = 0.0;
  obs::TelemetrySink* telemetry = nullptr;
  EGNNModel::ForwardOptions forward_options;
};

/// The caller's parts of a step; everything else is shared.
struct StepHooks {
  /// Produces the step's batch (timed and profiled as part of the step).
  std::function<GraphBatch()> fetch;
  /// Optional: runs after zero_grad, before forward (graph-parallel
  /// partitioning and halo exchange set-up).
  std::function<void(const GraphBatch&, EGNNModel::ForwardOptions&)> prepare;
  /// Optional: adds the caller's fields (collective and halo accounting)
  /// to the step's telemetry before it is published.
  std::function<void(obs::StepTelemetry&)> account;
  /// Writes a snapshot of the state after the step; called when the
  /// checkpoint.every_steps cadence is due.
  std::function<void()> save_checkpoint;
};

/// One optimizer step on one rank: fetch → zero_grad → forward →
/// multitask loss (scaled only when loss scaling is enabled) → backward,
/// with the optimizer's bucketer armed when it has one → schedule, clip,
/// update → one StepTelemetry → checkpoint cadence → fault injection
/// (ckpt::maybe_crash). Profiled as train_step;{forward,backward,optimizer}.
/// Returns the step's unscaled loss.
double train_step(StepState& state, const StepHooks& hooks);

}  // namespace sgnn
