#include "sgnn/train/trainer.hpp"

#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/timer.hpp"
#include "train_step.hpp"

namespace sgnn {

Trainer::Trainer(EGNNModel& model, const TrainOptions& options)
    : model_(model),
      options_(options),
      optimizer_(model.parameters(), options.adam),
      loss_scaler_(options.loss_scaling) {
  SGNN_CHECK(options.epochs > 0, "epochs must be positive");
  SGNN_CHECK(options.checkpoint.every_steps <= 0 ||
                 !options.checkpoint.directory.empty(),
             "checkpoint.every_steps needs checkpoint.directory");
}

std::string Trainer::build_snapshot(const DataLoader& loader) {
  ckpt::SnapshotBuilder builder;
  builder.add_bytes("meta.kind", "trainer");
  builder.add_i64("meta.step", global_step_);
  builder.add_i64("meta.epoch", epoch_index_);
  builder.add_bytes("model", model_payload_bytes(model_));
  optimizer_.save_state(builder, /*rank=*/0);
  const DataLoader::State loader_state = loader.state();
  builder.add_bytes("loader.rng", ckpt::pod_bytes(loader_state.rng));
  builder.add_u64s("loader.order", loader_state.order);
  builder.add_u64("loader.cursor", loader_state.cursor);
  return builder.payload();
}

bool Trainer::try_resume(DataLoader& loader) {
  if (options_.checkpoint.resume_from.empty()) return false;
  const auto loaded =
      ckpt::CheckpointManager::load_latest(options_.checkpoint.resume_from);
  if (!loaded) {
    SGNN_LOG_WARN << "no readable checkpoint under '"
                  << options_.checkpoint.resume_from << "'; starting fresh";
    return false;
  }
  const ckpt::SnapshotView view(loaded->payload);
  SGNN_CHECK(view.bytes("meta.kind") == "trainer",
             "snapshot '" << loaded->path << "' is not a trainer checkpoint");
  load_model_payload(model_, view.bytes("model"));
  optimizer_.restore_state(view, /*rank=*/0);
  DataLoader::State loader_state;
  loader_state.rng = ckpt::pod_from_bytes<Rng::State>(view.bytes("loader.rng"));
  loader_state.order = view.u64s("loader.order");
  loader_state.cursor = view.u64("loader.cursor");
  loader.restore_state(loader_state);
  global_step_ = view.i64("meta.step");
  epoch_index_ = view.i64("meta.epoch");
  skip_begin_epoch_ = true;
  SGNN_LOG_INFO << "resumed trainer from " << loaded->path << " (step "
                << global_step_ << ", epoch " << epoch_index_ << ")";
  return true;
}

Trainer::EpochResult Trainer::train_epoch(DataLoader& loader) {
  const WallTimer timer;
  double loss_sum = 0;
  std::int64_t batches = 0;

  if (skip_begin_epoch_) {
    // First epoch after a resume: the loader already sits at the restored
    // mid-epoch position; reshuffling would diverge from the original run.
    skip_begin_epoch_ = false;
  } else {
    loader.begin_epoch();
  }
  StepState state{.model = model_,
                  .optimizer = optimizer_,
                  .loss_weights = options_.loss_weights,
                  .schedule = options_.schedule,
                  .checkpoint = options_.checkpoint,
                  .loss_scaler = loss_scaler_,
                  .completed_steps = global_step_,
                  .epoch = epoch_index_,
                  .max_grad_norm = options_.max_grad_norm,
                  .telemetry = telemetry_,
                  .forward_options = {.activation_checkpointing =
                                          options_.activation_checkpointing}};
  StepHooks hooks;
  hooks.fetch = [&] {
    GraphBatch batch = loader.next();
    if (use_baseline_) baseline_.subtract_from(batch);
    return batch;
  };
  hooks.save_checkpoint = [&] {
    if (!ckpt_manager_) {
      ckpt_manager_.emplace(options_.checkpoint.directory,
                            options_.checkpoint.keep_last);
    }
    ckpt_manager_->save(static_cast<std::uint64_t>(global_step_),
                        build_snapshot(loader));
  };

  const obs::TraceSpan epoch_span("train_epoch", "train");
  while (loader.has_next()) {
    loss_sum += train_step(state, hooks);
    ++batches;
  }

  ++epoch_index_;
  EpochResult result;
  result.mean_train_loss =
      batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
  result.seconds = timer.seconds();
  return result;
}

std::vector<Trainer::EpochResult> Trainer::fit(DataLoader& loader) {
  try_resume(loader);
  std::vector<EpochResult> history;
  // Replay the per-epoch decay up to the resume point by repeated
  // multiplication — the same float sequence the original run produced
  // (pow() could differ in the last bit, breaking bit-identical resume).
  double lr = options_.adam.learning_rate;
  for (std::int64_t epoch = 0; epoch < epoch_index_; ++epoch) {
    lr *= options_.lr_decay;
  }
  for (std::int64_t epoch = epoch_index_; epoch < options_.epochs; ++epoch) {
    // A step-based schedule takes precedence over the per-epoch decay.
    if (!options_.schedule) optimizer_.set_learning_rate(lr);
    history.push_back(train_epoch(loader));
    lr *= options_.lr_decay;
  }
  return history;
}

EvalMetrics Trainer::evaluate(const std::vector<const MolecularGraph*>& graphs,
                              std::int64_t batch_size) const {
  SGNN_CHECK(!graphs.empty(), "evaluate on empty set");
  MetricAccumulator accumulator;
  std::size_t cursor = 0;
  while (cursor < graphs.size()) {
    std::vector<const MolecularGraph*> chunk;
    while (cursor < graphs.size() &&
           chunk.size() < static_cast<std::size_t>(batch_size)) {
      chunk.push_back(graphs[cursor++]);
    }
    GraphBatch batch = GraphBatch::from_graphs(chunk);
    if (use_baseline_) baseline_.subtract_from(batch);
    accumulator.add(evaluate_batch(model_, batch, options_.loss_weights));
  }
  return accumulator.mean();
}

}  // namespace sgnn
