#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/optim.hpp"

namespace sgnn {

/// Data-parallel Adam, one instance per rank. Gradients are all-reduced
/// (averaged) so every replica applies the identical update; each rank
/// keeps a FULL copy of both Adam moments — the baseline whose optimizer-
/// state redundancy ZeRO removes.
class DDPAdam : public Adam {
 public:
  /// `bucket_bytes` caps the gradient buckets the overlapped all-reduce
  /// path posts during backward (default: DDP's 25 MB); 0 falls back to
  /// the sequential single-call path. Both paths are byte-identical.
  DDPAdam(Communicator& comm, std::vector<Tensor> parameters,
          const Adam::Options& options,
          std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes);

  /// Collective: every rank must call once per step. When bucketing is on
  /// and the trainer armed the bucketer before backward (begin_step + the
  /// leaf-grad hook), gradients already in flight are drained here; called
  /// without arming, it posts and drains everything itself (bucketed but
  /// unoverlapped — still bit-identical).
  void step(int rank) override;

  /// Joint L2 clip applied to the rank-AVERAGED gradient (0 disables).
  /// Clipping after averaging keeps every replica's update bit-identical —
  /// the invariant per-replica clipping would break.
  void set_max_grad_norm(double max_norm) { max_grad_norm_ = max_norm; }

  /// The gradient bucketer behind the overlapped path; null when
  /// bucket_bytes was 0. The trainer arms it around backward and reads its
  /// overlap events for telemetry.
  GradBucketer* bucketer() override { return bucketer_.get(); }

 private:
  Communicator& comm_;
  double max_grad_norm_ = 0.0;
  std::unique_ptr<GradBucketer> bucketer_;
};

/// ZeRO Adam (Rajbhandari et al., SC'20), one instance per rank: optimizer
/// states are PARTITIONED — each rank stores moments only for its 1/R
/// shard, updates that shard after a reduce-scatter of gradients, and the
/// refreshed parameters are re-assembled with an all-gather. Optimizer-
/// state memory per rank drops by ~R at the price of extra collectives,
/// reproducing the Tab. II trade-off (27% peak memory, 133% step time).
///
/// Stage 2 additionally RELEASES the full per-parameter gradient buffers
/// the moment the owned shard has been extracted (gradient partitioning):
/// numerically identical updates, lower gradient residency during the
/// weight-update phase.
class ZeroAdam : public Adam {
 public:
  /// ZeRO stage: 1 = optimizer-state partitioning (the paper's setting),
  /// 2 = + gradient partitioning. `bucket_bytes` as in DDPAdam: bucketed
  /// reduce-scatter posted during backward plus an overlapped all-gather
  /// of the updated shard; 0 restores the sequential single-call path.
  /// Buckets scatter along the GLOBAL shard boundaries (explicit counts),
  /// so shard ownership — and checkpoint layout — never depends on the
  /// bucket size.
  ZeroAdam(Communicator& comm, std::vector<Tensor> parameters,
           const Adam::Options& options, int stage = 1,
           std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes);

  /// Collective: every rank must call once per step (see DDPAdam::step for
  /// the armed vs unarmed bucketing behavior).
  void step(int rank) override;

  /// Joint L2 clip applied to the rank-AVERAGED gradient (0 disables).
  /// The global norm is assembled from per-shard partial sums via a scalar
  /// all-reduce, so every rank scales by the identical factor and replicas
  /// stay bit-identical. Costs one extra (tiny) collective per step.
  void set_max_grad_norm(double max_norm) { max_grad_norm_ = max_norm; }

  std::size_t shard_elements() const {
    return static_cast<std::size_t>(m_.front().numel());
  }
  int stage() const { return stage_; }

  /// See DDPAdam::bucketer.
  GradBucketer* bucketer() override { return bucketer_.get(); }

 private:
  Communicator& comm_;
  double max_grad_norm_ = 0.0;
  int stage_ = 1;
  std::size_t total_elements_ = 0;
  std::unique_ptr<GradBucketer> bucketer_;
};

}  // namespace sgnn
