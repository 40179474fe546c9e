#include "sgnn/train/zero.hpp"

#include <algorithm>
#include <cmath>

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

std::size_t total_elements(const std::vector<Tensor>& parameters) {
  std::size_t total = 0;
  for (const auto& p : parameters) total += static_cast<std::size_t>(p.numel());
  return total;
}

std::int64_t largest_shard(std::size_t total, int num_ranks) {
  std::size_t largest = 0;
  for (int r = 0; r < num_ranks; ++r) {
    const auto [begin, end] = Communicator::shard_range(total, r, num_ranks);
    largest = std::max(largest, end - begin);
  }
  return static_cast<std::int64_t>(largest);
}

}  // namespace

// Both constructors copy `parameters` (tensor handles) into the base rather
// than moving it: the moment size is computed from the same list in the
// same argument list, whose evaluation order is unspecified.
DDPAdam::DDPAdam(Communicator& comm, std::vector<Tensor> parameters,
                 const Adam::Options& options, std::size_t bucket_bytes)
    : Adam(parameters, options,
           static_cast<std::int64_t>(total_elements(parameters)),
           /*sharded=*/false),
      comm_(comm) {
  if (bucket_bytes > 0) {
    bucketer_ = std::make_unique<GradBucketer>(
        comm_, this->parameters(), CollectiveKind::kAllReduce, bucket_bytes);
  }
}

void DDPAdam::step(int rank) {
  const obs::TraceSpan span("ddp_adam_step", "optimizer");
  ++timestep_;
  std::vector<real> grad;
  if (bucketer_) {
    // Overlapped path: buckets were posted from the leaf-grad hook during
    // backward (or all at once here, if the trainer never armed the
    // bucketer); the drain assembles the same summed flat vector the
    // blocking all_reduce_sum produces — byte for byte.
    if (!bucketer_->active()) bucketer_->begin_step(rank);
    bucketer_->post_remaining();
    bucketer_->drain_all_reduce(grad);
    bucketer_->end_step();
  } else {
    grad = flatten_gradients(parameters());
  }
  const ScopedBytes grad_staging(grad.size() * sizeof(real),
                                 MemCategory::kWorkspace);
  if (!bucketer_) {
    comm_.all_reduce_sum(rank, grad);
  }
  const auto scale = real{1} / static_cast<real>(comm_.num_ranks());
  for (auto& g : grad) g *= scale;
  if (max_grad_norm_ > 0) {
    // Clip the AVERAGED gradient. Every rank holds the identical vector and
    // sums it in the same (sequential) order, so the clip factor — and thus
    // the update — is bit-identical across replicas.
    double sum_sq = 0;
    for (const auto g : grad) {
      sum_sq += static_cast<double>(g) * static_cast<double>(g);
    }
    const double norm = std::sqrt(sum_sq);
    if (norm > max_grad_norm_) {
      const auto clip = static_cast<real>(max_grad_norm_ / norm);
      for (auto& g : grad) g *= clip;
    }
  }

  std::vector<real> param = flatten_parameters(parameters());
  const ScopedBytes param_staging(param.size() * sizeof(real),
                                  MemCategory::kWorkspace);
  update_flat(param.data(), grad.data(), m_.front().data(), v_.front().data(),
              param.size(), timestep_, step_options());
  unflatten_into_parameters(param, parameters());
}

// The shard this rank owns is fixed by its position in the communicator;
// every rank constructs its own ZeroAdam, so each allocates 1/R of the
// optimizer state — the ZeRO stage-1 saving, visible to the memory tracker.
// The moments are sized to the LARGEST shard so ranks are interchangeable.
ZeroAdam::ZeroAdam(Communicator& comm, std::vector<Tensor> parameters,
                   const Adam::Options& options, int stage,
                   std::size_t bucket_bytes)
    : Adam(parameters, options,
           largest_shard(total_elements(parameters), comm.num_ranks()),
           /*sharded=*/true),
      comm_(comm),
      stage_(stage),
      total_elements_(total_elements(this->parameters())) {
  SGNN_CHECK(stage == 1 || stage == 2, "ZeRO stage must be 1 or 2");
  if (bucket_bytes > 0) {
    bucketer_ = std::make_unique<GradBucketer>(
        comm_, this->parameters(), CollectiveKind::kReduceScatter,
        bucket_bytes);
  }
}

void ZeroAdam::step(int rank) {
  const obs::TraceSpan span("zero_adam_step", "optimizer");
  ++timestep_;

  // Gradient shard for this rank (summed across ranks), then averaged.
  std::vector<real> grad_shard;
  if (bucketer_) {
    // Overlapped path: bucketed reduce-scatter along the GLOBAL shard
    // boundaries, posted during backward; the drain assembles exactly the
    // shard the blocking reduce_scatter_sum yields.
    if (!bucketer_->active()) bucketer_->begin_step(rank);
    bucketer_->post_remaining();
    bucketer_->drain_reduce_scatter(grad_shard);
  } else {
    const std::vector<real> grad = flatten_gradients(parameters());
    const ScopedBytes grad_staging(grad.size() * sizeof(real),
                                   MemCategory::kWorkspace);
    SGNN_CHECK(grad.size() == total_elements_, "gradient size changed");
    grad_shard = comm_.reduce_scatter_sum(rank, grad);
  }
  if (stage_ == 2) {
    // Gradient partitioning: the full per-parameter gradient buffers are
    // no longer needed once the owned shard exists.
    zero_grad();
  }
  const auto scale = real{1} / static_cast<real>(comm_.num_ranks());
  for (auto& g : grad_shard) g *= scale;
  if (max_grad_norm_ > 0) {
    // Global norm of the averaged gradient from per-shard partial sums: the
    // scalar all-reduce adds the partials in fixed rank order, so every
    // rank computes the identical clip factor (replicas stay bit-identical,
    // and the result matches DDP's full-vector clip up to fp association).
    double partial = 0;
    for (const auto g : grad_shard) {
      partial += static_cast<double>(g) * static_cast<double>(g);
    }
    std::vector<real> sum_sq = {static_cast<real>(partial)};
    comm_.all_reduce_sum(rank, sum_sq);
    const double norm = std::sqrt(static_cast<double>(sum_sq[0]));
    if (norm > max_grad_norm_) {
      const auto clip = static_cast<real>(max_grad_norm_ / norm);
      for (auto& g : grad_shard) g *= clip;
    }
  }

  // Update only the owned parameter shard with the owned optimizer state.
  std::vector<real> param = flatten_parameters(parameters());
  const ScopedBytes param_staging(param.size() * sizeof(real),
                                  MemCategory::kWorkspace);
  const auto [begin, end] =
      Communicator::shard_range(total_elements_, rank, comm_.num_ranks());
  SGNN_CHECK(end - begin == grad_shard.size(), "shard size mismatch");
  std::vector<real> param_shard(param.begin() + static_cast<std::ptrdiff_t>(begin),
                                param.begin() + static_cast<std::ptrdiff_t>(end));
  update_flat(param_shard.data(), grad_shard.data(), m_.front().data(),
              v_.front().data(), param_shard.size(), timestep_,
              step_options());

  // Reassemble the full updated parameter vector on every rank.
  if (bucketer_) {
    // Bucketed non-blocking gathers; the write-back of each landed bucket
    // overlaps the gathers still in flight. Ends the bucketed step.
    bucketer_->all_gather_params(param_shard);
  } else {
    const std::vector<real> gathered = comm_.all_gather(rank, param_shard);
    SGNN_CHECK(gathered.size() == total_elements_, "all_gather size mismatch");
    unflatten_into_parameters(gathered, parameters());
  }
}

}  // namespace sgnn
