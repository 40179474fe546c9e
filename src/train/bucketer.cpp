#include "sgnn/train/bucketer.hpp"

#include <algorithm>

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

std::vector<GradBucketer::Bucket> GradBucketer::plan(
    std::size_t total_elements, std::size_t bucket_bytes) {
  std::vector<Bucket> buckets;
  if (total_elements == 0) return buckets;
  const std::size_t cap = std::max<std::size_t>(1, bucket_bytes / sizeof(real));
  std::size_t hi = total_elements;
  while (hi > 0) {
    const std::size_t lo = hi > cap ? hi - cap : 0;
    buckets.push_back(Bucket{lo, hi});
    hi = lo;
  }
  return buckets;
}

GradBucketer::GradBucketer(Communicator& comm, std::vector<Tensor> parameters,
                           CollectiveKind kind, std::size_t bucket_bytes)
    : comm_(comm), parameters_(std::move(parameters)), kind_(kind) {
  SGNN_CHECK(kind == CollectiveKind::kAllReduce ||
                 kind == CollectiveKind::kReduceScatter,
             "GradBucketer buckets gradient all-reduce or reduce-scatter");
  param_offsets_.reserve(parameters_.size());
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const Tensor& p = parameters_[i];
    SGNN_CHECK(p.defined(), "GradBucketer parameter " << i << " undefined");
    param_offsets_.push_back(total_elements_);
    leaf_to_param_.emplace(p.impl().get(), i);
    total_elements_ += static_cast<std::size_t>(p.numel());
  }
  buckets_ = plan(total_elements_, bucket_bytes);

  // Overlap maps in both directions; both ranges are contiguous, so an
  // interval per entry suffices.
  param_buckets_.assign(parameters_.size(), {0, 0});
  bucket_params_.assign(buckets_.size(), {0, 0});
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const std::size_t lo = param_offsets_[i];
    const std::size_t hi = lo + static_cast<std::size_t>(parameters_[i].numel());
    std::size_t first = buckets_.size();
    std::size_t last = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b].begin < hi && lo < buckets_[b].end) {
        first = std::min(first, b);
        last = std::max(last, b);
      }
    }
    // A zero-element parameter overlaps no bucket; give it an empty range
    // so completion bookkeeping skips it.
    if (first > last) {
      param_buckets_[i] = {1, 0};
    } else {
      param_buckets_[i] = {first, last};
    }
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::size_t first = parameters_.size();
    std::size_t last = 0;
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
      const std::size_t lo = param_offsets_[i];
      const std::size_t hi =
          lo + static_cast<std::size_t>(parameters_[i].numel());
      if (buckets_[b].begin < hi && lo < buckets_[b].end) {
        first = std::min(first, i);
        last = std::max(last, i);
      }
    }
    SGNN_CHECK(first <= last, "bucket " << b << " overlaps no parameter");
    bucket_params_[b] = {first, last};
  }

  if (kind_ == CollectiveKind::kReduceScatter) {
    counts_.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      auto& counts = counts_[b];
      counts.assign(static_cast<std::size_t>(comm_.num_ranks()), 0);
      for (int r = 0; r < comm_.num_ranks(); ++r) {
        const auto [s, e] =
            Communicator::shard_range(total_elements_, r, comm_.num_ranks());
        const std::size_t lo = std::max(s, buckets_[b].begin);
        const std::size_t hi = std::min(e, buckets_[b].end);
        counts[static_cast<std::size_t>(r)] = hi > lo ? hi - lo : 0;
      }
    }
  }

  staging_.resize(buckets_.size());
  pieces_.resize(buckets_.size());
  handles_.resize(buckets_.size());
  event_index_.assign(buckets_.size(), 0);
  if (total_elements_ > 0) {
    // The per-bucket staging tiles the flat vector exactly once; the ZeRO
    // pieces add at most this rank's shard on top.
    std::size_t staged = total_elements_;
    if (kind_ == CollectiveKind::kReduceScatter) {
      std::size_t max_shard = 0;
      for (int r = 0; r < comm_.num_ranks(); ++r) {
        const auto [s, e] =
            Communicator::shard_range(total_elements_, r, comm_.num_ranks());
        max_shard = std::max(max_shard, e - s);
      }
      staged += max_shard;
    }
    staging_bytes_.emplace(staged * sizeof(real), MemCategory::kWorkspace);
  }
}

GradBucketer::~GradBucketer() {
  // A step abandoned mid-flight (exception between post and drain) leaves
  // live handles whose buffers the progress engine may still write; block
  // until they settle before the staging vectors die. Errors are already
  // being reported through the original exception — swallow them here.
  for (auto& handle : handles_) {
    if (!handle.valid()) continue;
    try {
      handle.wait();
    } catch (...) {  // NOLINT
    }
  }
}

void GradBucketer::begin_step(int rank) {
  SGNN_CHECK(!active_, "begin_step() while a bucketed step is in flight");
  SGNN_CHECK(rank >= 0 && rank < comm_.num_ranks(), "invalid rank " << rank);
  rank_ = rank;
  active_ = true;
  param_done_.assign(parameters_.size(), false);
  bucket_pending_.assign(buckets_.size(), 0);
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const auto [first, last] = param_buckets_[i];
    for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
      ++bucket_pending_[b];
    }
  }
  next_post_ = 0;
  std::fill(handles_.begin(), handles_.end(), CollectiveHandle{});
  events_.clear();
  step_timer_.reset();
}

void GradBucketer::on_leaf_grad(const void* leaf) {
  if (!active_) return;
  const auto it = leaf_to_param_.find(leaf);
  if (it == leaf_to_param_.end()) return;  // checkpoint-recompute leaf etc.
  const std::size_t i = it->second;
  if (param_done_[i]) return;
  param_done_[i] = true;
  const auto [first, last] = param_buckets_[i];
  for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
    SGNN_CHECK(bucket_pending_[b] > 0, "bucket readiness underflow");
    --bucket_pending_[b];
  }
  post_ready();
}

void GradBucketer::post_ready() {
  // Post strictly in bucket order, holding back buckets that completed
  // early: the post FIFO must be identical on every rank, and autograd's
  // completion order — while deterministic — is a property of the graph,
  // not of the layout.
  while (next_post_ < buckets_.size() && bucket_pending_[next_post_] == 0) {
    post_bucket(next_post_);
    ++next_post_;
  }
}

void GradBucketer::post_bucket(std::size_t b) {
  const Bucket& bucket = buckets_[b];
  auto& payload = staging_[b];
  payload.assign(bucket.end - bucket.begin, real{0});
  const auto [first, last] = bucket_params_[b];
  for (std::size_t i = first; i <= last; ++i) {
    const std::size_t p_lo = param_offsets_[i];
    const std::size_t p_hi =
        p_lo + static_cast<std::size_t>(parameters_[i].numel());
    const std::size_t lo = std::max(p_lo, bucket.begin);
    const std::size_t hi = std::min(p_hi, bucket.end);
    if (hi <= lo) continue;
    const Tensor grad = parameters_[i].grad();
    if (!grad.defined()) continue;  // staged zeros, like flatten_gradients
    std::copy_n(grad.data() + (lo - p_lo), hi - lo,
                payload.data() + (lo - bucket.begin));
  }
  InterconnectModel::OverlapEvent event;
  event.kind = kind_;
  event.bytes = payload.size() * sizeof(real);
  event.post_seconds = step_timer_.seconds();
  event.wait_seconds = event.post_seconds;
  event_index_[b] = events_.size();
  events_.push_back(event);
  if (kind_ == CollectiveKind::kAllReduce) {
    handles_[b] = comm_.iall_reduce_sum(rank_, payload);
  } else {
    handles_[b] =
        comm_.ireduce_scatter_counts(rank_, payload, counts_[b], pieces_[b]);
  }
}

void GradBucketer::post_remaining() {
  SGNN_CHECK(active_, "post_remaining() outside a bucketed step");
  // Sweep up parameters the leaf-grad hook never reported: gradients that
  // arrived through checkpointed segments, or parameters with no gradient
  // at all. Their buffers are final once backward() has returned.
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    if (param_done_[i]) continue;
    param_done_[i] = true;
    const auto [first, last] = param_buckets_[i];
    for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
      SGNN_CHECK(bucket_pending_[b] > 0, "bucket readiness underflow");
      --bucket_pending_[b];
    }
  }
  post_ready();
  SGNN_CHECK(next_post_ == buckets_.size(),
             "post_remaining left " << buckets_.size() - next_post_
                                    << " buckets unposted");
}

void GradBucketer::wait_bucket(std::size_t b) {
  events_[event_index_[b]].wait_seconds = step_timer_.seconds();
  handles_[b].wait();
  handles_[b] = CollectiveHandle{};
}

void GradBucketer::drain_all_reduce(std::vector<real>& flat_grad) {
  SGNN_CHECK(active_, "drain outside a bucketed step");
  SGNN_CHECK(kind_ == CollectiveKind::kAllReduce,
             "drain_all_reduce on a reduce-scatter bucketer");
  if (pre_drain_hook_) pre_drain_hook_();
  const obs::TraceSpan span("bucket_drain", "collective");
  flat_grad.assign(total_elements_, real{0});
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    wait_bucket(b);
    std::copy(staging_[b].begin(), staging_[b].end(),
              flat_grad.begin() +
                  static_cast<std::ptrdiff_t>(buckets_[b].begin));
  }
}

void GradBucketer::drain_reduce_scatter(std::vector<real>& grad_shard) {
  SGNN_CHECK(active_, "drain outside a bucketed step");
  SGNN_CHECK(kind_ == CollectiveKind::kReduceScatter,
             "drain_reduce_scatter on an all-reduce bucketer");
  if (pre_drain_hook_) pre_drain_hook_();
  const obs::TraceSpan span("bucket_drain", "collective");
  const auto [s, e] =
      Communicator::shard_range(total_elements_, rank_, comm_.num_ranks());
  grad_shard.assign(e - s, real{0});
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    wait_bucket(b);
    // This rank's piece is the intersection of its global shard with the
    // bucket's range; the intersections across buckets tile the shard.
    const std::size_t lo = std::max(s, buckets_[b].begin);
    const std::size_t hi = std::min(e, buckets_[b].end);
    if (hi <= lo) continue;
    SGNN_CHECK(pieces_[b].size() == hi - lo, "shard piece size mismatch");
    std::copy(pieces_[b].begin(), pieces_[b].end(),
              grad_shard.begin() + static_cast<std::ptrdiff_t>(lo - s));
  }
}

void GradBucketer::all_gather_params(const std::vector<real>& param_shard) {
  SGNN_CHECK(active_, "all_gather_params outside a bucketed step");
  SGNN_CHECK(kind_ == CollectiveKind::kReduceScatter,
             "all_gather_params is the ZeRO parameter path");
  const obs::TraceSpan span("bucket_all_gather", "collective");
  const auto [s, e] =
      Communicator::shard_range(total_elements_, rank_, comm_.num_ranks());
  SGNN_CHECK(param_shard.size() == e - s, "param shard size mismatch");

  // Post every bucket's gather first (FIFO), reusing the drained staging
  // buffers: pieces_ carries the updated shard slice out, staging_ receives
  // the rank-order concatenation (== the bucket's slice of the full
  // updated parameter vector).
  const std::size_t first_event = events_.size();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::size_t lo = std::max(s, buckets_[b].begin);
    const std::size_t hi = std::min(e, buckets_[b].end);
    pieces_[b].assign(hi > lo ? hi - lo : 0, real{0});
    if (hi > lo) {
      std::copy_n(param_shard.data() + (lo - s), hi - lo, pieces_[b].data());
    }
    InterconnectModel::OverlapEvent event;
    event.kind = CollectiveKind::kAllGather;
    event.bytes = (buckets_[b].end - buckets_[b].begin) * sizeof(real);
    event.post_seconds = step_timer_.seconds();
    event.wait_seconds = event.post_seconds;
    events_.push_back(event);
    handles_[b] =
        comm_.iall_gather_counts(rank_, pieces_[b], counts_[b], staging_[b]);
  }
  // Drain in order; writing bucket k back into the parameter tensors
  // overlaps the gathers of buckets k+1..B-1.
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    events_[first_event + b].wait_seconds = step_timer_.seconds();
    handles_[b].wait();
    handles_[b] = CollectiveHandle{};
    const Bucket& bucket = buckets_[b];
    SGNN_CHECK(staging_[b].size() == bucket.end - bucket.begin,
               "gathered bucket size mismatch");
    const auto [first, last] = bucket_params_[b];
    for (std::size_t i = first; i <= last; ++i) {
      const std::size_t p_lo = param_offsets_[i];
      const std::size_t p_hi =
          p_lo + static_cast<std::size_t>(parameters_[i].numel());
      const std::size_t lo = std::max(p_lo, bucket.begin);
      const std::size_t hi = std::min(p_hi, bucket.end);
      if (hi <= lo) continue;
      std::copy_n(staging_[b].data() + (lo - bucket.begin), hi - lo,
                  parameters_[i].data() + (lo - p_lo));
    }
  }
  active_ = false;
}

void GradBucketer::end_step() {
  SGNN_CHECK(active_, "end_step() outside a bucketed step");
  active_ = false;
}

std::vector<InterconnectModel::OverlapEvent> GradBucketer::take_events() {
  std::vector<InterconnectModel::OverlapEvent> events;
  events.swap(events_);
  return events;
}

}  // namespace sgnn
