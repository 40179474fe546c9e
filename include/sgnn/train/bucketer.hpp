#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

/// Packs a parameter list's flattened gradient into size-capped buckets and
/// posts each bucket's collective the moment its last gradient is produced
/// during backward, so communication overlaps the rest of the backward
/// pass (the enabler behind DDP's and ZeRO's scaling curves).
///
/// Layout: walking parameters in REVERSE registration order — the order
/// autograd finishes their gradients, since later layers backpropagate
/// first — and filling each bucket to exactly `bucket_bytes` (splitting
/// mid-tensor when the cap does not align) makes every bucket a CONTIGUOUS
/// range of the flat gradient vector, descending from the top. Contiguity
/// is what lets a bucket reduce-scatter along the GLOBAL ZeRO shard
/// boundaries (explicit counts = |shard_r ∩ bucket|), so shard ownership —
/// and therefore checkpoint layout — is independent of the bucket size.
///
/// Bit-identity: every collective sums elements in fixed rank order exactly
/// like the blocking single-call path, and buckets are drained into the
/// same flat vectors the sequential optimizers build, so bucketed training
/// is byte-identical to sequential training for ANY bucket_bytes (pinned
/// by tests/overlap_test.cpp).
///
/// Step protocol (all methods are called from the owning rank's thread):
///   begin_step(rank)                   — before backward
///   on_leaf_grad(key)                  — from the autograd leaf-grad hook
///   post_remaining()                   — after backward (sweeps up leaves
///                                        the hook never saw: params used
///                                        only inside checkpointed
///                                        segments, or with no grad)
///   drain_all_reduce / drain_reduce_scatter — before the optimizer update
///   all_gather_params                  — ZeRO only, after the update
/// Every rank must run the identical protocol (same buckets, same order):
/// posts are matched across ranks by FIFO position.
class GradBucketer {
 public:
  /// PyTorch DDP's default bucket cap.
  static constexpr std::size_t kDefaultBucketBytes = 25 * 1024 * 1024;

  /// One bucket: the flat-gradient element range [begin, end).
  struct Bucket {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Pure layout function (exposed for the fuzz tests): chops [0, n) into
  /// cap-sized contiguous chunks from the TOP down, returned in post order
  /// (descending ranges). Every element of [0, n) lands in exactly one
  /// bucket; n == 0 yields no buckets; a cap below one element is clamped
  /// to one element.
  static std::vector<Bucket> plan(std::size_t total_elements,
                                  std::size_t bucket_bytes);

  /// `kind` selects the gradient collective: kAllReduce for DDP,
  /// kReduceScatter for ZeRO. Parameter tensors are aliased, not copied.
  GradBucketer(Communicator& comm, std::vector<Tensor> parameters,
               CollectiveKind kind, std::size_t bucket_bytes);
  ~GradBucketer();
  GradBucketer(const GradBucketer&) = delete;
  GradBucketer& operator=(const GradBucketer&) = delete;

  std::size_t num_buckets() const { return buckets_.size(); }
  std::size_t total_elements() const { return total_elements_; }
  bool active() const { return active_; }

  /// Arms the bucketer for one training step of `rank`: resets readiness,
  /// restarts the step clock, clears last step's events. Must not be called
  /// while a step is already active (un-drained posts would be orphaned).
  void begin_step(int rank);

  /// Leaf-grad hook body: install
  ///   autograd::ScopedLeafGradHook hook(
  ///       [&](const void* leaf) { bucketer.on_leaf_grad(leaf); });
  /// around backward(). Unknown keys are ignored (checkpoint recompute
  /// introduces fresh leaves). When a parameter's gradient completes, every
  /// bucket whose overlapping parameters are all complete is posted — in
  /// bucket order, holding back out-of-order completions so the post FIFO
  /// is identical on every rank.
  void on_leaf_grad(const void* leaf);

  /// Posts every bucket not yet posted (parameters that never produced a
  /// gradient contribute zeros, matching flatten_gradients). Idempotent.
  void post_remaining();

  /// DDP drain: waits buckets in post order and assembles the full flat
  /// gradient SUM (not yet averaged) into `flat_grad` — byte-identical to
  /// what blocking all_reduce_sum(flatten_gradients(...)) produces.
  void drain_all_reduce(std::vector<real>& flat_grad);

  /// ZeRO drain: waits buckets in post order and assembles THIS rank's
  /// global gradient shard (summed, not averaged) into `grad_shard` —
  /// byte-identical to blocking reduce_scatter_sum on the full vector.
  void drain_reduce_scatter(std::vector<real>& grad_shard);

  /// ZeRO parameter path: posts one non-blocking all-gather per bucket of
  /// the UPDATED parameter shard (`param_shard` = this rank's global shard
  /// slice), then scatters each bucket into the parameter tensors as it
  /// lands — the write-back of bucket k overlaps the gather of k+1. Ends
  /// the step.
  void all_gather_params(const std::vector<real>& param_shard);

  /// Ends a DDP step (ZeRO steps end inside all_gather_params).
  void end_step();

  /// Post/wait timestamps of the last step's collectives, in FIFO order and
  /// seconds since begin_step — the input InterconnectModel::overlap_cost
  /// prices. Clears the recorded events.
  std::vector<InterconnectModel::OverlapEvent> take_events();

  /// Test hook, invoked as a drain starts: after every bucket is posted and
  /// before any is waited — the window the crash-during-overlap checkpoint
  /// test injects a SimulatedCrash into.
  void set_pre_drain_hook(std::function<void()> hook) {
    pre_drain_hook_ = std::move(hook);
  }

 private:
  struct BucketState;

  void post_bucket(std::size_t b);
  void post_ready();
  /// Waits bucket b's handle, stamping the wait on its event.
  void wait_bucket(std::size_t b);

  Communicator& comm_;
  std::vector<Tensor> parameters_;
  CollectiveKind kind_;
  std::size_t total_elements_ = 0;
  std::vector<std::size_t> param_offsets_;  ///< flat offset of each param
  std::unordered_map<const void*, std::size_t> leaf_to_param_;
  std::vector<Bucket> buckets_;
  /// Buckets overlapping each param: [first, last] (contiguous by
  /// construction — param ranges and buckets are both contiguous).
  std::vector<std::pair<std::size_t, std::size_t>> param_buckets_;
  /// Params overlapping each bucket: [first, last].
  std::vector<std::pair<std::size_t, std::size_t>> bucket_params_;
  /// ZeRO: per-bucket |shard_r ∩ bucket| for every rank r.
  std::vector<std::vector<std::size_t>> counts_;

  /// Per-step state.
  int rank_ = 0;
  bool active_ = false;
  std::vector<bool> param_done_;
  std::vector<std::size_t> bucket_pending_;  ///< incomplete params per bucket
  std::size_t next_post_ = 0;                ///< next bucket to post
  std::vector<CollectiveHandle> handles_;
  std::vector<std::vector<real>> staging_;  ///< per-bucket payload buffers
  std::vector<std::vector<real>> pieces_;   ///< ZeRO per-bucket shard pieces
  std::vector<std::size_t> event_index_;    ///< bucket -> its events_ slot
  std::vector<InterconnectModel::OverlapEvent> events_;
  WallTimer step_timer_;
  /// Staging is real allocated workspace; account it like the sequential
  /// optimizers' flat buffers do.
  std::optional<ScopedBytes> staging_bytes_;
  std::function<void()> pre_drain_hook_;
};

}  // namespace sgnn
