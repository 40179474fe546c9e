#pragma once

#include <cstdint>
#include <functional>

#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

/// Continuation-style reducer for gradients of REPLICATED leaf parameters
/// whose activations are row-sharded across ranks (graph-parallel training,
/// sgnn::gpar). Every parameter-gradient kernel in this repo is a fold over
/// activation rows in ascending order (matmul_at_b is p-outermost, reduce_to
/// and scatter_rows_into accumulate in input order), and under the
/// partitioner the global row order is exactly the rank-order concatenation
/// of the local shards. A reducer therefore reproduces the single-rank
/// gradient BIT-identically by continuing the fold rank to rank instead of
/// summing per-rank partials (which would re-bracket the floating-point
/// sum). The op hands the reducer the kernel it runs on the local path, so
/// each fold order has exactly one definition. See
/// docs/graph-parallelism.md.
///
/// The autograd ops capture the armed reducer at RECORD time and call it
/// from their backward closures, so the arming scope only needs to span the
/// forward pass (including activation-checkpoint recomputes, which re-record
/// on the same thread); the reducer object itself must outlive backward.
class ShardedGradReducer {
 public:
  virtual ~ShardedGradReducer() = default;

  /// Returns the replicated (rows, cols) gradient. `fold_local` receives a
  /// row-major (rows, cols) accumulator holding the lower ranks' partial
  /// (zeros on the first rank) and adds this rank's shard into it in the
  /// op's own kernel order; it must open no KernelScope. The reducer prices
  /// it with `flops`/`bytes` (computed by the op from its shard's shape).
  virtual Tensor fold(std::int64_t rows, std::int64_t cols,
                      std::int64_t flops, std::int64_t bytes,
                      const std::function<void(real*)>& fold_local) = 0;
};

/// The reducer armed on the calling thread (nullptr outside graph-parallel
/// forward passes — the common case, checked once per op record).
ShardedGradReducer* current_sharded_grad_reducer();

/// Arms `reducer` on this thread for the scope's lifetime; restores the
/// previous value on destruction. Pass nullptr to disarm a nested region
/// (the replicated readout/head section of a graph-parallel forward, whose
/// activations are NOT sharded and must not be ring-reduced).
class ScopedShardedGradReducer {
 public:
  explicit ScopedShardedGradReducer(ShardedGradReducer* reducer);
  ~ScopedShardedGradReducer();
  ScopedShardedGradReducer(const ScopedShardedGradReducer&) = delete;
  ScopedShardedGradReducer& operator=(const ScopedShardedGradReducer&) =
      delete;

 private:
  ShardedGradReducer* previous_;
};

}  // namespace sgnn
