#pragma once

#include <cstdint>
#include <functional>

#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

/// Reducer for gradients of REPLICATED leaf parameters whose activations
/// are row-sharded across ranks (graph-parallel training, sgnn::gpar). Every
/// parameter-gradient fold in this repo — matmul's dB = AᵀG, the bias
/// column sum, the embedding-table scatter — runs in the canonical blocked
/// order over GLOBAL rows (kernels::kFoldBlockRows): each 64-row block is
/// folded from +0 in the kernel's own in-block order and the block partials
/// are added in ascending block order. Under the partitioner the global row
/// order is exactly the rank-order concatenation of the local shards, so a
/// reducer reproduces the single-rank gradient BIT-identically by folding
/// each rank's whole blocks locally and continuing only the block that
/// straddles a rank boundary. The op hands the reducer the kernel it runs
/// on the local path, so each in-block order has exactly one definition.
/// See docs/graph-parallelism.md.
///
/// The autograd ops capture the armed reducer at RECORD time and call it
/// from their backward closures, so the arming scope only needs to span the
/// forward pass (including activation-checkpoint recomputes, which re-record
/// on the same thread); the reducer object itself must outlive backward.
class ShardedGradReducer {
 public:
  /// Adds the op's local rows [begin, end) into the row-major (rows, cols)
  /// accumulator `c`, continuing whatever fold `c` holds, in the op's own
  /// kernel order. It must open no KernelScope.
  using RowFold =
      std::function<void(std::int64_t begin, std::int64_t end, real* c)>;

  virtual ~ShardedGradReducer() = default;

  /// Returns the replicated (rows, cols) gradient of a fold over this
  /// rank's `local_rows` rows. The reducer calls `fold_rows` on row ranges
  /// of the shard and prices the calls with `flops`/`bytes` (computed by the
  /// op for its whole shard).
  virtual Tensor fold(std::int64_t local_rows, std::int64_t rows,
                      std::int64_t cols, std::int64_t flops,
                      std::int64_t bytes, const RowFold& fold_rows) = 0;
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
