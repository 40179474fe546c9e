#include <algorithm>

#include "ops_common.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/grad_reducer.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

namespace {

/// Adds `src` rows into `out` rows chosen by `index` (`in_rows` entries),
/// sharded by receiver range: each chunk owns a contiguous band of output
/// rows and scans the whole index array, accumulating only the rows that
/// land in its band. Every output row therefore receives its contributions
/// in input order — the same order as the serial loop — so results are
/// bit-identical for any pool size, duplicate indices included.
void scatter_rows_into(const real* src, const std::int64_t* index,
                       std::int64_t in_rows, real* out, std::int64_t num_rows,
                       std::int64_t cols) {
  // Scanning the index array costs O(in_rows) per chunk, so keep bands
  // coarse: at least enough rows that the adds dominate the scan.
  const std::int64_t grain =
      std::max<std::int64_t>(parallel_grain(cols), num_rows / 64 + 1);
  parallel_for(0, num_rows, grain, [=](std::int64_t row_begin,
                                       std::int64_t row_end) {
    for (std::int64_t r = 0; r < in_rows; ++r) {
      const std::int64_t target = index[r];
      if (target < row_begin || target >= row_end) continue;
      real* dst = out + target * cols;
      const real* srow = src + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) dst[c] += srow[c];
    }
  });
}

/// scatter_rows_into in the canonical blocked order (kernels::kFoldBlockRows
/// input rows per block): each block is scattered from +0, then added into
/// `out` block by block. Only the rows a block touches are added — its
/// other rows are +0, and adding +0 to a fold that started at +0 is exact.
void scatter_rows_blocked(const real* src,
                          const std::vector<std::int64_t>& index, real* out,
                          std::int64_t num_rows, std::int64_t cols) {
  const auto in_rows = static_cast<std::int64_t>(index.size());
  std::vector<real> partial(static_cast<std::size_t>(num_rows * cols));
  std::vector<std::int64_t> block_of(static_cast<std::size_t>(num_rows), -1);
  std::vector<std::int64_t> touched;
  for (std::int64_t r0 = 0; r0 < in_rows; r0 += kernels::kFoldBlockRows) {
    const std::int64_t r1 = std::min(in_rows, r0 + kernels::kFoldBlockRows);
    touched.clear();
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t target = index[static_cast<std::size_t>(r)];
      real* dst = partial.data() + target * cols;
      if (block_of[static_cast<std::size_t>(target)] != r0) {
        block_of[static_cast<std::size_t>(target)] = r0;
        touched.push_back(target);
        std::fill_n(dst, cols, real{0});
      }
      const real* srow = src + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) dst[c] += srow[c];
    }
    for (const std::int64_t target : touched) {
      real* dst = out + target * cols;
      const real* prow = partial.data() + target * cols;
      for (std::int64_t c = 0; c < cols; ++c) dst[c] += prow[c];
    }
  }
}

}  // namespace

Tensor index_select_rows(const Tensor& x,
                         const std::vector<std::int64_t>& index) {
  SGNN_CHECK(x.rank() == 2, "index_select_rows requires rank-2 input, got "
                                << x.shape().to_string());
  const std::int64_t rows = x.dim(0);
  const std::int64_t cols = x.dim(1);
  for (const auto i : index) {
    SGNN_CHECK(i >= 0 && i < rows,
               "index_select_rows index " << i << " out of range [0, " << rows
                                          << ")");
  }
  const Tensor xd = x.detach();
  const auto out_rows = static_cast<std::int64_t>(index.size());
  // Embedding-table pattern: gathering rows of a replicated leaf table with
  // ids that are row-sharded across ranks. The table gradient folds over the
  // ids in the canonical blocked order, so a graph-parallel run hands it to
  // the reducer, which combines the ranks' blocks in global id order (see
  // grad_reducer.hpp). Activation gathers (non-leaf x) keep the plain
  // receiver-sharded scatter.
  const bool table = x.is_leaf() && x.requires_grad();
  ShardedGradReducer* reducer =
      table ? current_sharded_grad_reducer() : nullptr;
  Tensor out = Tensor::make_result(
      Shape{out_rows, cols}, {x},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        // Rows gathered multiple times accumulate their gradients in input
        // order. Under a reducer the scatter is the ring fold's work and is
        // priced there (as halo_ring.bwd), so no scope opens here.
        const std::int64_t bytes = obs::prof::sat_mul(
            3 * static_cast<std::int64_t>(sizeof(real)), out_rows, cols);
        if (reducer != nullptr) {
          return {reducer->fold(
              out_rows, rows, cols, 0, bytes,
              [&](std::int64_t begin, std::int64_t end, real* c) {
                scatter_rows_into(grad.data() + begin * cols,
                                  index.data() + begin, end - begin, c, rows,
                                  cols);
              })};
        }
        const obs::prof::KernelScope prof(
            "index_select", obs::prof::sat_mul(out_rows, cols), bytes, ".bwd");
        Tensor gx = Tensor::zeros(Shape{rows, cols});
        if (table) {
          scatter_rows_blocked(grad.data(), index, gx.data(), rows, cols);
        } else {
          scatter_rows_into(grad.data(), index.data(), out_rows, gx.data(),
                            rows, cols);
        }
        return {gx};
      },
      "index_select_rows");
  const obs::prof::KernelScope prof(
      "index_select", 0,
      obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)),
                         out_rows, cols));
  const real* px = xd.data();
  real* po = out.data();
  parallel_for(0, out_rows, parallel_grain(cols),
               [&, px, po](std::int64_t row_begin, std::int64_t row_end) {
                 for (std::int64_t r = row_begin; r < row_end; ++r) {
                   std::copy_n(px + index[static_cast<std::size_t>(r)] * cols,
                               static_cast<std::size_t>(cols), po + r * cols);
                 }
               });
  return out;
}

Tensor scatter_add_rows(const Tensor& src,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows) {
  SGNN_CHECK(src.rank() == 2, "scatter_add_rows requires rank-2 input, got "
                                  << src.shape().to_string());
  SGNN_CHECK(static_cast<std::size_t>(src.dim(0)) == index.size(),
             "scatter_add_rows: " << src.dim(0) << " rows vs " << index.size()
                                  << " indices");
  const std::int64_t in_rows = src.dim(0);
  const std::int64_t cols = src.dim(1);
  for (const auto i : index) {
    SGNN_CHECK(i >= 0 && i < num_rows,
               "scatter_add_rows index " << i << " out of range [0, "
                                         << num_rows << ")");
  }
  const Tensor sd = src.detach();
  Tensor out = Tensor::make_result(
      Shape{num_rows, cols}, {src},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        // d(out[idx[i]])/d(src[i]) = I, so the gradient is a row gather.
        const obs::prof::KernelScope prof(
            "scatter_add", 0,
            obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)),
                               in_rows, cols),
            ".bwd");
        Tensor gs = Tensor::zeros(Shape{in_rows, cols});
        real* pgs = gs.data();
        const real* pg = grad.data();
        parallel_for(0, in_rows, parallel_grain(cols),
                     [&, pg, pgs](std::int64_t row_begin,
                                  std::int64_t row_end) {
                       for (std::int64_t r = row_begin; r < row_end; ++r) {
                         std::copy_n(
                             pg + index[static_cast<std::size_t>(r)] * cols,
                             static_cast<std::size_t>(cols), pgs + r * cols);
                       }
                     });
        return {gs};
      },
      "scatter_add_rows");
  const obs::prof::KernelScope prof(
      "scatter_add", obs::prof::sat_mul(in_rows, cols),
      obs::prof::sat_mul(3 * static_cast<std::int64_t>(sizeof(real)), in_rows,
                         cols));
  scatter_rows_into(sd.data(), index.data(), in_rows, out.data(), num_rows,
                    cols);
  return out;
}

}  // namespace sgnn
