#include "ops_common.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/grad_reducer.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

Tensor matmul(const Tensor& a, const Tensor& b) {
  SGNN_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul requires rank-2 operands, got "
                 << a.shape().to_string() << " x " << b.shape().to_string());
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  SGNN_CHECK(b.dim(0) == k, "matmul inner-dimension mismatch: "
                                << a.shape().to_string() << " x "
                                << b.shape().to_string());
  const Tensor ad = a.detach();
  const Tensor bd = b.detach();
  // x @ W with W a replicated leaf parameter and x row-sharded across ranks:
  // dW folds over x's rows in the canonical blocked order, so a
  // graph-parallel run hands that fold to the reducer, which combines the
  // ranks' blocks in global order. The armed reducer is captured at record
  // time; the condition (leaf rhs) is a property of the model, not of this
  // rank's row count, so every rank records it alike.
  ShardedGradReducer* reducer =
      (b.is_leaf() && b.requires_grad()) ? current_sharded_grad_reducer()
                                         : nullptr;
  using obs::prof::sat_add;
  using obs::prof::sat_mul;
  Tensor out = Tensor::make_result(
      Shape{m, n}, {a, b},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        // dA = G @ Bᵀ, dB = Aᵀ @ G: two products, each priced like the
        // forward one (see the kernel cost model in docs/observability.md).
        // Under a reducer dB is the ring fold's work and is priced there
        // (as halo_ring.bwd), so this scope covers dA alone.
        const std::int64_t products = reducer != nullptr ? 1 : 2;
        const std::int64_t w = kernels::compute_element_size();
        Tensor ga = Tensor::zeros(Shape{m, k});
        Tensor gb;
        {
          const obs::prof::KernelScope prof(
              "matmul", sat_mul(2 * products, m, k, n),
              sat_mul(products * w, sat_add(sat_mul(m, k), sat_mul(k, n),
                                            sat_mul(m, n))),
              ".bwd");
          kernels::matmul_a_bt(grad.data(), bd.data(), ga.data(), m, n, k);
          if (reducer == nullptr) {
            gb = Tensor::zeros(Shape{k, n});
            kernels::matmul_at_b_blocked(ad.data(), grad.data(), gb.data(), m,
                                         k, n);
          }
        }
        if (reducer != nullptr) {
          gb = reducer->fold(
              m, k, n, sat_mul(2, m, k, n),
              sat_mul(static_cast<std::int64_t>(sizeof(real)),
                      sat_add(sat_mul(m, k), sat_mul(m, n), sat_mul(k, n))),
              [&](std::int64_t begin, std::int64_t end, real* c) {
                kernels::matmul_at_b(ad.data() + begin * k,
                                     grad.data() + begin * n, c, end - begin,
                                     k, n);
              });
        }
        return {ga, gb};
      },
      "matmul");
  {
    const std::int64_t w = kernels::compute_element_size();
    const obs::prof::KernelScope prof(
        "matmul", sat_mul(2, m, k, n),
        sat_mul(w, sat_add(sat_mul(m, k), sat_mul(k, n), sat_mul(m, n))));
    kernels::matmul(ad.data(), bd.data(), out.data(), m, k, n);
  }
  return out;
}

Tensor transpose(const Tensor& x) {
  SGNN_CHECK(x.rank() == 2, "transpose requires rank-2 input, got "
                                << x.shape().to_string());
  const std::int64_t rows = x.dim(0);
  const std::int64_t cols = x.dim(1);
  const Tensor xd = x.detach();
  using obs::prof::sat_mul;
  Tensor out = Tensor::make_result(
      Shape{cols, rows}, {x},
      [=](const Tensor& grad) -> std::vector<Tensor> {
        const obs::prof::KernelScope prof(
            "transpose", 0,
            sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), rows, cols),
            ".bwd");
        Tensor gx = Tensor::zeros(Shape{rows, cols});
        const real* pg = grad.data();
        real* pgx = gx.data();
        parallel_for(0, cols, parallel_grain(rows),
                     [=](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         for (std::int64_t j = 0; j < rows; ++j) {
                           pgx[j * cols + i] = pg[i * rows + j];
                         }
                       }
                     });
        return {gx};
      },
      "transpose");
  const obs::prof::KernelScope prof(
      "transpose", 0,
      sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), rows, cols));
  const real* px = xd.data();
  real* po = out.data();
  parallel_for(0, rows, parallel_grain(cols),
               [=](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i) {
                   for (std::int64_t j = 0; j < cols; ++j) {
                     po[j * rows + i] = px[i * cols + j];
                   }
                 }
               });
  return out;
}

}  // namespace sgnn
