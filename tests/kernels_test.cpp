// sgnn::kernels backend layer: dispatch plumbing, the IEEE-754 matmul
// regression (no zero-skip), scalar<->SIMD agreement at the documented
// tolerances, the fp32 compute flavour, and the saturating KernelScope
// cost arithmetic.

#include "sgnn/tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/rng.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<real> random_vector(std::int64_t n, std::uint64_t seed,
                                double lo = -2.0, double hi = 2.0) {
  Rng rng(seed);
  return Tensor::uniform(Shape{n}, rng, lo, hi).to_vector();
}

/// Backends to sweep: scalar always, SIMD when this machine has it.
std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::simd_available()) {
    backends.push_back(kernels::Backend::kSimd);
  }
  return backends;
}

// -- dispatch ---------------------------------------------------------------

TEST(KernelDispatch, NamesAreStable) {
  EXPECT_STREQ(kernels::backend_name(kernels::Backend::kScalar), "scalar");
  EXPECT_STREQ(kernels::backend_name(kernels::Backend::kSimd), "simd");
  EXPECT_STREQ(kernels::dtype_name(kernels::ComputeDtype::kFloat64),
               "float64");
  EXPECT_STREQ(kernels::dtype_name(kernels::ComputeDtype::kFloat32),
               "float32");
}

TEST(KernelDispatch, ScopedBackendOverridesSelection) {
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    EXPECT_EQ(kernels::active_backend(), kernels::Backend::kScalar);
    EXPECT_EQ(&kernels::active_table(), &kernels::scalar_table());
  }
  if (kernels::simd_available()) {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    EXPECT_EQ(kernels::active_backend(), kernels::Backend::kSimd);
    EXPECT_EQ(&kernels::active_table(), &kernels::simd_table());
  }
}

TEST(KernelDispatch, ScopedComputeDtypeControlsElementSize) {
  // Pin the ambient dtype: the CI fp32-smoke leg runs this binary with
  // SGNN_COMPUTE_DTYPE=float32 exported.
  kernels::ScopedComputeDtype ambient(kernels::ComputeDtype::kFloat64);
  EXPECT_EQ(kernels::compute_element_size(), 8);
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    EXPECT_EQ(kernels::active_compute_dtype(),
              kernels::ComputeDtype::kFloat32);
    EXPECT_EQ(kernels::compute_element_size(), 4);
  }
  EXPECT_EQ(kernels::compute_element_size(), 8);
}

TEST(KernelDispatch, TablesAreFullyPopulated) {
  for (const auto* table : {&kernels::scalar_table(),
                            &kernels::simd_table()}) {
    EXPECT_NE(table->matmul_rows_f64, nullptr);
    EXPECT_NE(table->matmul_rows_f32, nullptr);
    EXPECT_NE(table->matmul_at_b_band_f64, nullptr);
    EXPECT_NE(table->matmul_a_bt_rows_f64, nullptr);
    EXPECT_NE(table->binary_f64, nullptr);
    EXPECT_NE(table->binary_bwd_f64, nullptr);
    EXPECT_NE(table->unary_f64, nullptr);
    EXPECT_NE(table->unary_bwd_f64, nullptr);
    EXPECT_NE(table->sum_chunk_f64, nullptr);
    EXPECT_NE(table->accumulate_f64, nullptr);
  }
}

// -- IEEE-754 regression: matmul must not skip zero operands ----------------
//
// The old inner loop had `if (av == 0) continue;`, which silently turned
// 0 * Inf and 0 * NaN into 0 instead of NaN. Pin the correct semantics on
// every backend, through the autograd op and the raw drivers.

TEST(KernelIeee, MatmulPropagatesZeroTimesInfAsNan) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    // [0 1] @ [[inf] [2]]: the zero row entry meets Inf -> NaN, which must
    // not be masked by the finite 1*2 term.
    const Tensor a = Tensor::from_vector({0.0, 1.0}, Shape{1, 2});
    const Tensor b = Tensor::from_vector({kInf, 2.0}, Shape{2, 1});
    const auto c = matmul(a, b).to_vector();
    EXPECT_TRUE(std::isnan(c[0]))
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, MatmulPropagatesNanThroughZeroRows) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    const Tensor a = Tensor::from_vector({0.0, 0.0}, Shape{1, 2});
    const Tensor b = Tensor::from_vector({kNaN, 7.0}, Shape{2, 1});
    const auto c = matmul(a, b).to_vector();
    EXPECT_TRUE(std::isnan(c[0]))
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, MatmulKeepsInfinityWhenUnmasked) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    const Tensor a = Tensor::from_vector({1.0, 0.0, 3.0}, Shape{1, 3});
    const Tensor b = Tensor::from_vector({kInf, 5.0, 1.0}, Shape{3, 1});
    const auto c = matmul(a, b).to_vector();
    // 1*Inf + 0*5 + 3*1: the 0*5 term is finite, so the Inf survives.
    EXPECT_TRUE(std::isinf(c[0]) && c[0] > 0)
        << "backend " << kernels::backend_name(backend) << " produced "
        << c[0];
  }
}

TEST(KernelIeee, TransposedVariantsPropagateNonFinites) {
  for (const auto backend : available_backends()) {
    kernels::ScopedBackend scope(backend);
    // a(2,1), b(2,1): a^T b = 0*Inf + 1*2 -> NaN.
    const std::vector<real> a = {0.0, 1.0};
    const std::vector<real> b = {kInf, 2.0};
    real at_b = 0;
    kernels::matmul_at_b(a.data(), b.data(), &at_b, 2, 1, 1);
    EXPECT_TRUE(std::isnan(at_b))
        << "at_b on " << kernels::backend_name(backend) << ": " << at_b;
    // a(1,2) @ b(1,2)^T: same dot product through the a_bt kernel.
    real a_bt = 0;
    kernels::matmul_a_bt(a.data(), b.data(), &a_bt, 1, 2, 1);
    EXPECT_TRUE(std::isnan(a_bt))
        << "a_bt on " << kernels::backend_name(backend) << ": " << a_bt;
  }
}

// -- fold continuation --------------------------------------------------------
//
// matmul_at_b accumulates into C, which is what lets a graph-parallel run
// continue the weight-gradient fold block that straddles a rank boundary.

TEST(KernelContinuation, MatmulAtBSplitOverRowsIsBitIdentical) {
  // m spans three 64-row panels, k is odd (the row-pair remainder), and n
  // leaves a scalar tail at every vector width.
  const std::int64_t m = 150, k = 7, n = 37;
  const auto a = random_vector(m * k, 111);
  const auto b = random_vector(m * n, 222);
  const auto c0 = random_vector(k * n, 333);  // nonzero initial C
  for (const auto dtype :
       {kernels::ComputeDtype::kFloat64, kernels::ComputeDtype::kFloat32}) {
    kernels::ScopedComputeDtype dtype_scope(dtype);
    for (const auto backend : available_backends()) {
      kernels::ScopedBackend scope(backend);
      std::vector<real> whole = c0;
      kernels::matmul_at_b(a.data(), b.data(), whole.data(), m, k, n);
      for (const std::int64_t m1 : {0, 1, 37, 64, 100, 149, 150}) {
        std::vector<real> split = c0;
        kernels::matmul_at_b(a.data(), b.data(), split.data(), m1, k, n);
        kernels::matmul_at_b(a.data() + m1 * k, b.data() + m1 * n,
                             split.data(), m - m1, k, n);
        for (std::size_t i = 0; i < whole.size(); ++i) {
          ASSERT_EQ(whole[i], split[i])
              << kernels::backend_name(backend) << "/"
              << kernels::dtype_name(dtype) << " m1=" << m1 << " element "
              << i;
        }
      }
    }
  }
}

// -- canonical blocked order --------------------------------------------------
//
// The parameter-gradient folds sum kFoldBlockRows-row blocks, each folded
// from +0, in ascending block order; that is what lets graph-parallel ranks
// fold their whole blocks concurrently. These tests pin the definition
// against an explicit per-block reference on every backend, compute dtype
// and pool size.

/// Runs `body` with the intra-op pool resized to `threads`.
template <typename Fn>
void with_pool_size(int threads, Fn body) {
  ThreadPool& pool = ThreadPool::instance();
  const int previous = pool.size();
  pool.resize(threads);
  body();
  pool.resize(previous);
}

/// Sweeps backends x compute dtypes x pool sizes {1, 4}; `body` gets a
/// label for failure messages.
template <typename Fn>
void for_each_kernel_config(Fn body) {
  for (const auto dtype :
       {kernels::ComputeDtype::kFloat64, kernels::ComputeDtype::kFloat32}) {
    const kernels::ScopedComputeDtype dtype_scope(dtype);
    for (const auto backend : available_backends()) {
      const kernels::ScopedBackend scope(backend);
      for (const int threads : {1, 4}) {
        with_pool_size(threads, [&] {
          body(std::string(kernels::backend_name(backend)) + "/" +
               kernels::dtype_name(dtype) + "/pool" +
               std::to_string(threads));
        });
      }
    }
  }
}

/// c + P_0 + P_1 + …, P_j = matmul_at_b of rows [64j, 64j + 64) into a
/// zeroed buffer. The block adds run in the compute dtype's accumulator:
/// float under float32 compute, like the rest of matmul_at_b's fold.
std::vector<real> blocked_at_b_reference(const std::vector<real>& a,
                                         const std::vector<real>& b,
                                         std::vector<real> c, std::int64_t m,
                                         std::int64_t k, std::int64_t n) {
  const bool fp32 =
      kernels::active_compute_dtype() == kernels::ComputeDtype::kFloat32;
  for (std::int64_t r0 = 0; r0 < m; r0 += kernels::kFoldBlockRows) {
    const std::int64_t rows = std::min(m - r0, kernels::kFoldBlockRows);
    std::vector<real> partial(static_cast<std::size_t>(k * n), 0.0);
    kernels::matmul_at_b(a.data() + r0 * k, b.data() + r0 * n, partial.data(),
                         rows, k, n);
    for (std::size_t e = 0; e < c.size(); ++e) {
      c[e] = fp32 ? static_cast<real>(static_cast<float>(c[e]) +
                                      static_cast<float>(partial[e]))
                  : c[e] + partial[e];
    }
  }
  return c;
}

/// c + P_0 + P_1 + …, P_j = the column sums of rows [64j, 64j + 64) from
/// +0, rows ascending (reduce_to's order for a (1, n) target), in fp64.
std::vector<real> blocked_rows_reference(const std::vector<real>& x,
                                         std::vector<real> c,
                                         std::int64_t rows, std::int64_t n) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += kernels::kFoldBlockRows) {
    const std::int64_t r1 = std::min(rows, r0 + kernels::kFoldBlockRows);
    std::vector<real> partial(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        partial[static_cast<std::size_t>(j)] +=
            x[static_cast<std::size_t>(r * n + j)];
      }
    }
    for (std::size_t j = 0; j < c.size(); ++j) c[j] += partial[j];
  }
  return c;
}

/// Bitwise equality that also treats NaN == NaN (EXPECT_EQ on doubles
/// would fail on any NaN).
bool same_bits(real x, real y) {
  return std::memcmp(&x, &y, sizeof(real)) == 0;
}

TEST(KernelBlockedOrder, MatmulAtBMatchesPerBlockReference) {
  // k is odd (row-pair remainder) and spans several 16-row pool chunks; n
  // leaves a scalar tail at every vector width.
  const std::int64_t k = 71, n = 37;
  for (const std::int64_t m : {0, 1, 63, 64, 65, 200}) {
    const auto a = random_vector(m * k, 444 + static_cast<std::uint64_t>(m));
    const auto b = random_vector(m * n, 555 + static_cast<std::uint64_t>(m));
    const auto c0 = random_vector(k * n, 666);  // nonzero initial C
    for_each_kernel_config([&](const std::string& config) {
      const auto expected = blocked_at_b_reference(a, b, c0, m, k, n);
      std::vector<real> got = c0;
      kernels::matmul_at_b_blocked(a.data(), b.data(), got.data(), m, k, n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], expected[i]))
            << config << " m=" << m << " element " << i << ": " << got[i]
            << " vs " << expected[i];
      }
      if (m <= kernels::kFoldBlockRows) {
        // One block from a zero C is exactly the plain fold.
        std::vector<real> blocked(static_cast<std::size_t>(k * n), 0.0);
        std::vector<real> plain = blocked;
        kernels::matmul_at_b_blocked(a.data(), b.data(), blocked.data(), m,
                                     k, n);
        kernels::matmul_at_b(a.data(), b.data(), plain.data(), m, k, n);
        ASSERT_EQ(blocked, plain) << config << " m=" << m;
      }
    });
  }
}

TEST(KernelBlockedOrder, BiasRowSumMatchesPerBlockReference) {
  // 2000 rows span several pool chunks of blocks; the row sum is fp64 on
  // both compute dtypes.
  const std::int64_t n = 37;
  for (const std::int64_t rows : {0, 1, 63, 64, 65, 200, 2000}) {
    const auto x =
        random_vector(rows * n, 777 + static_cast<std::uint64_t>(rows));
    const auto c0 = random_vector(n, 888);
    const auto expected = blocked_rows_reference(x, c0, rows, n);
    for_each_kernel_config([&](const std::string& config) {
      std::vector<real> got = c0;
      kernels::sum_rows_blocked(x.data(), got.data(), rows, n);
      ASSERT_EQ(got, expected) << config << " rows=" << rows;
      if (rows <= kernels::kFoldBlockRows) {
        // One block from a zero accumulator is exactly the plain row sum.
        std::vector<real> blocked(static_cast<std::size_t>(n), 0.0);
        std::vector<real> plain = blocked;
        kernels::sum_rows_blocked(x.data(), blocked.data(), rows, n);
        kernels::sum_rows(x.data(), plain.data(), rows, n);
        ASSERT_EQ(blocked, plain) << config << " rows=" << rows;
      }
    });
  }
}

TEST(KernelBlockedOrder, NonFinitesPropagateAcrossBlocks) {
  // 0 x Inf in the second block of a 130-row fold must surface as NaN in
  // the sum, and an unmasked Inf in the first block must survive the
  // blocks after it — on every backend and dtype.
  const std::int64_t m = 130;
  std::vector<real> a(static_cast<std::size_t>(m), 1.0);
  std::vector<real> b(static_cast<std::size_t>(m), 0.5);
  a[70] = 0.0;
  b[70] = kInf;
  std::vector<real> a_inf(static_cast<std::size_t>(m), 1.0);
  std::vector<real> b_inf = b;
  b_inf[70] = 0.5;
  b_inf[3] = kInf;
  for_each_kernel_config([&](const std::string& config) {
    real nan_sum = 0;
    kernels::matmul_at_b_blocked(a.data(), b.data(), &nan_sum, m, 1, 1);
    EXPECT_TRUE(std::isnan(nan_sum)) << config << ": " << nan_sum;
    real inf_sum = 0;
    kernels::matmul_at_b_blocked(a_inf.data(), b_inf.data(), &inf_sum, m, 1,
                                 1);
    EXPECT_TRUE(std::isinf(inf_sum) && inf_sum > 0)
        << config << ": " << inf_sum;
    // The row sum: NaN in block 1 of column 0, Inf in block 0 of column 1.
    std::vector<real> x(static_cast<std::size_t>(m * 2), 0.25);
    x[70 * 2] = kNaN;
    x[3 * 2 + 1] = kInf;
    std::vector<real> sums(2, 0.0);
    kernels::sum_rows_blocked(x.data(), sums.data(), m, 2);
    EXPECT_TRUE(std::isnan(sums[0])) << config << ": " << sums[0];
    EXPECT_TRUE(std::isinf(sums[1]) && sums[1] > 0)
        << config << ": " << sums[1];
  });
}

// -- scalar <-> SIMD agreement ----------------------------------------------
//
// matmul, matmul_at_b, elementwise and accumulate are bit-identical across
// backends (same per-element mul+add order, FMA disabled); matmul_a_bt and
// the full sum split dot products across lanes and carry a 1e-12 relative
// tolerance (see docs/kernels.md).

class KernelAgreement : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::simd_available()) {
      GTEST_SKIP() << "SIMD backend not available on this machine";
    }
  }
};

TEST_F(KernelAgreement, MatmulIsBitIdentical) {
  const std::int64_t m = 17, k = 23, n = 19;  // odd: exercises vector tails
  const auto a = random_vector(m * k, 101);
  const auto b = random_vector(k * n, 202);
  std::vector<real> scalar_c(m * n), simd_c(m * n);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul(a.data(), b.data(), scalar_c.data(), m, k, n);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul(a.data(), b.data(), simd_c.data(), m, k, n);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    ASSERT_EQ(scalar_c[i], simd_c[i]) << "element " << i;
  }
}

TEST_F(KernelAgreement, MatmulAtBIsBitIdentical) {
  const std::int64_t m = 23, k = 17, n = 19;
  const auto a = random_vector(m * k, 303);
  const auto b = random_vector(m * n, 404);
  std::vector<real> scalar_c(k * n), simd_c(k * n);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul_at_b(a.data(), b.data(), scalar_c.data(), m, k, n);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul_at_b(a.data(), b.data(), simd_c.data(), m, k, n);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    ASSERT_EQ(scalar_c[i], simd_c[i]) << "element " << i;
  }
}

TEST_F(KernelAgreement, MatmulABtAgreesToDocumentedTolerance) {
  const std::int64_t m = 17, n = 23, k = 19;
  const auto a = random_vector(m * n, 505);
  const auto b = random_vector(k * n, 606);
  std::vector<real> scalar_c(m * k), simd_c(m * k);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    kernels::matmul_a_bt(a.data(), b.data(), scalar_c.data(), m, n, k);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    kernels::matmul_a_bt(a.data(), b.data(), simd_c.data(), m, n, k);
  }
  for (std::size_t i = 0; i < scalar_c.size(); ++i) {
    const double denom = std::max(std::abs(scalar_c[i]), 1.0);
    ASSERT_LE(std::abs(scalar_c[i] - simd_c[i]) / denom, 1e-12)
        << "element " << i << ": " << scalar_c[i] << " vs " << simd_c[i];
  }
}

TEST_F(KernelAgreement, ElementwiseForwardAndBackwardAreBitIdentical) {
  const std::int64_t n = 10007;  // prime: never a multiple of the lane width
  const auto a = random_vector(n, 707, 0.5, 2.0);
  const auto b = random_vector(n, 808, 0.5, 2.0);
  const auto g = random_vector(n, 909);

  using kernels::BinaryOp;
  using kernels::UnaryOp;
  for (const auto op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                        BinaryOp::kDiv}) {
    std::vector<real> scalar_out(n), simd_out(n);
    std::vector<real> scalar_ga(n), scalar_gb(n), simd_ga(n), simd_gb(n);
    {
      kernels::ScopedBackend scope(kernels::Backend::kScalar);
      kernels::binary(op, a.data(), b.data(), scalar_out.data(), n);
      kernels::binary_backward(op, a.data(), b.data(), g.data(),
                               scalar_ga.data(), scalar_gb.data(), n);
    }
    {
      kernels::ScopedBackend scope(kernels::Backend::kSimd);
      kernels::binary(op, a.data(), b.data(), simd_out.data(), n);
      kernels::binary_backward(op, a.data(), b.data(), g.data(),
                               simd_ga.data(), simd_gb.data(), n);
    }
    for (std::size_t i = 0; i < scalar_out.size(); ++i) {
      ASSERT_EQ(scalar_out[i], simd_out[i]) << "binary op " << static_cast<int>(op);
      ASSERT_EQ(scalar_ga[i], simd_ga[i]) << "binary bwd ga " << static_cast<int>(op);
      ASSERT_EQ(scalar_gb[i], simd_gb[i]) << "binary bwd gb " << static_cast<int>(op);
    }
  }

  const struct {
    UnaryOp op;
    real c;
  } unary_cases[] = {
      {UnaryOp::kNeg, 0},        {UnaryOp::kScale, 1.7},
      {UnaryOp::kAddScalar, .5}, {UnaryOp::kPow, 3.0},
      {UnaryOp::kSquare, 0},     {UnaryOp::kSqrt, 0},
      {UnaryOp::kExp, 0},        {UnaryOp::kLog, 0},
      {UnaryOp::kAbs, 0},        {UnaryOp::kClampMin, 1.0},
      {UnaryOp::kRelu, 0},       {UnaryOp::kSigmoid, 0},
      {UnaryOp::kTanh, 0},       {UnaryOp::kSilu, 0},
      {UnaryOp::kSoftplus, 0},
  };
  for (const auto& c : unary_cases) {
    std::vector<real> scalar_out(n), simd_out(n), scalar_gx(n), simd_gx(n);
    {
      kernels::ScopedBackend scope(kernels::Backend::kScalar);
      kernels::unary(c.op, a.data(), scalar_out.data(), c.c, n);
      kernels::unary_backward(c.op, a.data(), g.data(), scalar_gx.data(),
                              c.c, n);
    }
    {
      kernels::ScopedBackend scope(kernels::Backend::kSimd);
      kernels::unary(c.op, a.data(), simd_out.data(), c.c, n);
      kernels::unary_backward(c.op, a.data(), g.data(), simd_gx.data(), c.c,
                              n);
    }
    for (std::size_t i = 0; i < scalar_out.size(); ++i) {
      ASSERT_EQ(scalar_out[i], simd_out[i]) << "unary op " << static_cast<int>(c.op);
      ASSERT_EQ(scalar_gx[i], simd_gx[i]) << "unary bwd " << static_cast<int>(c.op);
    }
  }
}

TEST_F(KernelAgreement, ReductionsAgree) {
  const std::int64_t n = 4099;
  const auto x = random_vector(n, 1111);
  double scalar_sum = 0, simd_sum = 0;
  std::vector<real> scalar_acc(257, 0.25), simd_acc(257, 0.25);
  {
    kernels::ScopedBackend scope(kernels::Backend::kScalar);
    scalar_sum = kernels::reduce_sum(x.data(), n);
    kernels::accumulate(x.data(), scalar_acc.data(), 257);
  }
  {
    kernels::ScopedBackend scope(kernels::Backend::kSimd);
    simd_sum = kernels::reduce_sum(x.data(), n);
    kernels::accumulate(x.data(), simd_acc.data(), 257);
  }
  // Full sum splits across lanes: documented 1e-12 relative tolerance.
  EXPECT_LE(std::abs(scalar_sum - simd_sum) /
                std::max(std::abs(scalar_sum), 1.0),
            1e-12);
  // accumulate is a pure elementwise add: bit-identical.
  for (std::size_t i = 0; i < scalar_acc.size(); ++i) {
    ASSERT_EQ(scalar_acc[i], simd_acc[i]) << "accumulate element " << i;
  }
}

// -- fp32 compute flavour ---------------------------------------------------

TEST(KernelFp32, MatmulMatchesFp64WithinRoundingTolerance) {
  const std::int64_t m = 13, k = 29, n = 11;
  const auto a = random_vector(m * k, 1212);
  const auto b = random_vector(k * n, 1313);
  std::vector<real> c64(m * n), c32(m * n);
  kernels::matmul(a.data(), b.data(), c64.data(), m, k, n);
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    kernels::matmul(a.data(), b.data(), c32.data(), m, k, n);
  }
  for (std::size_t i = 0; i < c64.size(); ++i) {
    const double denom = std::max(std::abs(c64[i]), 1.0);
    // float has a 2^-24 epsilon; a k=29 dot product stays well under 1e-4.
    ASSERT_LE(std::abs(c64[i] - c32[i]) / denom, 1e-4)
        << "element " << i << ": " << c64[i] << " vs " << c32[i];
    // And the rounding must actually happen: the result is representable
    // arithmetic over floats, not the fp64 result relabeled.
    ASSERT_EQ(c32[i], c32[i]);  // no NaNs from the scratch plumbing
  }
}

TEST(KernelFp32, ElementwiseRoundsOperandsThroughFloat) {
  // 1 + 2^-40 is invisible in float: the fp32 flavour must return exactly
  // 1 + 2 = 3 with the tiny addend rounded away, fp64 must keep it.
  const real tiny = 1.0 + std::pow(2.0, -40);
  const std::vector<real> a = {tiny};
  const std::vector<real> b = {2.0};
  real out64 = 0, out32 = 0;
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat64);
    kernels::binary(kernels::BinaryOp::kAdd, a.data(), b.data(), &out64, 1);
  }
  {
    kernels::ScopedComputeDtype scope(kernels::ComputeDtype::kFloat32);
    kernels::binary(kernels::BinaryOp::kAdd, a.data(), b.data(), &out32, 1);
  }
  EXPECT_GT(out64, 3.0);
  EXPECT_EQ(out32, 3.0);
}

// -- saturating KernelScope cost arithmetic ---------------------------------

TEST(SatArith, ProductsClampAtInt64Max) {
  using obs::prof::sat_add;
  using obs::prof::sat_mul;
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();

  // Exact below the boundary.
  EXPECT_EQ(sat_mul(std::int64_t{1} << 31, std::int64_t{1} << 31),
            std::int64_t{1} << 62);
  EXPECT_EQ(sat_mul(3, 5, 7), 105);
  EXPECT_EQ(sat_mul(2, 3, 5, 7), 210);
  EXPECT_EQ(sat_add(max - 1, 1), max);

  // Clamped at and past it. 3037000500^2 is the first square past 2^63.
  EXPECT_EQ(sat_mul(3037000500LL, 3037000500LL), max);
  EXPECT_EQ(sat_mul(max, 2), max);
  EXPECT_EQ(sat_add(max, 1), max);
  EXPECT_EQ(sat_add(max, max, max), max);
  // A clamped partial product stays clamped through further factors.
  EXPECT_EQ(sat_mul(max, 2, 3), max);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 40, std::int64_t{1} << 40, 2), max);
}

TEST(SatArith, MatmulCostsSurviveHugeShapes) {
  // The expressions ops_linalg.cpp feeds KernelScope: 2*m*k*n FLOPs for a
  // shape whose product overflows int64 must clamp, not wrap negative.
  using obs::prof::sat_mul;
  const std::int64_t huge = std::int64_t{1} << 31;
  EXPECT_EQ(sat_mul(2, huge, huge, huge),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(sat_mul(2, huge, huge, huge), 0);
}

}  // namespace
}  // namespace sgnn
