#include "sgnn/train/optim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn {

std::vector<real> flatten_parameters(const std::vector<Tensor>& parameters) {
  std::vector<real> flat;
  for (const auto& p : parameters) {
    const real* d = p.data();
    flat.insert(flat.end(), d, d + p.numel());
  }
  return flat;
}

std::vector<real> flatten_gradients(const std::vector<Tensor>& parameters) {
  std::vector<real> flat;
  for (const auto& p : parameters) {
    const Tensor grad = p.grad();
    if (grad.defined()) {
      const real* d = grad.data();
      flat.insert(flat.end(), d, d + grad.numel());
    } else {
      flat.insert(flat.end(), static_cast<std::size_t>(p.numel()), real{0});
    }
  }
  return flat;
}

void unflatten_into_parameters(const std::vector<real>& flat,
                               std::vector<Tensor>& parameters) {
  std::size_t offset = 0;
  for (auto& p : parameters) {
    const auto n = static_cast<std::size_t>(p.numel());
    SGNN_CHECK(offset + n <= flat.size(), "unflatten size mismatch");
    std::copy_n(flat.data() + offset, n, p.data());
    offset += n;
  }
  SGNN_CHECK(offset == flat.size(), "unflatten left " << flat.size() - offset
                                                      << " dangling values");
}

Optimizer::Optimizer(std::vector<Tensor> parameters)
    : parameters_(std::move(parameters)) {
  SGNN_CHECK(!parameters_.empty(), "optimizer needs parameters");
  for (const auto& p : parameters_) {
    SGNN_CHECK(p.defined() && p.is_leaf() && p.requires_grad(),
               "optimizer parameters must be grad-requiring leaves");
  }
}

void Optimizer::zero_grad() {
  for (auto& p : parameters_) p.zero_grad();
}

SGD::SGD(std::vector<Tensor> parameters, double learning_rate, double momentum)
    : Optimizer(std::move(parameters)), momentum_(momentum) {
  learning_rate_ = learning_rate;
  if (momentum_ != 0.0) {
    const ScopedMemCategory scope(MemCategory::kOptimizerState);
    for (const auto& p : this->parameters()) {
      velocity_.push_back(Tensor::zeros(p.shape()));
    }
  }
}

void SGD::step(int /*rank*/) {
  auto& params = parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor grad = params[i].grad();
    if (!grad.defined()) continue;
    real* p = params[i].data();
    const real* g = grad.data();
    const std::int64_t n = params[i].numel();
    const auto lr = static_cast<real>(learning_rate_);
    if (momentum_ == 0.0) {
      parallel_for(0, n, kParallelMinWork,
                   [=](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t k = begin; k < end; ++k) {
                       p[k] -= lr * g[k];
                     }
                   });
    } else {
      real* vel = velocity_[i].data();
      const auto mu = static_cast<real>(momentum_);
      parallel_for(0, n, kParallelMinWork,
                   [=](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t k = begin; k < end; ++k) {
                       vel[k] = mu * vel[k] + g[k];
                       p[k] -= lr * vel[k];
                     }
                   });
    }
  }
}

Adam::Adam(std::vector<Tensor> parameters, const Options& options)
    : Optimizer(std::move(parameters)), options_(options) {
  learning_rate_ = options.learning_rate;
  const ScopedMemCategory scope(MemCategory::kOptimizerState);
  for (const auto& p : this->parameters()) {
    m_.push_back(Tensor::zeros(p.shape()));
    v_.push_back(Tensor::zeros(p.shape()));
  }
}

Adam::Adam(std::vector<Tensor> parameters, const Options& options,
           std::int64_t moment_elements, bool sharded)
    : Optimizer(std::move(parameters)), options_(options), sharded_(sharded) {
  learning_rate_ = options.learning_rate;
  const ScopedMemCategory scope(MemCategory::kOptimizerState);
  m_.push_back(Tensor::zeros(Shape{moment_elements}));
  v_.push_back(Tensor::zeros(Shape{moment_elements}));
}

Adam::Options Adam::step_options() const {
  Options options = options_;
  options.learning_rate = learning_rate_;  // honor schedule updates
  return options;
}

void Adam::save_state(ckpt::SnapshotBuilder& builder, int rank) const {
  if (rank == 0) {
    builder.add_i64("optim.timestep", timestep_);
    builder.add_f64("optim.lr", learning_rate_);
  }
  // Replicated moments are bitwise equal on every rank: rank 0's stand in.
  if (!sharded_ && rank != 0) return;
  const std::string suffix = sharded_ ? "." + std::to_string(rank) : "";
  const std::vector<real> m = flatten_parameters(m_);
  const std::vector<real> v = flatten_parameters(v_);
  builder.add_reals("optim.m" + suffix, m.data(), m.size());
  builder.add_reals("optim.v" + suffix, v.data(), v.size());
}

void Adam::restore_state(const ckpt::SnapshotView& view, int rank) {
  const std::int64_t timestep = view.i64("optim.timestep");
  SGNN_CHECK(timestep >= 0, "Adam timestep must be non-negative");
  const std::string suffix = sharded_ ? "." + std::to_string(rank) : "";
  unflatten_into_parameters(view.reals("optim.m" + suffix), m_);
  unflatten_into_parameters(view.reals("optim.v" + suffix), v_);
  timestep_ = timestep;
  learning_rate_ = view.f64("optim.lr");
}

void Adam::update_flat(real* param, const real* grad, real* m, real* v,
                       std::size_t count, std::int64_t timestep,
                       const Options& options) {
  const auto beta1 = static_cast<real>(options.beta1);
  const auto beta2 = static_cast<real>(options.beta2);
  const auto eps = static_cast<real>(options.epsilon);
  const auto lr = static_cast<real>(options.learning_rate);
  const real bias1 =
      real{1} - std::pow(beta1, static_cast<real>(timestep));
  const real bias2 =
      real{1} - std::pow(beta2, static_cast<real>(timestep));
  parallel_for(0, static_cast<std::int64_t>(count), kParallelMinWork,
               [=](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t k = begin; k < end; ++k) {
                   m[k] = beta1 * m[k] + (real{1} - beta1) * grad[k];
                   v[k] = beta2 * v[k] + (real{1} - beta2) * grad[k] * grad[k];
                   const real m_hat = m[k] / bias1;
                   const real v_hat = v[k] / bias2;
                   param[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
                 }
               });
}

void Adam::step(int /*rank*/) {
  ++timestep_;
  const Options options = step_options();
  auto& params = parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor grad = params[i].grad();
    if (!grad.defined()) continue;
    update_flat(params[i].data(), grad.data(), m_[i].data(), v_[i].data(),
                static_cast<std::size_t>(params[i].numel()), timestep_,
                options);
  }
}

}  // namespace sgnn
