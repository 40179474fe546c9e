#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sgnn/tensor/tensor.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

class GradBucketer;
namespace ckpt {
class SnapshotBuilder;
class SnapshotView;
}  // namespace ckpt

/// Flattening helpers: a parameter (or moment) list as one contiguous
/// vector, in list order.
std::vector<real> flatten_parameters(const std::vector<Tensor>& parameters);
/// Undefined gradients flatten to zeros (a parameter a branch never touched).
std::vector<real> flatten_gradients(const std::vector<Tensor>& parameters);
/// Inverse of flatten_parameters; throws unless `flat` has exactly the
/// list's element count.
void unflatten_into_parameters(const std::vector<real>& flat,
                               std::vector<Tensor>& parameters);

/// Gradient-descent optimizer over a fixed parameter list, as one rank sees
/// it. Both trainers drive every optimizer through this interface; a
/// single-process optimizer is the one-rank case.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> parameters);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients. Parameters whose
  /// gradient is undefined are skipped (treated as zero gradient). `rank`
  /// is the caller's position in the communicator a distributed optimizer
  /// synchronizes over (every rank calls once per step); local optimizers
  /// ignore it.
  virtual void step(int rank) = 0;
  /// Single-process shorthand for step(0).
  void step() { step(0); }

  void zero_grad();
  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

  /// The gradient bucketer a trainer arms around backward (begin_step + the
  /// leaf-grad hook) so gradient collectives overlap it; null when the
  /// optimizer posts no collectives during backward.
  virtual GradBucketer* bucketer() { return nullptr; }

 protected:
  std::vector<Tensor>& parameters() { return parameters_; }
  double learning_rate_ = 1e-3;

 private:
  std::vector<Tensor> parameters_;
};

/// Plain SGD with optional momentum — the baseline optimizer.
class SGD : public Optimizer {
 public:
  SGD(std::vector<Tensor> parameters, double learning_rate,
      double momentum = 0.0);

  using Optimizer::step;
  void step(int rank) override;

 private:
  double momentum_;
  std::vector<Tensor> velocity_;  ///< kOptimizerState, lazily allocated
};

/// Adam (Kingma & Ba). The two moment vectors are the "optimizer states"
/// of Fig. 6 — storage equal to twice the model weights, allocated under
/// MemCategory::kOptimizerState so the memory benches see exactly the 2x
/// footprint the paper describes. DDPAdam and ZeroAdam are the same update
/// with the gradient synchronized (and, for ZeRO, the moments sharded)
/// across ranks.
class Adam : public Optimizer {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  Adam(std::vector<Tensor> parameters, const Options& options);

  using Optimizer::step;
  void step(int rank) override;

  /// Shared by the distributed variants: one Adam update on a flat array
  /// slice.
  static void update_flat(real* param, const real* grad, real* m, real* v,
                          std::size_t count, std::int64_t timestep,
                          const Options& options);

  /// Training-checkpoint state (sgnn::ckpt): writes the `optim.*` sections
  /// rank `rank` owns — the bias-correction step count and learning rate
  /// (rank 0), and the two moment vectors, flattened in parameter order
  /// (`optim.m`/`optim.v` by rank 0 when replicated; `optim.m.<rank>`/
  /// `optim.v.<rank>` by every rank when sharded). Restoring every rank's
  /// sections resumes the update sequence bit-identically.
  void save_state(ckpt::SnapshotBuilder& builder, int rank) const;
  void restore_state(const ckpt::SnapshotView& view, int rank);

 protected:
  /// For the distributed variants: the moments are one flat pair of
  /// `moment_elements` values (the full vector, or one rank's shard when
  /// `sharded`) instead of one pair per parameter.
  Adam(std::vector<Tensor> parameters, const Options& options,
       std::int64_t moment_elements, bool sharded);

  /// The configured options at the current (schedule-driven) learning rate.
  Options step_options() const;

  std::int64_t timestep_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;

 private:
  Options options_;
  bool sharded_ = false;
};

}  // namespace sgnn
