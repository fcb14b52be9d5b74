#ifndef TABREP_NN_OPTIMIZER_H_
#define TABREP_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "tensor/autograd.h"

namespace tabrep::nn {

/// Base optimizer over a fixed parameter list. Typical loop:
///   opt.ZeroGrad(); loss = ...; ag::Backward(loss); opt.Step();
class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Variable*> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from accumulated gradients.
  virtual void Step() = 0;

  void ZeroGrad();

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 protected:
  std::vector<ag::Variable*> params_;
  float lr_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ag::Variable*> params, float lr, float momentum = 0.0f);
  void Step() override;

 private:
  float momentum_;
  std::vector<Tensor> velocity_;  // made on the first Step
};

/// Adam/AdamW hyperparameters.
struct AdamOptions {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam / AdamW. With weight_decay > 0 the decay is decoupled (AdamW).
class Adam : public Optimizer {
 public:
  Adam(std::vector<ag::Variable*> params, float lr, AdamOptions options = {});
  void Step() override;

 private:
  AdamOptions options_;
  int64_t step_ = 0;
  // First and second moments, made on the first Step.
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Scales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<ag::Variable*>& params, float max_norm);

/// Linear warmup to `peak_lr` over `warmup_steps`, then linear decay to
/// zero at `total_steps`.
class WarmupLinearSchedule {
 public:
  WarmupLinearSchedule(float peak_lr, int64_t warmup_steps,
                       int64_t total_steps)
      : peak_lr_(peak_lr),
        warmup_steps_(warmup_steps),
        total_steps_(total_steps) {}

  float LrAt(int64_t step) const;

 private:
  float peak_lr_;
  int64_t warmup_steps_;
  int64_t total_steps_;
};

/// Linear warmup to `peak_lr`, then cosine decay to `floor_lr` at
/// `total_steps`.
class WarmupCosineSchedule {
 public:
  WarmupCosineSchedule(float peak_lr, int64_t warmup_steps,
                       int64_t total_steps, float floor_lr = 0.0f)
      : peak_lr_(peak_lr),
        floor_lr_(floor_lr),
        warmup_steps_(warmup_steps),
        total_steps_(total_steps) {}

  float LrAt(int64_t step) const;

 private:
  float peak_lr_;
  float floor_lr_;
  int64_t warmup_steps_;
  int64_t total_steps_;
};

}  // namespace tabrep::nn

#endif  // TABREP_NN_OPTIMIZER_H_
